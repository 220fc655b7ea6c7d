// E22 — replicated quorum storage under chaos: the `deluge::replica`
// fabric (N-successor placement on the Chord ring, tunable R/W quorums,
// sloppy quorums + hinted handoff, read repair, anti-entropy) driven by
// an open-loop read/write workload while a scripted fault schedule
// crashes one replica and partitions another away from the coordinator.
//
// Claims validated: (a) with N=3, R=W=2 the fabric rides out a replica
// crash at >= 99% operation availability; (b) no acknowledged write is
// ever lost — after faults heal, every acked (key, version) is held by
// a replica (audited directly against the backings); (c) divergence
// created by the faults is visible (stale reads are counted, not
// hidden) and anti-entropy drives it to zero after heal; (d) the
// quorum sweep exposes the availability/consistency tradeoff: W=N
// writes lose availability under the same faults, R=W=1 reads get
// staler.

#include <benchmark/benchmark.h>

#include "bench_json.h"

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "chaos/fault_schedule.h"
#include "common/histogram.h"
#include "net/network.h"
#include "net/simulator.h"
#include "p2p/chord.h"
#include "replica/replicated_store.h"
#include "replica/wire.h"

namespace {

using namespace deluge;           // NOLINT
using namespace deluge::replica;  // NOLINT

constexpr int kReplicas = 8;
constexpr Micros kHorizon = 10 * kMicrosPerSecond;
constexpr Micros kOpEvery = 5 * kMicrosPerMilli;
constexpr int kKeys = 200;
constexpr Micros kCrashAt = 2 * kMicrosPerSecond;
constexpr Micros kCrashFor = 2 * kMicrosPerSecond;
constexpr Micros kPartitionAt = 5 * kMicrosPerSecond;
constexpr Micros kPartitionFor = 2 * kMicrosPerSecond;

struct Cluster {
  net::Simulator sim;
  std::unique_ptr<net::Network> net;
  std::unique_ptr<p2p::ChordRing> ring;
  std::unique_ptr<ReplicatedStore> store;
  std::vector<uint64_t> rings;
};

std::unique_ptr<Cluster> MakeCluster(int n, int r, int w) {
  auto c = std::make_unique<Cluster>();
  c->net = std::make_unique<net::Network>(&c->sim);
  c->net->default_link().latency = 2 * kMicrosPerMilli;
  c->net->default_link().bandwidth_bytes_per_sec = 0;
  c->ring = std::make_unique<p2p::ChordRing>(c->net.get());
  ReplicaOptions opts;
  opts.n = n;
  opts.r = r;
  opts.w = w;
  c->store = std::make_unique<ReplicatedStore>(c->net.get(),
                                               c->ring.get(), opts);
  for (int i = 0; i < kReplicas; ++i) {
    c->rings.push_back(c->store->AddReplica("rep" + std::to_string(i)));
  }
  return c;
}

struct SweepResult {
  uint64_t write_attempts = 0, write_ok = 0;
  uint64_t read_attempts = 0, read_ok = 0;
  uint64_t stale_reads = 0;
  uint64_t hinted_handoffs = 0, hints_replayed = 0;
  uint64_t read_repairs = 0;
  uint64_t acked_writes = 0, acked_writes_lost = 0;
  uint64_t ae_rounds_to_converge = 0, ae_keys_synced = 0;
  double divergent_after = 0;
  double write_p99_ms = 0, read_p99_ms = 0;
};

/// Open-loop workload under the fault schedule, then heal, converge via
/// anti-entropy, and audit acknowledged writes against the backings.
SweepResult RunQuorumSweep(int n, int r, int w) {
  auto c = MakeCluster(n, r, w);
  c->store->Start();

  // Faults never overlap: one replica crash, then a protocol-level
  // partition between the coordinator and another replica.
  chaos::FaultSchedule schedule(c->net.get());
  schedule
      .CrashNode(kCrashAt, c->store->node(c->rings[0])->node_id(), kCrashFor)
      .PartitionWindow(kPartitionAt, c->store->coordinator_node(),
                       c->store->node(c->rings[3])->node_id(),
                       kPartitionFor);
  schedule.Arm();

  SweepResult out;
  Histogram write_us, read_us;
  // Last acknowledged (version, value) per key — the audit ground truth.
  std::map<std::string, std::pair<Version, std::string>> acked;

  const int kOps = int(kHorizon / kOpEvery);
  int issued_writes = 0;
  for (int i = 0; i < kOps; ++i) {
    const Micros at = Micros(i) * kOpEvery;
    const std::string key = "obj" + std::to_string(i % kKeys);
    if (i % 2 == 0) {
      const std::string value = "v" + std::to_string(issued_writes++);
      c->sim.At(at, [&, key, value, at] {
        ++out.write_attempts;
        c->store->Put(key, value, {},
                      [&, key, value, at](const Status& s, Version ver) {
                        if (!s.ok()) return;
                        ++out.write_ok;
                        write_us.Record(c->sim.Now() - at);
                        auto& slot = acked[key];
                        if (slot.first < ver) slot = {ver, value};
                      });
      });
    } else {
      c->sim.At(at, [&, key, at] {
        ++out.read_attempts;
        c->store->Get(key, {},
                      [&, at](const Status& s, const std::string&, Version) {
                        // NotFound counts as served: the quorum answered.
                        if (!s.ok() && !s.IsNotFound()) return;
                        ++out.read_ok;
                        read_us.Record(c->sim.Now() - at);
                      });
      });
    }
  }
  // Drain the workload, let the detector revive healed peers, and let
  // hinted handoff replay.
  c->sim.RunUntil(kHorizon + 4 * kMicrosPerSecond);

  // Anti-entropy until the digests agree everywhere (bounded).
  for (int round = 0; round < 6; ++round) {
    AntiEntropyReport report;
    bool done = false;
    c->store->RunAntiEntropy([&](const AntiEntropyReport& rep) {
      report = rep;
      done = true;
    });
    c->sim.RunUntil(c->sim.Now() + 5 * kMicrosPerSecond);
    ++out.ae_rounds_to_converge;
    out.ae_keys_synced += report.keys_synced;
    if (done && report.divergent == 0 && report.unreachable == 0) break;
  }

  // Audit: every acknowledged write must survive on some replica at a
  // version at least as new as the one acked to the client.
  out.acked_writes = acked.size();
  for (const auto& [key, want] : acked) {
    bool survives = false;
    for (uint64_t rid : c->rings) {
      Record rec;
      if (!c->store->node(rid)->LocalGet(key, &rec).ok()) continue;
      if (want.first < rec.version || rec.version == want.first) {
        survives = true;
        break;
      }
    }
    if (!survives) ++out.acked_writes_lost;
  }

  const ReplicaStats& stats = c->store->stats();
  out.stale_reads = stats.stale_reads;
  out.hinted_handoffs = stats.hinted_handoffs;
  out.hints_replayed = stats.hints_replayed;
  out.read_repairs = stats.read_repairs;
  out.divergent_after = stats.divergent_segments;
  out.write_p99_ms = write_us.P99() / double(kMicrosPerMilli);
  out.read_p99_ms = read_us.P99() / double(kMicrosPerMilli);
  c->store->Stop();
  return out;
}

void BM_QuorumSweep(benchmark::State& state) {
  const int n = int(state.range(0));
  const int r = int(state.range(1));
  const int w = int(state.range(2));
  SweepResult res;
  for (auto _ : state) res = RunQuorumSweep(n, r, w);
  const double ops = double(res.write_attempts + res.read_attempts);
  const double ok = double(res.write_ok + res.read_ok);
  state.counters["availability_pct"] = ops == 0 ? 0.0 : 100.0 * ok / ops;
  state.counters["write_availability_pct"] =
      res.write_attempts == 0
          ? 0.0
          : 100.0 * double(res.write_ok) / double(res.write_attempts);
  state.counters["read_availability_pct"] =
      res.read_attempts == 0
          ? 0.0
          : 100.0 * double(res.read_ok) / double(res.read_attempts);
  state.counters["acked_writes"] = double(res.acked_writes);
  state.counters["acked_writes_lost"] = double(res.acked_writes_lost);
  state.counters["stale_reads"] = double(res.stale_reads);
  state.counters["hinted_handoffs"] = double(res.hinted_handoffs);
  state.counters["hints_replayed"] = double(res.hints_replayed);
  state.counters["read_repairs"] = double(res.read_repairs);
  state.counters["ae_rounds_to_converge"] =
      double(res.ae_rounds_to_converge);
  state.counters["ae_keys_synced"] = double(res.ae_keys_synced);
  state.counters["divergent_after"] = res.divergent_after;
  state.counters["write_p99_ms"] = res.write_p99_ms;
  state.counters["read_p99_ms"] = res.read_p99_ms;
}
BENCHMARK(BM_QuorumSweep)
    ->Args({3, 1, 1})
    ->Args({3, 2, 2})
    ->Args({3, 1, 3})
    ->Args({5, 2, 3})
    ->ArgNames({"N", "R", "W"})
    ->Unit(benchmark::kMillisecond);

// Anti-entropy in isolation: strict quorums (no handoff masking), a
// replica partitioned away while the workload writes, heal, then
// measure how many digest rounds close the divergence.
void BM_AntiEntropyConvergence(benchmark::State& state) {
  uint64_t divergent_initial = 0, keys_synced = 0, rounds = 0;
  double divergent_final = 0;
  uint64_t victim_missing_before = 0, victim_missing_after = 0;
  for (auto _ : state) {
    divergent_initial = keys_synced = 0;
    victim_missing_before = victim_missing_after = 0;
    ReplicaOptions opts;
    opts.sloppy_quorum = false;
    opts.n = 3;
    opts.r = 2;
    opts.w = 2;
    auto c = std::make_unique<Cluster>();
    c->net = std::make_unique<net::Network>(&c->sim);
    c->net->default_link().latency = 2 * kMicrosPerMilli;
    c->net->default_link().bandwidth_bytes_per_sec = 0;
    c->ring = std::make_unique<p2p::ChordRing>(c->net.get());
    c->store = std::make_unique<ReplicatedStore>(c->net.get(),
                                                 c->ring.get(), opts);
    for (int i = 0; i < 5; ++i) {
      c->rings.push_back(c->store->AddReplica("rep" + std::to_string(i)));
    }
    const uint64_t victim = c->rings[2];
    c->net->Partition(c->store->coordinator_node(),
                      c->store->node(victim)->node_id());
    for (int i = 0; i < kKeys; ++i) {
      const std::string key = "obj" + std::to_string(i);
      c->sim.At(Micros(i) * kOpEvery, [&c, key, i] {
        c->store->Put(key, "v" + std::to_string(i), {},
                      [](const Status&, Version) {});
      });
    }
    c->sim.RunUntil(kKeys * kOpEvery + 2 * kMicrosPerSecond);
    for (int i = 0; i < kKeys; ++i) {
      const std::string key = "obj" + std::to_string(i);
      auto pl = c->store->PreferenceList(key);
      Record rec;
      if (std::find(pl.begin(), pl.end(), victim) != pl.end() &&
          !c->store->node(victim)->LocalGet(key, &rec).ok()) {
        ++victim_missing_before;
      }
    }
    c->net->Heal(c->store->coordinator_node(),
                 c->store->node(victim)->node_id());

    rounds = 0;
    keys_synced = 0;
    for (int round = 0; round < 6; ++round) {
      AntiEntropyReport report;
      c->store->RunAntiEntropy(
          [&](const AntiEntropyReport& rep) { report = rep; });
      c->sim.RunUntil(c->sim.Now() + 5 * kMicrosPerSecond);
      ++rounds;
      if (round == 0) divergent_initial = report.divergent;
      keys_synced += report.keys_synced;
      if (report.divergent == 0) break;
    }
    divergent_final = c->store->stats().divergent_segments;
    for (int i = 0; i < kKeys; ++i) {
      const std::string key = "obj" + std::to_string(i);
      auto pl = c->store->PreferenceList(key);
      Record rec;
      if (std::find(pl.begin(), pl.end(), victim) != pl.end() &&
          !c->store->node(victim)->LocalGet(key, &rec).ok()) {
        ++victim_missing_after;
      }
    }
  }
  state.counters["divergent_initial"] = double(divergent_initial);
  state.counters["divergent_final"] = divergent_final;
  state.counters["rounds_to_converge"] = double(rounds);
  state.counters["keys_synced"] = double(keys_synced);
  state.counters["victim_missing_before"] = double(victim_missing_before);
  state.counters["victim_missing_after"] = double(victim_missing_after);
}
BENCHMARK(BM_AntiEntropyConvergence)->Unit(benchmark::kMillisecond);

// Read repair as a convergence mechanism: strict quorums write around a
// partitioned replica (no hints), the partition heals, and a pass of
// R=1 reads both surfaces the staleness (stale reads are counted, not
// hidden) and pushes the newest version back onto the lagging replica.
void BM_ReadRepair(benchmark::State& state) {
  uint64_t stale_reads = 0, read_repairs = 0;
  uint64_t victim_missing_before = 0, victim_missing_after = 0;
  for (auto _ : state) {
    victim_missing_before = victim_missing_after = 0;
    ReplicaOptions opts;
    opts.sloppy_quorum = false;
    opts.n = 3;
    opts.r = 2;
    opts.w = 2;
    auto c = std::make_unique<Cluster>();
    c->net = std::make_unique<net::Network>(&c->sim);
    c->net->default_link().latency = 2 * kMicrosPerMilli;
    c->net->default_link().bandwidth_bytes_per_sec = 0;
    c->ring = std::make_unique<p2p::ChordRing>(c->net.get());
    c->store = std::make_unique<ReplicatedStore>(c->net.get(),
                                                 c->ring.get(), opts);
    for (int i = 0; i < 5; ++i) {
      c->rings.push_back(c->store->AddReplica("rep" + std::to_string(i)));
    }
    const uint64_t victim = c->rings[1];
    c->net->Partition(c->store->coordinator_node(),
                      c->store->node(victim)->node_id());
    for (int i = 0; i < kKeys; ++i) {
      c->sim.At(Micros(i) * kOpEvery, [&c, i] {
        c->store->Put("obj" + std::to_string(i), "v" + std::to_string(i),
                      {}, [](const Status&, Version) {});
      });
    }
    c->sim.RunUntil(kKeys * kOpEvery + 2 * kMicrosPerSecond);
    c->net->Heal(c->store->coordinator_node(),
                 c->store->node(victim)->node_id());
    for (int i = 0; i < kKeys; ++i) {
      const std::string key = "obj" + std::to_string(i);
      auto pl = c->store->PreferenceList(key);
      Record rec;
      if (std::find(pl.begin(), pl.end(), victim) != pl.end() &&
          !c->store->node(victim)->LocalGet(key, &rec).ok()) {
        ++victim_missing_before;
      }
    }
    // One eventual-mode read per key: first responder wins, divergence
    // is repaired in the background after the quorum answers.
    for (int i = 0; i < kKeys; ++i) {
      c->sim.At(c->sim.Now() + Micros(i) * kOpEvery, [&c, i] {
        c->store->Get("obj" + std::to_string(i), ReadOptions{.r = 1},
                      [](const Status&, const std::string&, Version) {});
      });
    }
    c->sim.RunUntil(c->sim.Now() + kKeys * kOpEvery + 2 * kMicrosPerSecond);
    stale_reads = c->store->stats().stale_reads;
    read_repairs = c->store->stats().read_repairs;
    for (int i = 0; i < kKeys; ++i) {
      const std::string key = "obj" + std::to_string(i);
      auto pl = c->store->PreferenceList(key);
      Record rec;
      if (std::find(pl.begin(), pl.end(), victim) != pl.end() &&
          !c->store->node(victim)->LocalGet(key, &rec).ok()) {
        ++victim_missing_after;
      }
    }
  }
  state.counters["stale_reads"] = double(stale_reads);
  state.counters["read_repairs"] = double(read_repairs);
  state.counters["victim_missing_before"] = double(victim_missing_before);
  state.counters["victim_missing_after"] = double(victim_missing_after);
}
BENCHMARK(BM_ReadRepair)->Unit(benchmark::kMillisecond);

}  // namespace

DELUGE_BENCH_MAIN();
