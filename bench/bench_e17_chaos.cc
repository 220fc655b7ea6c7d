// E17 — deterministic chaos: the transaction + pub/sub stack under a
// scripted fault schedule (partitions, a crash, correlated burst loss).
//
// Claims validated: (a) commit success recovers after every fault heals
// — retransmission rides out short faults, background redelivery closes
// the committed-then-lost hole (the count must be ZERO), and the
// per-shard circuit breaker converts retry storms against a dead shard
// into cheap fast-fails; (b) pub/sub staleness degrades gracefully
// (late, not lost) across link flaps; (c) the whole scenario is
// bit-for-bit reproducible from its seed (same seed => identical fault
// trace and metrics), which is what makes chaos results debuggable.

#include <benchmark/benchmark.h>

#include "bench_json.h"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "chaos/fault_schedule.h"
#include "common/histogram.h"
#include "pubsub/reliable.h"
#include "txn/distributed.h"

namespace {

using namespace deluge;       // NOLINT
using namespace deluge::txn;  // NOLINT

constexpr size_t kShards = 4;
constexpr Micros kHorizon = 10 * kMicrosPerSecond;
constexpr Micros kSubmitEvery = 10 * kMicrosPerMilli;
constexpr Micros kTxnTimeout = 500 * kMicrosPerMilli;

struct Cluster {
  net::Simulator sim;
  std::unique_ptr<net::Network> network;
  std::vector<std::unique_ptr<ShardNode>> shards;
  std::unique_ptr<DistributedTxnSystem> system;
};

std::unique_ptr<Cluster> MakeCluster() {
  auto c = std::make_unique<Cluster>();
  c->network = std::make_unique<net::Network>(&c->sim);
  std::vector<ShardNode*> ptrs;
  for (size_t i = 0; i < kShards; ++i) {
    c->shards.push_back(std::make_unique<ShardNode>(c->network.get()));
    ptrs.push_back(c->shards.back().get());
  }
  c->system = std::make_unique<DistributedTxnSystem>(c->network.get(), ptrs);
  c->network->default_link().latency = 5 * kMicrosPerMilli;
  c->network->default_link().bandwidth_bytes_per_sec = 0;
  return c;
}

/// A key for txn `i` guaranteed to live on shard `target`.
std::string KeyOnShard(const DistributedTxnSystem& system, int i,
                       size_t target) {
  for (int probe = 0;; ++probe) {
    std::string key =
        "t" + std::to_string(i) + "_" + std::to_string(probe);
    if (system.ShardOf(key) == target) return key;
  }
}

/// One fault window for bookkeeping: shard `target` is unreachable from
/// the coordinator during [from, until).
struct Window {
  Micros from, until;
  size_t target;
};

struct TxnRecord {
  Micros submitted_at = 0;
  Micros decided_at = 0;
  size_t target_shard = 0;
  bool committed = false;
  std::string key;    ///< the write forced onto target_shard
  std::string value;
};

struct ScenarioResult {
  uint64_t trace_hash = 0;
  uint64_t fault_events = 0;
  uint64_t committed = 0;
  uint64_t aborted = 0;
  uint64_t committed_then_lost = 0;
  uint64_t retransmits = 0;
  uint64_t redeliveries = 0;
  uint64_t fast_fails = 0;
  uint64_t unresolved = 0;
  double commit_rate_healthy = 0;
  double commit_rate_faulted = 0;
  double max_recovery_ms = 0;
};

/// Runs the full chaos scenario: an open-loop txn workload (one txn per
/// 10 ms, round-robin over target shards) under three scripted fault
/// windows, then audits every reported commit against the stores.
ScenarioResult RunChaosScenario() {
  auto c = MakeCluster();
  const net::NodeId coord = c->system->coordinator_node();

  // The schedule: two coordinator<->shard-1 partitions, a shard-2
  // crash, and a burst-loss window toward shard 3 (silent correlated
  // loss, recovered by retransmission alone).
  const std::vector<Window> windows = {
      {1 * kMicrosPerSecond, 2 * kMicrosPerSecond, 1},
      {4 * kMicrosPerSecond, 5500 * kMicrosPerMilli, 1},
      {6500 * kMicrosPerMilli, 7 * kMicrosPerSecond, 2},
  };
  chaos::FaultSchedule schedule(c->network.get());
  schedule
      .PartitionWindow(windows[0].from, coord,
                       c->shards[1]->node_id(),
                       windows[0].until - windows[0].from)
      .PartitionWindow(windows[1].from, coord,
                       c->shards[1]->node_id(),
                       windows[1].until - windows[1].from)
      .CrashNode(windows[2].from, c->shards[2]->node_id(),
                 windows[2].until - windows[2].from);
  net::BurstLossModel burst;
  burst.p_good_to_bad = 0.1;
  burst.p_bad_to_good = 0.3;
  schedule.BurstLossWindow(8 * kMicrosPerSecond, coord,
                           c->shards[3]->node_id(), burst,
                           kMicrosPerSecond);
  schedule.Arm();

  // Open-loop workload: txn i targets shard i % kShards plus one free
  // key; every key is unique so commits can be audited afterwards.
  const int kTxns = int(kHorizon / kSubmitEvery);
  std::vector<TxnRecord> txns(kTxns);
  for (int i = 0; i < kTxns; ++i) {
    TxnRecord& rec = txns[i];
    rec.submitted_at = Micros(i) * kSubmitEvery;
    rec.target_shard = size_t(i) % kShards;
    rec.key = KeyOnShard(*c->system, i, rec.target_shard);
    rec.value = "v" + std::to_string(i);
    c->sim.At(rec.submitted_at, [&c, &rec, i] {
      c->system->Submit(
          {{rec.key, rec.value}, {"u" + std::to_string(i), rec.value}},
          CommitProtocol::kTwoPhase,
          [&c, &rec](const TxnResult& r) {
            rec.committed = r.committed;
            rec.decided_at = c->sim.Now();
          },
          kTxnTimeout);
    });
  }
  c->sim.Run();  // drains the workload, faults, and all redeliveries

  ScenarioResult out;
  out.trace_hash = schedule.TraceHash();
  out.fault_events = schedule.stats().total;
  out.committed = c->system->committed();
  out.aborted = c->system->aborted();
  out.retransmits = c->system->retransmits();
  out.redeliveries = c->system->redeliveries();
  out.fast_fails = c->system->fast_fails();
  out.unresolved = c->system->unresolved_decisions();

  // Audit: every transaction reported committed must be readable with
  // the value it wrote — a commit answered to the client and then lost
  // to a partition would show up here.
  uint64_t healthy = 0, healthy_committed = 0;
  uint64_t faulted = 0, faulted_committed = 0;
  std::vector<Micros> first_commit_after(windows.size(), -1);
  for (const TxnRecord& rec : txns) {
    if (rec.committed) {
      std::string v;
      if (!c->system->Read(rec.key, &v).ok() || v != rec.value) {
        ++out.committed_then_lost;
      }
    }
    bool in_fault = false;
    for (size_t w = 0; w < windows.size(); ++w) {
      if (rec.target_shard == windows[w].target &&
          rec.submitted_at >= windows[w].from &&
          rec.submitted_at < windows[w].until) {
        in_fault = true;
      }
      // Recovery: first post-heal commit on the window's target shard.
      if (rec.committed && rec.target_shard == windows[w].target &&
          rec.decided_at >= windows[w].until &&
          (first_commit_after[w] < 0 ||
           rec.decided_at < first_commit_after[w])) {
        first_commit_after[w] = rec.decided_at;
      }
    }
    (in_fault ? faulted : healthy) += 1;
    if (rec.committed) (in_fault ? faulted_committed : healthy_committed) += 1;
  }
  out.commit_rate_healthy =
      healthy == 0 ? 0.0 : double(healthy_committed) / double(healthy);
  out.commit_rate_faulted =
      faulted == 0 ? 0.0 : double(faulted_committed) / double(faulted);
  for (size_t w = 0; w < windows.size(); ++w) {
    if (first_commit_after[w] < 0) continue;  // never recovered: visible
    double ms = double(first_commit_after[w] - windows[w].until) /
                double(kMicrosPerMilli);
    out.max_recovery_ms = std::max(out.max_recovery_ms, ms);
  }
  return out;
}

void BM_ChaosTxnRecovery(benchmark::State& state) {
  ScenarioResult r;
  for (auto _ : state) r = RunChaosScenario();
  state.counters["committed"] = double(r.committed);
  state.counters["aborted"] = double(r.aborted);
  state.counters["commit_rate_healthy"] = r.commit_rate_healthy;
  state.counters["commit_rate_faulted"] = r.commit_rate_faulted;
  state.counters["max_recovery_ms"] = r.max_recovery_ms;
  state.counters["committed_then_lost"] = double(r.committed_then_lost);
  state.counters["retransmits"] = double(r.retransmits);
  state.counters["redeliveries"] = double(r.redeliveries);
  state.counters["fast_fails"] = double(r.fast_fails);
  state.counters["unresolved"] = double(r.unresolved);
  state.counters["fault_events"] = double(r.fault_events);
}
BENCHMARK(BM_ChaosTxnRecovery)->Unit(benchmark::kMillisecond);

// Reproducibility: the same scenario runs twice and must match
// bit-for-bit — fault trace hash and every headline metric.
void BM_ChaosDeterminism(benchmark::State& state) {
  bool trace_match = true, metrics_match = true;
  for (auto _ : state) {
    ScenarioResult a = RunChaosScenario();
    ScenarioResult b = RunChaosScenario();
    trace_match = trace_match && a.trace_hash == b.trace_hash;
    metrics_match = metrics_match && a.committed == b.committed &&
                    a.aborted == b.aborted &&
                    a.retransmits == b.retransmits &&
                    a.redeliveries == b.redeliveries;
  }
  state.counters["trace_match"] = trace_match ? 1.0 : 0.0;
  state.counters["metrics_match"] = metrics_match ? 1.0 : 0.0;
  if (!trace_match || !metrics_match) {
    state.SkipWithError("chaos scenario is not reproducible");
  }
}
BENCHMARK(BM_ChaosDeterminism)->Unit(benchmark::kMillisecond);

// Pub/sub staleness under link flaps: events retried through transient
// faults arrive late rather than never — graceful degradation measured
// as a staleness distribution, not a loss rate.
void BM_PubsubStalenessUnderFlaps(benchmark::State& state) {
  Histogram staleness;
  uint64_t published = 0, delivered = 0;
  pubsub::ReliableStats rstats;
  for (auto _ : state) {
    net::Simulator sim;
    net::Network net(&sim);
    net::NodeId pub = net.AddNode([](const net::Message&) {});
    std::vector<Micros> published_at;
    net::NodeId sub = net.AddNode([&](const net::Message& m) {
      // The payload is the event's wire form; its topic carries the
      // publish index.
      pubsub::Event e;
      if (!pubsub::Event::Decode(m.payload.slice(), &e)) return;
      size_t i = size_t(std::stoull(e.topic));
      staleness.Record(sim.Now() - published_at[i]);
      ++delivered;
    });
    net.default_link().latency = 5 * kMicrosPerMilli;
    net.default_link().bandwidth_bytes_per_sec = 0;

    chaos::FaultSchedule schedule(&net);
    schedule.FlapLink(kMicrosPerSecond, pub, sub, 300 * kMicrosPerMilli)
        .FlapLink(3 * kMicrosPerSecond, pub, sub, 500 * kMicrosPerMilli);
    schedule.Arm();

    RetryPolicy policy;
    policy.max_attempts = 10;
    policy.initial_backoff = 20 * kMicrosPerMilli;
    policy.max_backoff = 200 * kMicrosPerMilli;
    pubsub::ReliableDeliverer deliverer(&net, policy);
    deliverer.breaker_options().failure_threshold = 1000;  // retries only

    const int kEvents = int(5 * kMicrosPerSecond / (5 * kMicrosPerMilli));
    published_at.resize(kEvents);
    for (int i = 0; i < kEvents; ++i) {
      Micros at = Micros(i) * 5 * kMicrosPerMilli;
      sim.At(at, [&, i, at] {
        published_at[i] = at;
        pubsub::Event e;
        e.topic = std::to_string(i);  // payload carries the event index
        e.published_at = at;
        deliverer.Deliver(pub, sub, e);
      });
      ++published;
    }
    sim.Run();
    rstats = deliverer.stats();
  }
  state.counters["published"] = double(published);
  state.counters["delivered_pct"] =
      100.0 * double(delivered) / double(std::max<uint64_t>(1, published));
  state.counters["staleness_p50_ms"] =
      staleness.P50() / double(kMicrosPerMilli);
  state.counters["staleness_p99_ms"] =
      staleness.P99() / double(kMicrosPerMilli);
  state.counters["retries"] = double(rstats.retries);
  state.counters["gave_up"] = double(rstats.gave_up);
}
BENCHMARK(BM_PubsubStalenessUnderFlaps)->Unit(benchmark::kMillisecond);

}  // namespace

DELUGE_BENCH_MAIN();
