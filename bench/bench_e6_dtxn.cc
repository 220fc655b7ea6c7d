// E6 — Section IV-E-1: distributed transactions across data centers.
//
// Claims validated: (a) commit latency is dominated by inter-DC RTT and
// degrades linearly with it; (b) the single-round protocol halves
// decision latency vs 2PC, with the gap growing with RTT — the paper's
// motivation for new decentralized commit protocols ([51], [86]).

#include <benchmark/benchmark.h>

#include "bench_json.h"

#include <memory>
#include <set>

#include "net/topology.h"
#include "txn/distributed.h"

namespace {

using namespace deluge;       // NOLINT
using namespace deluge::txn;  // NOLINT

struct Cluster {
  net::Simulator sim;
  std::unique_ptr<net::Network> network;
  std::vector<std::unique_ptr<ShardNode>> shards;
  std::unique_ptr<DistributedTxnSystem> system;
};

std::unique_ptr<Cluster> MakeCluster(size_t num_dcs, Micros inter_dc_rtt) {
  auto c = std::make_unique<Cluster>();
  c->network = std::make_unique<net::Network>(&c->sim);
  // One shard per DC; the coordinator lives in DC 0.
  std::vector<ShardNode*> ptrs;
  for (size_t i = 0; i < num_dcs; ++i) {
    c->shards.push_back(std::make_unique<ShardNode>(c->network.get()));
    ptrs.push_back(c->shards.back().get());
  }
  c->system = std::make_unique<DistributedTxnSystem>(c->network.get(), ptrs);
  // Coordinator <-> shard 0 is local; others are inter-DC.
  net::LinkOptions local = net::LinkPresets::IntraDc();
  net::LinkOptions wan = net::LinkPresets::InterDc(inter_dc_rtt / 2);
  for (size_t i = 0; i < num_dcs; ++i) {
    c->network->SetBidirectional(c->system->coordinator_node(),
                                 c->shards[i]->node_id(),
                                 i == 0 ? local : wan);
  }
  return c;
}

void RunTxns(Cluster* c, CommitProtocol protocol, int count,
             int keys_per_txn) {
  Rng rng(13);
  for (int i = 0; i < count; ++i) {
    std::vector<WriteOp> writes;
    for (int k = 0; k < keys_per_txn; ++k) {
      writes.push_back({"key" + std::to_string(rng.Uniform(100000)), "v"});
    }
    c->system->Submit(writes, protocol, [](const TxnResult&) {});
    c->sim.Run();  // closed loop: one txn at a time
  }
}

void BM_CommitLatencyVsRtt(benchmark::State& state) {
  const Micros rtt = state.range(0) * kMicrosPerMilli;
  const CommitProtocol protocol = CommitProtocol(state.range(1));
  Histogram latency;
  uint64_t committed = 0, aborted = 0;
  for (auto _ : state) {
    auto cluster = MakeCluster(4, rtt);
    RunTxns(cluster.get(), protocol, 50, 4);
    latency.Merge(cluster->system->commit_latency());
    committed += cluster->system->committed();
    aborted += cluster->system->aborted();
  }
  state.counters["rtt_ms"] = double(state.range(0));
  state.counters["protocol"] = double(state.range(1));  // 0=2PC, 1=1RT
  state.counters["commit_p50_ms"] = latency.P50() / double(kMicrosPerMilli);
  state.counters["commit_p99_ms"] = latency.P99() / double(kMicrosPerMilli);
  state.counters["abort_pct"] =
      100.0 * double(aborted) / double(std::max<uint64_t>(1, committed + aborted));
}
// Args: {inter-DC RTT ms, protocol}.
BENCHMARK(BM_CommitLatencyVsRtt)
    ->Args({1, 0})->Args({1, 1})
    ->Args({10, 0})->Args({10, 1})
    ->Args({50, 0})->Args({50, 1})
    ->Args({200, 0})->Args({200, 1})
    ->Unit(benchmark::kMillisecond);

// Cross-shard fan-out: latency vs the number of participant DCs per
// transaction.  Prepare rounds are parallel, so latency stays ~flat in
// fan-out while the message count grows linearly — the WAN RTT, not the
// participant count, is the cost (the paper's "non-negligible
// inter-data-center network latency" point).
void BM_LatencyVsFanout(benchmark::State& state) {
  const int fanout = int(state.range(0));
  Histogram latency;
  uint64_t messages = 0, txns = 0;
  for (auto _ : state) {
    auto cluster = MakeCluster(8, 40 * kMicrosPerMilli);
    for (int i = 0; i < 30; ++i) {
      // One write per target shard: probe keys until `fanout` distinct
      // shards are covered.
      std::vector<WriteOp> writes;
      std::set<size_t> shards;
      int probe = 0;
      while (int(shards.size()) < fanout) {
        std::string key =
            "k" + std::to_string(i) + "_" + std::to_string(probe++);
        size_t s = cluster->system->ShardOf(key);
        if (shards.insert(s).second) writes.push_back({key, "v"});
      }
      cluster->system->Submit(writes, CommitProtocol::kTwoPhase,
                              [](const TxnResult&) {});
      cluster->sim.Run();
      ++txns;
    }
    latency.Merge(cluster->system->commit_latency());
    messages += cluster->network->stats().messages_sent;
  }
  state.counters["fanout"] = double(fanout);
  state.counters["commit_p50_ms"] = latency.P50() / double(kMicrosPerMilli);
  state.counters["msgs_per_txn"] =
      double(messages) / double(std::max<uint64_t>(1, txns));
}
BENCHMARK(BM_LatencyVsFanout)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace

DELUGE_BENCH_MAIN();
