// E15 (extension) — Section IV-E: peer-to-peer search for decentralized
// metaverse data ("P2P search methods may be applicable here
// [42][45][83]"; Section IV-E-1's worldwide-decentralized databases).
//
// Claims validated: Chord-style overlay lookups take O(log n) hops with
// O(log n) routing state per peer, vs O(n) state for a full directory or
// O(n) messages for flooding — the property that lets a decentralized
// metaverse database scale membership without global coordination.

#include <benchmark/benchmark.h>

#include "bench_json.h"

#include <memory>

#include "common/rng.h"
#include "net/network.h"
#include "p2p/chord.h"

namespace {

using namespace deluge;       // NOLINT
using namespace deluge::p2p;  // NOLINT

struct Overlay {
  net::Simulator sim;
  std::unique_ptr<net::Network> net;
  std::unique_ptr<ChordRing> ring;
  std::vector<RingId> peers;
};

std::unique_ptr<Overlay> MakeOverlay(size_t n, Micros latency) {
  auto o = std::make_unique<Overlay>();
  o->net = std::make_unique<net::Network>(&o->sim);
  o->net->default_link().latency = latency;
  o->net->default_link().bandwidth_bytes_per_sec = 0;
  o->ring = std::make_unique<ChordRing>(o->net.get());
  for (size_t i = 0; i < n; ++i) {
    o->peers.push_back(o->ring->AddPeer("peer" + std::to_string(i)));
  }
  return o;
}

void BM_LookupHopsVsRingSize(benchmark::State& state) {
  const size_t n = size_t(state.range(0));
  auto overlay = MakeOverlay(n, 20 * kMicrosPerMilli);
  Rng rng(3);
  Histogram latency;
  for (auto _ : state) {
    RingId origin = overlay->peers[rng.Uniform(overlay->peers.size())];
    LookupResult result;
    overlay->ring->Get(origin, "key" + std::to_string(rng.Next() % 100000),
                       [&](const LookupResult& r) { result = r; });
    overlay->sim.Run();
    latency.Record(result.latency);
  }
  state.counters["peers"] = double(n);
  state.counters["mean_hops"] = overlay->ring->hop_histogram().mean();
  state.counters["p99_hops"] = overlay->ring->hop_histogram().P99();
  state.counters["virtual_p50_ms"] = latency.P50() / double(kMicrosPerMilli);
}
BENCHMARK(BM_LookupHopsVsRingSize)
    ->Arg(16)->Arg(64)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMillisecond);

// Churn cost: peers joining/leaving move only the key ranges they own
// (O(keys/n) per event), not the whole keyspace.
void BM_ChurnKeyMigration(benchmark::State& state) {
  const size_t n = size_t(state.range(0));
  auto overlay = MakeOverlay(n, kMicrosPerMilli);
  Rng rng(7);
  // Preload 2000 keys.
  for (int i = 0; i < 2000; ++i) {
    overlay->ring->Put(overlay->peers[0], "key" + std::to_string(i), "v",
                       [](const LookupResult&) {});
    overlay->sim.Run();
  }
  int joined = 0;
  for (auto _ : state) {
    overlay->ring->AddPeer("new" + std::to_string(joined++));
  }
  // Verify integrity after churn: sample keys still resolve.
  int found = 0;
  for (int i = 0; i < 100; ++i) {
    overlay->ring->Get(overlay->peers[0],
                       "key" + std::to_string(rng.Uniform(2000)),
                       [&](const LookupResult& r) { found += r.found; });
    overlay->sim.Run();
  }
  state.counters["peers"] = double(n);
  state.counters["sample_found_pct"] = double(found);
}
BENCHMARK(BM_ChurnKeyMigration)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMillisecond);

}  // namespace

DELUGE_BENCH_MAIN();
