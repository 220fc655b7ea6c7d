// E7 — Section IV-E-2 / Fig. 7: device–cloud–storage disaggregation.
//
// Claims validated: (a) offloading pre-aggregation to the device cuts
// end-to-end latency until the device compute budget binds; (b) the
// semantics-aware buffer pool keeps physical-space pages hot under mixed
// pressure; (c) the elastic executor tier absorbs a flash-sale burst.

#include <benchmark/benchmark.h>

#include "bench_json.h"

#include "common/rng.h"
#include "query/optimizer.h"
#include "runtime/buffer_pool.h"
#include "runtime/elastic_executor.h"

namespace {

using namespace deluge;         // NOLINT
using namespace deluge::query;  // NOLINT
using namespace deluge::runtime;  // NOLINT

std::vector<PlanStage> IngestPipeline() {
  return {
      {"sense", 1.0, 200000, /*device_only=*/true, false},
      {"decode", 8.0, 80000, false, false},
      {"clean", 6.0, 40000, false, false},
      {"aggregate", 12.0, 1000, false, false},
      {"mirror-apply", 30.0, 800, false, /*cloud_only=*/true},
  };
}

// Latency of the best feasible plan as the device budget sweeps — the
// Fig. 7 story: more device-side computation, less uplink traffic.
void BM_DeviceOffloadSweep(benchmark::State& state) {
  DeviceCloudModel model;
  model.device_speed = 1.0;
  model.cloud_speed = 20.0;
  model.uplink_bytes_per_ms = 625.0;  // 5 Mbps uplink
  model.device_work_budget = double(state.range(0));
  DevicePlanOptimizer opt(model);
  auto stages = IngestPipeline();
  PlacedPlan plan;
  for (auto _ : state) {
    plan = opt.Optimize(stages);
    benchmark::DoNotOptimize(plan.latency_ms);
  }
  int device_stages = 0;
  for (auto p : plan.placements) {
    device_stages += (p == Placement::kDevice);
  }
  state.counters["device_budget"] = double(state.range(0));
  state.counters["latency_ms"] = plan.latency_ms;
  state.counters["device_stages"] = double(device_stages);
  state.counters["uplink_kb"] = double(plan.bytes_uplinked) / 1024.0;
}
BENCHMARK(BM_DeviceOffloadSweep)->Arg(1)->Arg(10)->Arg(20)->Arg(30)->Arg(100)
    ->Unit(benchmark::kNanosecond);

// Buffer pool: hit ratio for physical-space pages under virtual-page
// flood, space-aware vs space-blind (virtual_share=1.0 disables the
// protection and priority collapses to plain LRU behaviour).
void BM_SemanticBufferPool(benchmark::State& state) {
  const bool space_aware = state.range(0) == 1;
  Rng rng(7);
  uint64_t physical_hits = 0, physical_gets = 0;
  for (auto _ : state) {
    BufferPool pool(1000 * 4096,
                    [](const std::string&) { return std::string(4096, 'x'); },
                    space_aware ? 0.25 : 1.0);
    // Working set: 300 hot physical pages + 5000 cold virtual pages.
    for (int op = 0; op < 30000; ++op) {
      std::string data;
      if (rng.Bernoulli(0.4)) {
        std::string id = "phys" + std::to_string(rng.Zipf(300, 0.9));
        bool hit = pool.Contains(id);
        pool.Get(id, stream::Space::kPhysical, &data);
        physical_hits += hit;
        ++physical_gets;
      } else {
        std::string id = "virt" + std::to_string(rng.Uniform(5000));
        pool.Get(id, stream::Space::kVirtual, &data);
      }
    }
  }
  state.counters["space_aware"] = double(state.range(0));
  state.counters["phys_hit_pct"] =
      100.0 * double(physical_hits) / double(std::max<uint64_t>(1, physical_gets));
}
BENCHMARK(BM_SemanticBufferPool)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

// Elastic executors absorbing a flash-sale burst (the paper's "Black
// Friday in metaverse shops" example): fixed pool vs elastic pool.
void BM_FlashSaleElasticity(benchmark::State& state) {
  const bool elastic = state.range(0) == 1;
  Histogram latency;
  double executor_seconds = 0;
  for (auto _ : state) {
    net::Simulator sim;
    ElasticExecutorPoolOptions opts;
    opts.min_executors = 4;
    opts.max_executors = elastic ? 64 : 4;
    opts.scale_out_delay = 200 * kMicrosPerMilli;
    opts.evaluate_every = 50 * kMicrosPerMilli;
    ElasticExecutorPool pool(&sim, opts);
    Rng rng(11);
    // Background trickle, then a 10x burst.
    Micros t = 0;
    for (int i = 0; i < 500; ++i) {
      t += Micros(rng.Exponential(1.0 / 10000.0));
      sim.At(t, [&pool] { pool.Submit(5 * kMicrosPerMilli); });
    }
    Micros burst_start = t;
    for (int i = 0; i < 3000; ++i) {
      Micros at = burst_start + Micros(rng.Exponential(1.0 / 1000.0)) * i;
      sim.At(at, [&pool] { pool.Submit(5 * kMicrosPerMilli); });
    }
    sim.Run();
    latency.Merge(pool.stats().task_latency);
    executor_seconds += pool.stats().executor_time / double(kMicrosPerSecond);
  }
  state.counters["elastic"] = double(state.range(0));
  state.counters["task_p99_ms"] = latency.P99() / double(kMicrosPerMilli);
  state.counters["executor_s"] =
      executor_seconds / double(state.iterations());
}
BENCHMARK(BM_FlashSaleElasticity)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

DELUGE_BENCH_MAIN();
