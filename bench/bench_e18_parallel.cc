// E18 — sharded parallel ingest + fan-out (Fig. 7's parallelized
// serving tier applied to the Fig. 1 loop).
//
// Claims validated: (a) partitioning the engine's hot path — hash-grid
// update, coherency check, broker fan-out — into spatial shards driven
// from a thread pool scales ingest+dissemination throughput with cores
// (the single-threaded engine is the baseline); (b) batching amortizes
// queue locking and cell lookups, so bigger flush batches win even at a
// fixed shard count; (c) parallelism preserves determinism: summed
// per-shard EngineStats are byte-identical to the single-threaded
// engine fed the same input.

#include <benchmark/benchmark.h>

#include "bench_json.h"

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "core/engine.h"
#include "core/parallel_engine.h"
#include "core/sensors.h"

// --- allocation accounting ----------------------------------------------
//
// Replaces the binary's global new/delete with a counting malloc shim so
// BM_ShardRoutingAllocFree below can assert the routing hot path
// (ShardOf / ShardsCovering) performs zero heap allocations.  The
// counter is thread-local: shard worker threads allocating in other
// benchmarks never perturb the measuring thread's count.
namespace {
thread_local uint64_t g_thread_allocs = 0;
}  // namespace

// The replaced new and delete stay out of line: inlined, gcc would pair
// this malloc with a free() instead of with operator delete and warn
// (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
  ++g_thread_allocs;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept {
  ::operator delete(p);
}

namespace {

using namespace deluge;        // NOLINT
using namespace deluge::core;  // NOLINT

constexpr size_t kEntities = 20000;
constexpr size_t kWatchers = 64;
constexpr size_t kTicks = 20;  // pre-generated input, replayed cyclically

const geo::AABB kWorld({0, 0, 0}, {5000, 5000, 100});

EngineOptions BaseOptions() {
  EngineOptions opts;
  opts.world_bounds = kWorld;
  opts.default_contract = {2.0, kMicrosPerSecond};
  return opts;
}

/// The identical input every variant replays: kTicks sensor sweeps over
/// the same seeded fleet.
struct Workload {
  std::vector<Entity> entities;
  std::vector<std::vector<SensedUpdate>> batches;  // one per tick
};

const Workload& SharedWorkload() {
  static const Workload* w = [] {
    auto* out = new Workload();
    SensorFleetOptions fleet_opts;
    fleet_opts.num_entities = kEntities;
    fleet_opts.max_speed = 5.0;
    SensorFleet fleet(kWorld, fleet_opts);
    for (EntityId id = 1; id <= kEntities; ++id) {
      Entity e;
      e.id = id;
      e.position = fleet.TruePosition(id);
      out->entities.push_back(e);
    }
    Micros now = 0;
    for (size_t tick = 0; tick < kTicks; ++tick) {
      now += 100 * kMicrosPerMilli;
      std::vector<SensedUpdate> batch;
      for (const auto& r : fleet.Tick(100 * kMicrosPerMilli, now)) {
        batch.push_back({r.entity, r.position, r.t});
      }
      out->batches.push_back(std::move(batch));
    }
    return out;
  }();
  return *w;
}

/// A grid of regional watchers covering the world — the fan-out load.
/// Delivery volume is read off broker stats; the callback itself must
/// be thread-safe (shard tasks fire it concurrently), so it does no
/// shared-state work.
template <typename Engine>
void AddWatchers(Engine& engine) {
  size_t per_axis = 8;  // 8x8 = kWatchers regions
  double span_x = (kWorld.max.x - kWorld.min.x) / double(per_axis);
  double span_y = (kWorld.max.y - kWorld.min.y) / double(per_axis);
  for (size_t i = 0; i < kWatchers; ++i) {
    size_t gx = i % per_axis, gy = i / per_axis;
    geo::AABB region({kWorld.min.x + double(gx) * span_x,
                      kWorld.min.y + double(gy) * span_y, kWorld.min.z},
                     {kWorld.min.x + double(gx + 1) * span_x,
                      kWorld.min.y + double(gy + 1) * span_y, kWorld.max.z});
    engine.WatchRegion(net::NodeId(100 + i), region,
                       [](net::NodeId node, const pubsub::Event& event) {
                         benchmark::DoNotOptimize(node);
                         benchmark::DoNotOptimize(&event);
                       });
  }
}

// ---------------------------------------------------------------- baseline

void BM_SingleThreadIngestFanout(benchmark::State& state) {
  const Workload& w = SharedWorkload();
  SimClock clock;
  CoSpaceEngine engine(BaseOptions(), &clock);
  for (const Entity& e : w.entities) engine.SpawnPhysical(e);
  AddWatchers(engine);

  uint64_t updates = 0;
  size_t tick = 0;
  for (auto _ : state) {
    const auto& batch = w.batches[tick++ % w.batches.size()];
    for (const SensedUpdate& u : batch) {
      engine.IngestPhysicalPosition(u.id, u.position, u.t);
    }
    updates += batch.size();
  }
  state.SetItemsProcessed(int64_t(updates));
  state.counters["updates_per_s"] =
      benchmark::Counter(double(updates), benchmark::Counter::kIsRate);
  state.counters["mirrored_pct"] =
      100.0 * double(engine.stats().mirrored_updates) /
      double(std::max<uint64_t>(1, engine.stats().physical_updates));
  state.counters["deliveries"] = double(engine.broker().stats().deliveries);
}
BENCHMARK(BM_SingleThreadIngestFanout)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------- sharded

void BM_ShardedIngestFanout(benchmark::State& state) {
  const size_t shards = size_t(state.range(0));
  const Workload& w = SharedWorkload();
  SimClock clock;
  ThreadPool pool(shards);
  ParallelEngineOptions opts;
  opts.engine = BaseOptions();
  opts.num_shards = shards;
  ParallelEngine engine(opts, shards > 1 ? &pool : nullptr, &clock);
  for (const Entity& e : w.entities) engine.SpawnPhysical(e);
  AddWatchers(engine);

  uint64_t updates = 0;
  size_t tick = 0;
  for (auto _ : state) {
    const auto& batch = w.batches[tick++ % w.batches.size()];
    engine.IngestBatch(batch);
    updates += batch.size();
  }
  state.SetItemsProcessed(int64_t(updates));
  state.counters["shards"] = double(shards);
  state.counters["updates_per_s"] =
      benchmark::Counter(double(updates), benchmark::Counter::kIsRate);
  EngineStats stats = engine.TotalStats();
  state.counters["mirrored_pct"] =
      100.0 * double(stats.mirrored_updates) /
      double(std::max<uint64_t>(1, stats.physical_updates));
  state.counters["deliveries"] = double(engine.TotalBrokerStats().deliveries);
}
BENCHMARK(BM_ShardedIngestFanout)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// ------------------------------------------------------------- batching win

// Same shard count, same input — only the flush batch size varies.  The
// per-batch pipeline cost (task dispatch, lock acquisitions, outbox
// swaps) amortizes across the batch.
void BM_IngestBatchSize(benchmark::State& state) {
  const size_t batch_size = size_t(state.range(0));
  const Workload& w = SharedWorkload();
  SimClock clock;
  ThreadPool pool(4);
  ParallelEngineOptions opts;
  opts.engine = BaseOptions();
  opts.num_shards = 4;
  ParallelEngine engine(opts, &pool, &clock);
  for (const Entity& e : w.entities) engine.SpawnPhysical(e);

  uint64_t updates = 0;
  size_t tick = 0;
  for (auto _ : state) {
    const auto& batch = w.batches[tick++ % w.batches.size()];
    for (size_t off = 0; off < batch.size(); off += batch_size) {
      size_t len = std::min(batch_size, batch.size() - off);
      engine.IngestBatch(std::span<const SensedUpdate>(&batch[off], len));
    }
    updates += batch.size();
  }
  state.SetItemsProcessed(int64_t(updates));
  state.counters["batch"] = double(batch_size);
  state.counters["updates_per_s"] =
      benchmark::Counter(double(updates), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_IngestBatchSize)
    ->Arg(1)
    ->Arg(64)
    ->Arg(4096)
    ->Arg(20000)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// ------------------------------------------------------- alloc-free routing

// ShardOf runs once per ingested update and ShardsCovering once per
// watch registration; both must stay off the heap (results return into
// a caller-owned SmallVec).  The new/delete shim above counts this
// thread's allocations across a full sweep of both calls — any nonzero
// count fails the benchmark.
void BM_ShardRoutingAllocFree(benchmark::State& state) {
  const Workload& w = SharedWorkload();
  SpatialSharder sharder(kWorld, 25.0, 8);
  size_t per_axis = 8;
  double span_x = (kWorld.max.x - kWorld.min.x) / double(per_axis);
  double span_y = (kWorld.max.y - kWorld.min.y) / double(per_axis);

  uint64_t queries = 0;
  uint64_t allocs = 0;
  SpatialSharder::ShardList covering;
  for (auto _ : state) {
    const uint64_t before = g_thread_allocs;
    size_t acc = 0;
    for (const auto& batch : w.batches) {
      for (const SensedUpdate& u : batch) {
        acc += sharder.ShardOf(u.position);
        ++queries;
      }
    }
    for (size_t i = 0; i < kWatchers; ++i) {
      size_t gx = i % per_axis, gy = i / per_axis;
      geo::AABB region({kWorld.min.x + double(gx) * span_x,
                        kWorld.min.y + double(gy) * span_y, kWorld.min.z},
                       {kWorld.min.x + double(gx + 1) * span_x,
                        kWorld.min.y + double(gy + 1) * span_y, kWorld.max.z});
      covering.clear();
      sharder.ShardsCovering(region, &covering);
      acc += covering.size();
      ++queries;
    }
    benchmark::DoNotOptimize(acc);
    allocs += g_thread_allocs - before;
  }
  state.SetItemsProcessed(int64_t(queries));
  state.counters["allocs"] = double(allocs);
  if (allocs != 0) {
    state.SkipWithError("shard routing allocated on the hot path");
  }
}
BENCHMARK(BM_ShardRoutingAllocFree)->Unit(benchmark::kMillisecond);

// ------------------------------------------------------------- determinism

// The 4-shard engine and the single-threaded engine replay the same
// input; every EngineStats field must match byte-for-byte.
void BM_ShardedDeterminism(benchmark::State& state) {
  const Workload& w = SharedWorkload();
  bool stats_match = true;
  for (auto _ : state) {
    SimClock clock;
    CoSpaceEngine serial(BaseOptions(), &clock);
    ThreadPool pool(4);
    ParallelEngineOptions opts;
    opts.engine = BaseOptions();
    opts.num_shards = 4;
    ParallelEngine sharded(opts, &pool, &clock);
    for (const Entity& e : w.entities) {
      serial.SpawnPhysical(e);
      sharded.SpawnPhysical(e);
    }
    for (const auto& batch : w.batches) {
      for (const SensedUpdate& u : batch) {
        serial.IngestPhysicalPosition(u.id, u.position, u.t);
      }
      sharded.IngestBatch(batch);
    }
    EngineStats a = serial.stats();
    EngineStats b = sharded.TotalStats();
    stats_match = stats_match && a.physical_updates == b.physical_updates &&
                  a.mirrored_updates == b.mirrored_updates &&
                  a.suppressed_updates == b.suppressed_updates &&
                  a.virtual_commands == b.virtual_commands &&
                  a.relayed_commands == b.relayed_commands &&
                  a.events_published == b.events_published;
  }
  state.counters["stats_match"] = stats_match ? 1.0 : 0.0;
  if (!stats_match) state.SkipWithError("sharded EngineStats diverged");
}
BENCHMARK(BM_ShardedDeterminism)->Unit(benchmark::kMillisecond);

}  // namespace

DELUGE_BENCH_MAIN();
