// E21 — zero-copy event path: refcounted payload buffers + flat tuples.
//
// Measures the refactored path against the recorded pre-refactor
// baseline (EXPERIMENTS.md E21): queued fan-out hands every subscriber
// slot one shared EventRef, the wire path serialises once into a
// refcounted Buffer shared across subscribers and retries, and payload
// slabs recycle through the arena.
//
// Claims measured: (a) broker fan-out cost per delivery as subscriber
// count grows — per-subscriber cost is a refcount bump, not an Event
// deep copy; (b) allocations per delivery (operator-new override);
// (c) `buffer.bytes_copied` stays flat (zero on these paths) as the
// subscriber count grows; (d) wire-path materialisation cost via
// ReliableDeliverer; (e) raw Tuple copy cost (flat record vs the old
// hash map); (f) steady-state payload slab reuse.

#include <benchmark/benchmark.h>

#include "bench_json.h"

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "net/network.h"
#include "net/simulator.h"
#include "obs/metrics.h"
#include "pubsub/broker.h"
#include "pubsub/reliable.h"
#include "runtime/buffer_pool.h"

// ---------------------------------------------------------------- alloc hook
// Bench-local operator new/delete: counts every heap allocation in the
// process so "allocations per delivery" is a direct, honest measure.

static std::atomic<uint64_t> g_allocs{0};
static std::atomic<uint64_t> g_alloc_bytes{0};

// The replaced new and delete stay out of line: inlined, gcc would pair
// this malloc with a free() instead of with operator delete and warn
// (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept {
  ::operator delete(p);
}

namespace {

using namespace deluge;  // NOLINT

const geo::AABB kWorld({0, 0, 0}, {1000, 1000, 100});

deluge::obs::Counter* BytesCopiedCounter() {
  return obs::MetricsRegistry::Global().GetCounter("buffer.bytes_copied");
}

/// A realistic sensor event: numeric pose fields plus a ~160-byte
/// descriptor blob (the "media frame descriptor" class of payload).
pubsub::Event MakeSensorEvent() {
  pubsub::Event e;
  e.topic = "sensor.pose";
  e.position = geo::Vec3{500, 500, 10};
  e.qos = QosClass::kInteractive;
  e.payload.event_time = 12345;
  e.payload.key = "entity-000042";
  e.payload.Set("entity", int64_t(42));
  e.payload.Set("x", 500.0);
  e.payload.Set("y", 500.0);
  e.payload.Set("z", 10.0);
  e.payload.Set("blob", std::string(160, 'b'));
  return e;
}

// ---------------------------------------------------------------- fan-out

// One publish, N matching subscribers, queued delivery + drain — the
// dissemination hot loop.  The refactored path wraps the Event in one
// EventRef per publish; every queue slot shares it, so per-subscriber
// cost is a refcount bump and `bytes_copied` stays flat in N.
void BM_BrokerFanout(benchmark::State& state) {
  const size_t subs = size_t(state.range(0));
  uint64_t delivered = 0;
  pubsub::Broker broker(kWorld, 50.0,
                        [&](net::NodeId, const pubsub::Event& event) {
                          benchmark::DoNotOptimize(&event);
                          ++delivered;
                        });
  for (size_t i = 0; i < subs; ++i) {
    pubsub::Subscription s;
    s.subscriber = net::NodeId(i + 1);
    s.topic = "sensor.pose";
    broker.Subscribe(std::move(s));
  }
  broker.SetQueueLimit(4 * subs + 4);
  pubsub::Event event = MakeSensorEvent();

  uint64_t allocs0 = g_allocs.load(), bytes0 = g_alloc_bytes.load();
  uint64_t copied0 = BytesCopiedCounter()->Value();
  uint64_t events = 0;
  for (auto _ : state) {
    broker.Publish(event);
    broker.Drain();
    ++events;
  }
  uint64_t allocs = g_allocs.load() - allocs0;
  uint64_t bytes = g_alloc_bytes.load() - bytes0;
  uint64_t copied = BytesCopiedCounter()->Value() - copied0;

  state.SetItemsProcessed(int64_t(delivered));
  state.counters["subs"] = double(subs);
  state.counters["deliveries_per_s"] =
      benchmark::Counter(double(delivered), benchmark::Counter::kIsRate);
  state.counters["events_per_s"] =
      benchmark::Counter(double(events), benchmark::Counter::kIsRate);
  state.counters["allocs_per_delivery"] =
      double(allocs) / double(std::max<uint64_t>(1, delivered));
  state.counters["alloc_bytes_per_delivery"] =
      double(bytes) / double(std::max<uint64_t>(1, delivered));
  state.counters["bytes_copied_per_event"] =
      double(copied) / double(std::max<uint64_t>(1, events));
}
BENCHMARK(BM_BrokerFanout)->Arg(1)->Arg(8)->Arg(64);

// ---------------------------------------------------------------- wire path

// Publish-to-network materialisation: every delivery builds a fresh
// net::Message, but the payload is the event's cached wire Buffer —
// encoded once via EnsureEncoded and shared by refcount across all
// subscribers and any retries.
void BM_WireFanout(benchmark::State& state) {
  const size_t subs = size_t(state.range(0));
  net::Simulator sim;
  net::Network net(&sim);
  net::NodeId pub = net.AddNode([](const net::Message&) {});
  uint64_t delivered = 0;
  std::vector<net::NodeId> targets;
  for (size_t i = 0; i < subs; ++i) {
    targets.push_back(net.AddNode([&](const net::Message& m) {
      benchmark::DoNotOptimize(&m);
      ++delivered;
    }));
  }
  net.default_link().latency = 0;
  net.default_link().bandwidth_bytes_per_sec = 0;
  pubsub::ReliableDeliverer deliverer(&net);
  pubsub::Event event = MakeSensorEvent();

  uint64_t allocs0 = g_allocs.load();
  uint64_t copied0 = BytesCopiedCounter()->Value();
  uint64_t events = 0;
  for (auto _ : state) {
    for (net::NodeId to : targets) deliverer.Deliver(pub, to, event);
    sim.Run();
    ++events;
  }
  uint64_t allocs = g_allocs.load() - allocs0;
  uint64_t copied = BytesCopiedCounter()->Value() - copied0;

  state.SetItemsProcessed(int64_t(delivered));
  state.counters["subs"] = double(subs);
  state.counters["deliveries_per_s"] =
      benchmark::Counter(double(delivered), benchmark::Counter::kIsRate);
  state.counters["allocs_per_delivery"] =
      double(allocs) / double(std::max<uint64_t>(1, delivered));
  state.counters["bytes_copied_per_event"] =
      double(copied) / double(std::max<uint64_t>(1, events));
}
BENCHMARK(BM_WireFanout)->Arg(64);

// ---------------------------------------------------------------- tuple copy

// Raw cost of copying the payload record: the flat inline-vector Tuple
// copies as one contiguous block (plus its string values) instead of
// rehashing an unordered_map.
void BM_TupleCopy(benchmark::State& state) {
  pubsub::Event event = MakeSensorEvent();
  for (auto _ : state) {
    stream::Tuple copy = event.payload;
    benchmark::DoNotOptimize(&copy);
  }
  state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_TupleCopy);

// ---------------------------------------------------------------- slab reuse

// Steady-state payload allocation through the arena: each iteration
// copies a payload into a slab and drops it; after warm-up every
// allocation is served from the free list, so the event path stops
// touching the heap.
void BM_PayloadSlabReuse(benchmark::State& state) {
  const std::string payload_bytes(400, 'p');
  common::BufferArena& arena = runtime::BufferPool::payload_arena();
  // Warm the free list so the loop measures the steady state.
  { common::Buffer warm = runtime::BufferPool::AllocatePayload(payload_bytes); }
  uint64_t reused0 = arena.slabs_reused();
  uint64_t allocs0 = g_allocs.load();
  for (auto _ : state) {
    common::Buffer b = runtime::BufferPool::AllocatePayload(payload_bytes);
    benchmark::DoNotOptimize(&b);
  }
  state.SetItemsProcessed(int64_t(state.iterations()));
  state.counters["slab_reuse_ratio"] =
      double(arena.slabs_reused() - reused0) / double(state.iterations());
  state.counters["allocs_per_iter"] =
      double(g_allocs.load() - allocs0) / double(state.iterations());
}
BENCHMARK(BM_PayloadSlabReuse);

}  // namespace

DELUGE_BENCH_MAIN();
