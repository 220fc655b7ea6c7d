// crowd_fanout: closed-loop game-server ticks through the sharded engine.
//
// A seeded sensor fleet (20k entities, random-waypoint motion, GPS noise)
// produces one sensed update per entity per tick; each tick goes to
// `core::ParallelEngine::IngestBatch` (8 shards over a 2-worker pool plus
// the calling thread: 3 threads, leaving one core to the OS; more shards
// than threads lets the pool's claim loop level stragglers).  64 regional
// watchers tile the world and receive the mirror deliveries.  Tick
// timestamps advance by 100 ms of virtual time forever, so coherency sees a
// live stream, never a replay.  Nothing leaves the process.
//
// Audit: every watcher's delivery count and order-free content hash must
// equal a serial `core::CoSpaceEngine` replay of the same seeded input.
//
// Histograms: h[0] update → watcher callback (ns from the IngestBatch call),
// h[1] IngestBatch duration, h[2] callback body (traced phase).

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "common/thread_pool.h"
#include "core/engine.h"
#include "core/parallel_engine.h"
#include "core/sensors.h"

namespace perfbench {
namespace {

using namespace deluge;        // NOLINT
using namespace deluge::core;  // NOLINT

constexpr Micros kTickUs = 100 * kMicrosPerMilli;
constexpr size_t kShards = 8;
constexpr size_t kPoolThreads = 2;  // + the calling thread
constexpr int kSetups = 3;
constexpr int kWarmupTicks = 5;
constexpr uint64_t kSpanEveryTicks = 8;
enum : size_t { kCallbackNs = 0, kTickNs = 1, kBodyNs = 2 };

const geo::AABB kWorld({0, 0, 0}, {5000, 5000, 100});

EngineOptions BaseOptions() {
  EngineOptions opts;
  opts.world_bounds = kWorld;
  opts.default_contract = {2.0, kMicrosPerSecond};
  return opts;
}

std::vector<geo::AABB> WatchRegions(size_t per_axis) {
  std::vector<geo::AABB> out;
  const double sx = (kWorld.max.x - kWorld.min.x) / double(per_axis);
  const double sy = (kWorld.max.y - kWorld.min.y) / double(per_axis);
  for (size_t gy = 0; gy < per_axis; ++gy) {
    for (size_t gx = 0; gx < per_axis; ++gx) {
      out.push_back(geo::AABB(
          {kWorld.min.x + double(gx) * sx, kWorld.min.y + double(gy) * sy,
           kWorld.min.z},
          {kWorld.min.x + double(gx + 1) * sx,
           kWorld.min.y + double(gy + 1) * sy, kWorld.max.z}));
    }
  }
  return out;
}

/// The seeded input: one sweep of the fleet per tick, timestamps always
/// advancing.  Two feeds built from one seed yield identical ticks.
class Feed {
 public:
  Feed(uint64_t seed, size_t entities) : fleet_(kWorld, Options(seed, entities)) {}

  std::vector<Entity> Spawn() const {
    std::vector<Entity> out;
    for (size_t i = 0; i < fleet_.size(); ++i) {
      Entity e;
      e.id = EntityId(i + 1);
      e.position = fleet_.TruePosition(e.id);
      out.push_back(e);
    }
    return out;
  }

  void Next(std::vector<SensedUpdate>* batch) {
    now_ += kTickUs;
    batch->clear();
    for (const SensorReading& r : fleet_.Tick(kTickUs, now_)) {
      batch->push_back({r.entity, r.position, r.t, QosClass::kRealtime});
    }
  }

 private:
  static SensorFleetOptions Options(uint64_t seed, size_t entities) {
    SensorFleetOptions o;
    o.num_entities = entities;
    o.max_speed = 5.0;
    o.seed = seed;
    return o;
  }
  SensorFleet fleet_;
  Micros now_ = 0;
};

uint64_t HashOf(const pubsub::Event& ev) {
  const uint64_t entity = std::strtoull(ev.payload.key.c_str(), nullptr, 10);
  const geo::Vec3 p = ev.position.value_or(geo::Vec3{});
  return DeliveryHash(entity, ev.published_at, p.x, p.y);
}

/// One set-up engine with its watchers and recording state.
struct Crowd {
  Crowd(uint64_t seed, size_t entities, size_t per_axis)
      : feed(seed, entities), regions(WatchRegions(per_axis)) {
    ParallelEngineOptions opts;
    opts.engine = BaseOptions();
    opts.num_shards = kShards;
    engine = std::make_unique<ParallelEngine>(opts, &pool, &clock);
    for (const Entity& e : feed.Spawn()) engine->SpawnPhysical(e);
    for (size_t i = 0; i < regions.size(); ++i) {
      engine->WatchRegion(net::NodeId(100 + i), regions[i],
                          [this, i](net::NodeId, const pubsub::Event& ev) {
                            OnDelivery(i, ev);
                          });
    }
  }

  void OnDelivery(size_t watcher, const pubsub::Event& ev) {
    const int64_t t0 = NowNs();
    Slot& s = slots.load(std::memory_order_relaxed)->Local();
    s.h[kCallbackNs].Record(t0 - batch_start_ns.load(std::memory_order_relaxed));
    // Planted fault.  Loaded before the exchange so the shared flag's
    // cache line is only ever read on the unfaulted path.
    if (drop_one.load(std::memory_order_relaxed) &&
        drop_one.exchange(false, std::memory_order_relaxed)) {
      return;
    }
    s.counts[watcher] += 1;
    s.sums[watcher] += HashOf(ev);
    if (tracing) {
      const int64_t t1 = NowNs();
      s.h[kBodyNs].Record(t1 - t0);
      const uint64_t parent = batch_span.load(std::memory_order_relaxed);
      if (parent != 0) {
        s.spans.push_back({tick, NextSpanId(), parent, "pubsub",
                           "watcher_callback", t0, t1});
      }
    }
  }

  /// One tick: generate, then ingest.  Returns the IngestBatch ns.
  int64_t Tick(bool record_spans) {
    const int64_t g0 = NowNs();
    feed.Next(&batch);
    const int64_t g1 = NowNs();
    uint64_t ingest_id = 0;
    if (record_spans) ingest_id = NextSpanId();
    batch_span.store(ingest_id, std::memory_order_relaxed);
    batch_start_ns.store(g1, std::memory_order_relaxed);
    engine->IngestBatch(batch);
    const int64_t g2 = NowNs();
    Slot& mine = slots.load(std::memory_order_relaxed)->Local();
    mine.h[kTickNs].Record(g2 - g1);
    mine.ops += batch.size();
    if (record_spans) {
      std::vector<SpanRec>& spans = mine.spans;
      const uint64_t root = NextSpanId();
      spans.push_back({tick, root, 0, "", "tick", g0, g2});
      spans.push_back({tick, NextSpanId(), root, "driver", "generate", g0, g1});
      spans.push_back({tick, ingest_id, root, "core", "IngestBatch", g1, g2});
    }
    ++tick;
    updates += batch.size();
    return g2 - g1;
  }

  // Declaration order: the pool outlives the engine that borrows it.
  ThreadPool pool{kPoolThreads};
  SimClock clock;
  Feed feed;
  std::vector<geo::AABB> regions;
  std::unique_ptr<ParallelEngine> engine;
  std::vector<SensedUpdate> batch;

  Slots warm{regions.size()};
  std::atomic<Slots*> slots{&warm};
  std::atomic<int64_t> batch_start_ns{0};
  std::atomic<uint64_t> batch_span{0};
  std::atomic<bool> drop_one{false};
  bool tracing = false;
  uint64_t tick = 0;
  uint64_t updates = 0;
};

struct Replay {
  std::vector<uint64_t> counts, sums;
  double seconds = 0.0;  // ingest time only
};

/// The oracle: the same seeded ticks through the serial engine.
Replay SerialReplay(uint64_t seed, size_t entities, size_t per_axis,
                    uint64_t ticks) {
  SimClock clock;
  CoSpaceEngine serial(BaseOptions(), &clock);
  Feed feed(seed, entities);
  for (const Entity& e : feed.Spawn()) serial.SpawnPhysical(e);
  const std::vector<geo::AABB> regions = WatchRegions(per_axis);
  Replay out;
  out.counts.assign(regions.size(), 0);
  out.sums.assign(regions.size(), 0);
  for (size_t i = 0; i < regions.size(); ++i) {
    serial.WatchRegion(net::NodeId(100 + i), regions[i],
                       [&out, i](net::NodeId, const pubsub::Event& ev) {
                         out.counts[i] += 1;
                         out.sums[i] += HashOf(ev);
                       });
  }
  std::vector<SensedUpdate> batch;
  int64_t busy = 0;
  for (uint64_t t = 0; t < ticks; ++t) {
    feed.Next(&batch);
    const int64_t t0 = NowNs();
    for (const SensedUpdate& u : batch) {
      serial.IngestPhysicalPosition(u.id, u.position, u.t, u.qos);
    }
    busy += NowNs() - t0;
  }
  out.seconds = double(busy) / 1e9;
  return out;
}

}  // namespace

int RunCrowdFanout(const Args& args, Result* out) {
  const size_t entities = args.smoke ? 2000 : 20000;
  const size_t per_axis = args.smoke ? 4 : 8;
  const size_t watchers = per_axis * per_axis;

  // Set-up (entity spawn, watch registration, pool start, warm-up ticks)
  // is repeated and its median reported; the last one is measured.
  std::vector<double> setup_s;
  std::unique_ptr<Crowd> c;
  for (int i = 0; i < kSetups; ++i) {
    c.reset();
    const int64_t t0 = NowNs();
    c = std::make_unique<Crowd>(args.seed, entities, per_axis);
    for (int w = 0; w < kWarmupTicks; ++w) c->Tick(false);
    setup_s.push_back(double(NowNs() - t0) / 1e9);
  }

  // Timed phase.  A traced run spends its first half untraced (the
  // overhead baseline) and its second half recording spans.
  const int64_t start = NowNs();
  const int64_t end = start + int64_t(args.seconds * 1e9);
  const int64_t mid = args.trace ? start + (end - start) / 2 : end;
  Windows wa(start, mid, watchers);
  Windows wb(mid, end, watchers);
  if (args.fault == "drop_delivery") c->drop_one.store(true);
  for (int64_t now = NowNs(); now < mid; now = NowNs()) {
    wa.SampleSteal(now);
    c->slots.store(&wa.At(now));
    c->Tick(false);
  }
  wa.SampleSteal(NowNs());
  const int threads = ThreadCount();
  const EngineStats stats_mid = c->engine->TotalStats();
  const pubsub::BrokerStats broker_mid = c->engine->TotalBrokerStats();
  const double cpu_mid = CpuSeconds();
  const int64_t t_mid = NowNs();
  if (args.trace) {
    c->tracing = true;
    uint64_t n = 0;
    for (int64_t now = NowNs(); now < end; now = NowNs()) {
      wb.SampleSteal(now);
      c->slots.store(&wb.At(now));
      c->Tick(n++ % kSpanEveryTicks == 0);
    }
    wb.SampleSteal(NowNs());
  }
  const double cpu_end = CpuSeconds();
  const int64_t t_end = NowNs();
  const EngineStats stats_end = c->engine->TotalStats();
  const pubsub::BrokerStats broker_end = c->engine->TotalBrokerStats();

  // Audit against the serial oracle (every tick fed to the measured
  // engine, warm-up included).
  const Slot a = wa.All();
  const Slot b = wb.All();
  const Slot w = c->warm.Merged();
  std::vector<uint64_t> counts(watchers, 0), sums(watchers, 0);
  for (const Slot* s : {&a, &b, &w}) {
    for (size_t k = 0; k < watchers; ++k) {
      counts[k] += s->counts[k];
      sums[k] += s->sums[k];
    }
  }
  const Replay replay = SerialReplay(args.seed, entities, per_axis, c->tick);
  uint64_t bad_watchers = 0, deliveries = 0;
  for (size_t k = 0; k < watchers; ++k) {
    deliveries += counts[k];
    if (counts[k] != replay.counts[k] || sums[k] != replay.sums[k]) {
      ++bad_watchers;
    }
  }
  out->attempted = a.ops + b.ops;
  if (bad_watchers > 0) {
    out->Fail(std::to_string(bad_watchers) +
                  " watchers differ from the serial replay",
              bad_watchers);
  }
  const double replay_rate = double(c->updates) / replay.seconds;

  // End-to-end figures: medians over the untraced windows.  Throughput
  // counts engine time (the driver's own input generation is excluded).
  const auto rate = [](const Slot& s) {
    return s.h[kTickNs].count() == 0 ? -1.0
                                     : double(s.ops) / (s.h[kTickNs].sum() / 1e9);
  };
  const auto pct = [](size_t h, double p) {
    return [h, p](const Slot& s) {
      return s.h[h].count() == 0 ? -1.0 : s.h[h].Percentile(p) / 1e3;
    };
  };
  const double rate_a = wa.Median(rate);
  out->E2e("setup_s", Median(setup_s), "s");
  out->E2e("peak_rss_mb", PeakRssMb(), "MB");
  out->Layer("e2e.ops_per_s", rate_a, "1/s");
  out->E2e("latency_p50_us", wa.Median(pct(kCallbackNs, 50)), "us");
  out->Layer("e2e.latency_p99_us", wa.Median(pct(kCallbackNs, 99)), "us");
  out->Layer("e2e.secondary_p50_us", wa.Median(pct(kTickNs, 50)), "us");
  out->Layer("e2e.secondary_p99_us", wa.Median(pct(kTickNs, 99)), "us");
  out->Detail("updates_per_s", rate_a, "1/s");
  out->Detail("callback_p50_us", wa.Median(pct(kCallbackNs, 50)), "us");
  out->Detail("callback_p99_us", wa.Median(pct(kCallbackNs, 99)), "us");
  out->Detail("callback_samples", double(a.h[kCallbackNs].count()), "count");
  out->Detail("tick_p50_us", wa.Median(pct(kTickNs, 50)), "us");
  out->Detail("tick_p99_us", wa.Median(pct(kTickNs, 99)), "us");
  out->Detail("tick_samples", double(a.h[kTickNs].count()), "count");
  out->Detail("whole_phase.updates_per_s", rate(a), "1/s");
  out->Detail("whole_phase.callback_p99_us",
              a.h[kCallbackNs].Percentile(99) / 1e3, "us");
  out->Detail("windows", double(wa.size()), "count");
  out->Detail("steal_ticks", double(wa.steal_ticks()), "count");
  out->Detail("entities", double(entities), "count");
  out->Detail("watchers", double(watchers), "count");
  out->Detail("deliveries_audited", double(deliveries), "count");
  out->Detail("driver_threads", double(threads), "count");

  if (args.trace) {
    const double wall_b = double(t_end - t_mid) / 1e9;
    const uint64_t phys = stats_end.physical_updates - stats_mid.physical_updates;
    const uint64_t mirrored =
        stats_end.mirrored_updates - stats_mid.mirrored_updates;
    const uint64_t deliv = broker_end.deliveries - broker_mid.deliveries;
    const uint64_t cand =
        broker_end.candidates_checked - broker_mid.candidates_checked;
    out->Layer("core.ingest_batch_us.p50", wb.Median(pct(kTickNs, 50)), "us");
    out->Layer("core.ingest_batch_us.p99", wb.Median(pct(kTickNs, 99)), "us");
    out->Layer("core.ingest_ns_per_update",
               b.h[kTickNs].sum() / double(std::max<uint64_t>(1, b.ops)), "ns");
    out->Layer("core.cpu_util",
               (cpu_end - cpu_mid) / (wall_b * double(kPoolThreads + 1)),
               "ratio");
    out->Layer("core.serial_updates_per_s", replay_rate, "1/s");
    out->Layer("core.shard_speedup", wb.Median(rate) / replay_rate, "ratio");
    out->Layer("consistency.mirror_ratio",
               double(mirrored) / double(std::max<uint64_t>(1, phys)), "ratio");
    out->Layer("pubsub.deliveries_per_update",
               double(deliv) / double(std::max<uint64_t>(1, phys)), "ratio");
    out->Layer("pubsub.candidates_per_delivery",
               double(cand) / double(std::max<uint64_t>(1, deliv)), "ratio");
    out->Layer("pubsub.callback_ns", b.h[kBodyNs].mean(), "ns");
    out->Layer("driver.threads", double(threads), "count");
    out->Layer("trace.overhead_ratio",
               wb.Median(pct(kCallbackNs, 50)) /
                   std::max(1e-9, wa.Median(pct(kCallbackNs, 50))),
               "ratio");
    ReportSelfTimes(b.spans, {}, 0.0, out);
    const std::string path = args.work_dir + "/crowd_fanout.spans.jsonl";
    if (DumpSpans(path, b.spans)) out->notes.push_back("spans: " + path);
  }
  return 0;
}

}  // namespace perfbench
