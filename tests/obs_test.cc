// Tests for the unified observability layer (src/obs): registry
// interning, striped counters, gauges, concurrent histograms,
// StatsScope retirement, and the tracing spine.  Suite names contain
// "Obs" so the CI TSan job's --gtest_filter picks them up — several of
// these tests are race regressions, not just behavior pins.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace deluge::obs {
namespace {

// ------------------------------------------------------------ interning

TEST(ObsRegistryTest, LabelPermutationsInternToOneMetric) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("hits", {{"shard", "3"}, {"zone", "eu"}});
  Counter* b = reg.GetCounter("hits", {{"zone", "eu"}, {"shard", "3"}});
  EXPECT_EQ(a, b);
  EXPECT_EQ(reg.size(), 1u);

  // Different labels (or none) are different metrics.
  Counter* c = reg.GetCounter("hits", {{"shard", "4"}, {"zone", "eu"}});
  Counter* d = reg.GetCounter("hits");
  EXPECT_NE(a, c);
  EXPECT_NE(a, d);
  EXPECT_EQ(reg.size(), 3u);
}

TEST(ObsRegistryTest, CanonicalKeySortsLabels) {
  EXPECT_EQ(MetricsRegistry::CanonicalKey(
                "m", {{"b", "2"}, {"a", "1"}}),
            "m{a=1,b=2}");
  EXPECT_EQ(MetricsRegistry::CanonicalKey("m", {}), "m");
}

TEST(ObsRegistryTest, HandlesAreStableAcrossRehash) {
  MetricsRegistry reg;
  Counter* first = reg.GetCounter("stable");
  first->Add(7);
  // Force the registry's map through growth/rehash.
  for (int i = 0; i < 200; ++i) {
    reg.GetCounter("filler", {{"i", std::to_string(i)}});
  }
  EXPECT_EQ(reg.GetCounter("stable"), first);
  EXPECT_EQ(first->Value(), 7u);
}

// ------------------------------------------------------------- primitives

TEST(ObsCounterTest, StripedAddsSumExactly) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c.Add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.Value(), kThreads * kPerThread);
}

TEST(ObsGaugeTest, AggModes) {
  Gauge sum(Gauge::Agg::kSum);
  sum.Add(1.5);
  sum.Add(2.5);
  EXPECT_DOUBLE_EQ(sum.Value(), 4.0);

  Gauge max(Gauge::Agg::kMax);
  max.UpdateMax(3.0);
  max.UpdateMax(1.0);  // must not regress
  EXPECT_DOUBLE_EQ(max.Value(), 3.0);

  Gauge last(Gauge::Agg::kLast);
  last.Set(9.0);
  last.Set(2.0);
  EXPECT_DOUBLE_EQ(last.Value(), 2.0);
}

TEST(ObsHistogramTest, ConcurrentMatchesPlainSingleThreaded) {
  ConcurrentHistogram ch;
  Histogram plain;
  for (int64_t v = 0; v < 1000; ++v) {
    ch.Record(v);
    plain.Record(v);
  }
  Histogram snap = ch.Snapshot();
  EXPECT_EQ(snap.count(), plain.count());
  EXPECT_DOUBLE_EQ(snap.mean(), plain.mean());
  EXPECT_EQ(snap.min(), plain.min());
  EXPECT_EQ(snap.max(), plain.max());
  EXPECT_DOUBLE_EQ(snap.P99(), plain.P99());
}

// Satellite regression: ThreadPool workers all recording into one
// shared ConcurrentHistogram — the exact shape of the priority
// scheduler / txn coordinator / stream scheduler delivery paths.  Under
// TSan this pins that the per-stripe locking really covers the
// worker-thread writes (a plain common::Histogram here is a data race).
TEST(ObsHistogramTest, ThreadPoolWorkersRecordSharedHistogram) {
  ConcurrentHistogram hist;
  Counter delivered;
  ThreadPool pool(4);
  constexpr int kTasks = 2000;
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&hist, &delivered, i] {
      hist.Record(i % 512);
      delivered.Add(1);
    });
  }
  pool.Wait();
  EXPECT_EQ(hist.Count(), uint64_t(kTasks));
  EXPECT_EQ(delivered.Value(), uint64_t(kTasks));
  Histogram snap = hist.Snapshot();
  EXPECT_EQ(snap.count(), uint64_t(kTasks));
  EXPECT_LE(snap.max(), 511);
}

// --------------------------------------------------------------- snapshot

TEST(ObsRegistryTest, SnapshotExportsEveryKindSorted) {
  MetricsRegistry reg;
  reg.GetCounter("a.counter")->Add(5);
  reg.GetGauge("b.gauge")->Set(2.5);
  ConcurrentHistogram* h = reg.GetHistogram("c.hist");
  h->Record(10);
  h->Record(30);

  std::vector<MetricSample> snap = reg.Snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].Key(), "a.counter");
  EXPECT_EQ(snap[0].kind, MetricKind::kCounter);
  EXPECT_DOUBLE_EQ(snap[0].value, 5.0);
  EXPECT_EQ(snap[1].Key(), "b.gauge");
  EXPECT_DOUBLE_EQ(snap[1].value, 2.5);
  EXPECT_EQ(snap[2].Key(), "c.hist");
  EXPECT_EQ(snap[2].kind, MetricKind::kHistogram);
  EXPECT_DOUBLE_EQ(snap[2].value, 2.0);  // observation count
  EXPECT_EQ(snap[2].hist.count(), 2u);
  EXPECT_EQ(snap[2].hist.max(), 30);
}

// Registration, recording, and snapshotting racing from different
// threads (the TSan meat): new metrics intern while existing handles
// record and a reader snapshots.  Snapshot values must never exceed
// what was written.
TEST(ObsRegistryTest, ConcurrentRegistrationRecordingAndSnapshot) {
  MetricsRegistry reg;
  Counter* shared = reg.GetCounter("race.shared");
  constexpr int kWriters = 4;
  constexpr uint64_t kPerWriter = 5000;
  std::atomic<bool> stop{false};

  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&reg, shared, t] {
      for (uint64_t i = 0; i < kPerWriter; ++i) {
        shared->Add(1);
        if (i % 64 == 0) {
          // Interleave fresh registrations with hot-path recording.
          reg.GetCounter("race.churn",
                         {{"writer", std::to_string(t)},
                          {"i", std::to_string(i)}})
              ->Add(1);
        }
      }
    });
  }
  std::thread reader([&reg, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (const MetricSample& s : reg.Snapshot()) {
        if (s.name == "race.shared") {
          EXPECT_LE(s.value, double(kWriters * kPerWriter));
        }
      }
    }
  });
  for (auto& t : threads) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(shared->Value(), kWriters * kPerWriter);
}

// ------------------------------------------------------------- StatsScope

TEST(ObsScopeTest, RetirementFoldsIntoInstanceAll) {
  MetricsRegistry reg;
  {
    StatsScope scope("demo", {{"shard", "0"}}, &reg);
    scope.counter("events")->Add(5);
    scope.gauge("high_water", Gauge::Agg::kMax)->UpdateMax(7.0);
    scope.histogram("latency_us")->Record(100);
  }
  {
    StatsScope scope("demo", {{"shard", "1"}}, &reg);
    scope.counter("events")->Add(3);
    scope.gauge("high_water", Gauge::Agg::kMax)->UpdateMax(4.0);
    scope.histogram("latency_us")->Record(300);
  }
  // Both instances retired: only aggregates remain, and cardinality is
  // bounded by metric families, not by how many instances ever lived.
  // (shard labels differ, so each family keeps one entry per shard.)
  std::vector<MetricSample> snap = reg.Snapshot();
  double events_total = 0.0;
  double high_water = 0.0;
  uint64_t latency_count = 0;
  for (const MetricSample& s : snap) {
    bool is_all = false;
    for (const auto& [k, v] : s.labels) {
      if (k == "instance") {
        EXPECT_EQ(v, "all") << s.Key();
        is_all = true;
      }
    }
    EXPECT_TRUE(is_all) << "live per-instance entry survived: " << s.Key();
    if (s.name == "demo.events") events_total += s.value;
    if (s.name == "demo.high_water") {
      high_water = std::max(high_water, s.value);
    }
    if (s.name == "demo.latency_us") latency_count += s.hist.count();
  }
  EXPECT_DOUBLE_EQ(events_total, 8.0);
  EXPECT_DOUBLE_EQ(high_water, 7.0);
  EXPECT_EQ(latency_count, 2u);
}

TEST(ObsScopeTest, SameLabelsAccumulateAcrossInstanceGenerations) {
  // Two generations of the "same" instance (equal extra labels): the
  // aggregate keeps accumulating, so restarts don't lose history.
  MetricsRegistry reg;
  for (int gen = 0; gen < 3; ++gen) {
    StatsScope scope("svc", {}, &reg);
    scope.counter("requests")->Add(10);
  }
  std::vector<MetricSample> snap = reg.Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_DOUBLE_EQ(snap[0].value, 30.0);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(ObsScopeTest, ScopeStampsSubsystemAndInstanceLabels) {
  MetricsRegistry reg;
  StatsScope scope("sub", {{"shard", "2"}}, &reg);
  scope.counter("n")->Add(1);
  std::vector<MetricSample> snap = reg.Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].name, "sub.n");
  bool has_subsystem = false, has_instance = false, has_shard = false;
  for (const auto& [k, v] : snap[0].labels) {
    if (k == "subsystem" && v == "sub") has_subsystem = true;
    if (k == "instance") has_instance = true;
    if (k == "shard" && v == "2") has_shard = true;
  }
  EXPECT_TRUE(has_subsystem);
  EXPECT_TRUE(has_instance);
  EXPECT_TRUE(has_shard);
}

// -------------------------------------------------------------- StatsView

struct DemoMetrics {
  uint64_t events = 0;
  double bytes = 0.0;
  uint64_t high_water = 0;
  Histogram latency;
};

// One instance of a subsystem whose stats are read through a view.
struct DemoInstance {
  explicit DemoInstance(MetricsRegistry* reg)
      : scope("demo", {}, reg), view(scope) {}
  StatsScope scope;
  StatsView<DemoMetrics> view;
  Counter* events = view.counter("events", &DemoMetrics::events);
  Gauge* bytes = view.gauge("bytes", &DemoMetrics::bytes);
  Gauge* high_water =
      view.gauge("high_water", &DemoMetrics::high_water, Gauge::Agg::kMax);
  ConcurrentHistogram* latency =
      view.histogram("latency_us", &DemoMetrics::latency);

  void Record(uint64_t n, double b, double hw, int64_t us) {
    events->Add(n);
    bytes->Add(b);
    high_water->UpdateMax(hw);
    latency->Record(us);
  }
};

TEST(ObsStatsViewTest, ReadReturnsThisInstancesValues) {
  MetricsRegistry reg;
  DemoInstance a(&reg);
  DemoInstance b(&reg);
  a.Record(5, 1.5, 7.0, 100);
  b.Record(3, 2.0, 4.0, 300);
  // The view registers through the scope: same metric, same handle.
  EXPECT_EQ(a.events, reg.GetCounter("demo.events", a.scope.labels()));
  DemoMetrics s = a.view.Read();
  EXPECT_EQ(s.events, 5u);
  EXPECT_DOUBLE_EQ(s.bytes, 1.5);
  EXPECT_EQ(s.high_water, 7u);
  EXPECT_EQ(s.latency.count(), 1u);
  EXPECT_EQ(s.latency.max(), 100);
  EXPECT_EQ(b.view.Read().events, 3u);
}

// Engine totals fold per-shard views with `AddTo`; the export folds
// retired scopes into instance=all.  Both must give the same numbers.
TEST(ObsStatsViewTest, AddToFoldsLikeScopeRetirement) {
  MetricsRegistry reg;
  DemoMetrics total;
  {
    DemoInstance a(&reg);
    DemoInstance b(&reg);
    a.Record(5, 1.5, 7.0, 100);
    b.Record(3, 2.0, 4.0, 300);
    a.view.AddTo(&total);
    b.view.AddTo(&total);
  }
  EXPECT_EQ(total.events, 8u);
  EXPECT_EQ(total.high_water, 7u);
  // Sorted by key: bytes, events, high_water, latency_us.
  std::vector<MetricSample> snap = reg.Snapshot();
  ASSERT_EQ(snap.size(), 4u);
  for (const MetricSample& s : snap) {
    EXPECT_NE(s.Key().find("instance=all"), std::string::npos) << s.Key();
  }
  EXPECT_DOUBLE_EQ(snap[0].value, total.bytes);
  EXPECT_DOUBLE_EQ(snap[1].value, double(total.events));
  EXPECT_DOUBLE_EQ(snap[2].value, double(total.high_water));
  EXPECT_EQ(snap[3].hist.ToString(), total.latency.ToString());
}

TEST(ObsStatsViewTest, ExtraLabelsKeepViewsOnOneScopeApart) {
  MetricsRegistry reg;
  StatsScope scope("demo", {}, &reg);
  StatsView<DemoMetrics> red(scope, {{"color", "red"}});
  StatsView<DemoMetrics> blue(scope, {{"color", "blue"}});
  red.counter("events", &DemoMetrics::events)->Add(2);
  blue.counter("events", &DemoMetrics::events)->Add(9);
  EXPECT_EQ(red.Read().events, 2u);
  EXPECT_EQ(blue.Read().events, 9u);
  EXPECT_EQ(reg.size(), 2u);
}

// ---------------------------------------------------------------- tracing

TEST(ObsTraceTest, DisabledSpansRecordNothing) {
  Tracer& tracer = Tracer::Global();
  tracer.Disable();
  tracer.Drain();
  {
    Span root("test.root");
    Span child("test.child");
    EXPECT_FALSE(root.sampled());
    EXPECT_FALSE(child.sampled());
  }
  EXPECT_EQ(tracer.recorded(), 0u);
}

TEST(ObsTraceTest, ParentChildStitching) {
  Tracer& tracer = Tracer::Global();
  tracer.Drain();
  tracer.Enable(1);  // sample every trace
  {
    Span root("test.ingest");
    {
      Span child1("test.fusion");
    }
    {
      Span child2("test.broker");
      Span grandchild("test.storage");
    }
  }
  tracer.Disable();
  std::vector<SpanRecord> spans = tracer.Drain();
  ASSERT_EQ(spans.size(), 4u);

  auto find = [&spans](const std::string& name) -> const SpanRecord& {
    for (const SpanRecord& s : spans) {
      if (s.name == name) return s;
    }
    ADD_FAILURE() << "span not recorded: " << name;
    return spans[0];
  };
  const SpanRecord& root = find("test.ingest");
  const SpanRecord& fusion = find("test.fusion");
  const SpanRecord& broker = find("test.broker");
  const SpanRecord& storage = find("test.storage");

  EXPECT_EQ(root.parent_id, 0u);
  for (const SpanRecord* s : {&fusion, &broker, &storage}) {
    EXPECT_EQ(s->trace_id, root.trace_id);
  }
  EXPECT_EQ(fusion.parent_id, root.span_id);
  EXPECT_EQ(broker.parent_id, root.span_id);
  EXPECT_EQ(storage.parent_id, broker.span_id);
  EXPECT_GE(root.dur_us, broker.dur_us);
}

TEST(ObsTraceTest, SamplesExactlyOneInN) {
  Tracer& tracer = Tracer::Global();
  tracer.Drain();
  tracer.Enable(2);
  for (int i = 0; i < 10; ++i) {
    Span root("test.sampled");
  }
  tracer.Disable();
  // Trace ids are consecutive, so exactly half of 10 roots sample.
  EXPECT_EQ(tracer.Drain().size(), 5u);
}

TEST(ObsTraceTest, BoundedBufferCountsDrops) {
  Tracer& tracer = Tracer::Global();
  tracer.Drain();
  uint64_t dropped_before = tracer.dropped();
  tracer.Enable(1, /*max_records=*/2);
  for (int i = 0; i < 5; ++i) {
    Span root("test.drop");
  }
  tracer.Disable();
  EXPECT_EQ(tracer.Drain().size(), 2u);
  EXPECT_EQ(tracer.dropped() - dropped_before, 3u);
}

TEST(ObsTraceTest, ScopedTimerRecordsOnce) {
  ConcurrentHistogram hist;
  {
    ScopedTimer timer(&hist);
  }
  EXPECT_EQ(hist.Count(), 1u);
  EXPECT_GE(hist.Snapshot().min(), 0);
  {
    ScopedTimer noop(nullptr);  // must be a safe no-op
  }
  EXPECT_EQ(hist.Count(), 1u);
}

}  // namespace
}  // namespace deluge::obs
