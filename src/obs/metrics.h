#ifndef DELUGE_OBS_METRICS_H_
#define DELUGE_OBS_METRICS_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/histogram.h"

namespace deluge::obs {

/// A label set: unordered (key, value) pairs such as
/// {subsystem=broker, shard=3, topic=mirror.position}.  Label sets are
/// canonicalized (sorted by key) before interning, so two permutations
/// of the same pairs address the same metric.
///
/// Cardinality rule (see DESIGN.md §9): label values must be bounded by
/// configuration — shard indices, urgency classes, registered function
/// or query names.  Never label by entity id, event payload, or other
/// per-datum values.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Number of stripes used by sharded metrics.  Threads hash onto
/// stripes; 8 stripes keep same-cache-line contention negligible up to
/// a few dozen recording threads while costing 512 B per counter.
inline constexpr uint32_t kStripes = 8;

/// The calling thread's stripe index in [0, kStripes).  Assigned
/// round-robin on first use; a plain-old-data thread_local keeps the
/// lookup to one TLS load on the hot path.
uint32_t ThisThreadStripe();

/// A monotonically increasing counter, striped across cache lines so
/// concurrent `Add`s from different threads do not bounce one line.
/// `Add` is a single relaxed fetch-add on the caller's stripe
/// (~1-2 ns); `Value` sums the stripes.
class Counter {
 public:
  void Add(uint64_t n = 1) {
    slots_[ThisThreadStripe()].v.fetch_add(n, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  uint64_t Value() const {
    uint64_t sum = 0;
    for (const Slot& s : slots_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  struct alignas(64) Slot {
    std::atomic<uint64_t> v{0};
  };
  Slot slots_[kStripes];
};

/// A double-valued gauge.  `agg` declares how instances of this metric
/// combine when a `StatsScope` retires into the process aggregate (and
/// is a hint to dashboards): sums accumulate, maxima take the max, and
/// `kLast` keeps the most recent write.
class Gauge {
 public:
  enum class Agg : uint8_t { kSum, kMax, kLast };

  /// `acc` combined with one more instance's `v` under `agg`.
  static double Fold(Agg agg, double acc, double v) {
    if (agg == Agg::kSum) return acc + v;
    return agg == Agg::kMax ? std::max(acc, v) : v;
  }

  explicit Gauge(Agg agg = Agg::kSum) : agg_(agg) {}

  void Set(double v) { v_.store(v, std::memory_order_relaxed); }

  void Add(double d) {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + d,
                                     std::memory_order_relaxed)) {
    }
  }

  void UpdateMax(double v) {
    double cur = v_.load(std::memory_order_relaxed);
    while (cur < v &&
           !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  double Value() const { return v_.load(std::memory_order_relaxed); }
  Agg agg() const { return agg_; }

 private:
  std::atomic<double> v_{0.0};
  Agg agg_;
};

/// A thread-safe histogram built on `common::Histogram`: one mutexed
/// `Histogram` per stripe, so recorders on different threads almost
/// never contend and the O(1)-hot-path property of the underlying
/// histogram is preserved (one uncontended lock + one bucket update).
/// `Snapshot` merges the stripes into a plain `Histogram`, which is the
/// type all existing `*Stats` structs and accessors already expose.
class ConcurrentHistogram {
 public:
  void Record(int64_t value) { RecordMany(value, 1); }

  void RecordMany(int64_t value, uint64_t count) {
    Stripe& s = stripes_[ThisThreadStripe()];
    std::lock_guard<std::mutex> lock(s.mu);
    s.hist.RecordMany(value, count);
  }

  /// Merges a plain histogram in (used by registry retirement folds).
  void MergeFrom(const Histogram& other) {
    Stripe& s = stripes_[ThisThreadStripe()];
    std::lock_guard<std::mutex> lock(s.mu);
    s.hist.Merge(other);
  }

  /// A merged copy of all stripes — a consistent-enough snapshot (each
  /// stripe is locked in turn, not all at once).
  Histogram Snapshot() const {
    Histogram out;
    for (const Stripe& s : stripes_) {
      std::lock_guard<std::mutex> lock(s.mu);
      out.Merge(s.hist);
    }
    return out;
  }

  uint64_t Count() const {
    uint64_t n = 0;
    for (const Stripe& s : stripes_) {
      std::lock_guard<std::mutex> lock(s.mu);
      n += s.hist.count();
    }
    return n;
  }

 private:
  struct alignas(64) Stripe {
    mutable std::mutex mu;
    Histogram hist;
  };
  Stripe stripes_[kStripes];
};

enum class MetricKind : uint8_t { kCounter, kGauge, kHistogram };

std::string_view MetricKindName(MetricKind kind);

/// One exported metric value (see `MetricsRegistry::Snapshot`).
struct MetricSample {
  std::string name;
  Labels labels;  // canonical (sorted by key)
  MetricKind kind = MetricKind::kCounter;
  double value = 0.0;  ///< counter/gauge value; histogram observation count
  Histogram hist;      ///< filled only for histograms

  /// "name{k=v,k2=v2}" — the interned identity of the metric.
  std::string Key() const;
};

/// The process-wide metric store: every counter, gauge, and histogram
/// in Deluge lives here, addressable by name + labels, so one export
/// path (`Snapshot` → bench_results.json, logs, dashboards) sees every
/// subsystem (the paper's Fig. 7 "operate it as one system" view).
///
/// Get* calls intern the (name, labels) pair and return a stable
/// pointer: repeated calls with the same pair — in any label order —
/// return the same metric.  Handles returned for scope-less metrics
/// live as long as the registry; handles obtained through a
/// `StatsScope` are invalidated when the scope retires (the owning
/// subsystem instance is expected to hold the scope for as long as it
/// uses the handles, which member order gives for free).
///
/// Thread-safety: all methods are safe to call concurrently; metric
/// mutation (`Add`/`Record`) never takes the registry lock.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide instance (never destroyed, so metric handles in
  /// static-destruction order remain valid).
  static MetricsRegistry& Global();

  Counter* GetCounter(std::string_view name, const Labels& labels = {});
  Gauge* GetGauge(std::string_view name, const Labels& labels = {},
                  Gauge::Agg agg = Gauge::Agg::kSum);
  ConcurrentHistogram* GetHistogram(std::string_view name,
                                    const Labels& labels = {});

  /// All metrics, sorted by key, with histogram contents merged.
  std::vector<MetricSample> Snapshot() const;

  size_t size() const;

  /// The canonical interning key: labels sorted by key (then value).
  static std::string CanonicalKey(std::string_view name,
                                  const Labels& labels);

 private:
  friend class StatsScope;

  struct Entry {
    std::string name;
    Labels labels;
    MetricKind kind = MetricKind::kCounter;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<ConcurrentHistogram> hist;
  };

  /// Folds each keyed metric into its process aggregate — the same
  /// metric with the `instance` label rewritten to "all" — then drops
  /// the per-instance entry, keeping registry size bounded by *live*
  /// instances plus one aggregate per metric family.
  void Retire(const std::vector<std::string>& keys);

  Entry* FindOrCreateLocked(std::string_view name, const Labels& labels,
                            MetricKind kind, Gauge::Agg agg);

  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry> entries_;  // key: CanonicalKey
};

/// Per-instance metric bundle: each subsystem instance (a Broker, a
/// KVStore, one engine shard, …) owns one scope, which stamps every
/// metric it creates with {subsystem=…, instance=<unique id>} plus any
/// extra labels (shard index, function name, …).  Destruction retires
/// the instance: its final values fold into the instance="all"
/// aggregates so short-lived instances still show up in the export,
/// and the per-instance entries are erased so cardinality stays
/// bounded by live instances.
class StatsScope {
 public:
  /// `registry` defaults to `MetricsRegistry::Global()`.
  explicit StatsScope(std::string_view subsystem, Labels extra = {},
                      MetricsRegistry* registry = nullptr);
  ~StatsScope();
  StatsScope(const StatsScope&) = delete;
  StatsScope& operator=(const StatsScope&) = delete;

  /// Metric names are "<subsystem>.<name>".  `extra` labels add to the
  /// scope's labels (per-function / per-query / per-class metrics).
  Counter* counter(std::string_view name, const Labels& extra = {});
  Gauge* gauge(std::string_view name, Gauge::Agg agg = Gauge::Agg::kSum,
               const Labels& extra = {});
  ConcurrentHistogram* histogram(std::string_view name,
                                 const Labels& extra = {});

  const Labels& labels() const { return labels_; }
  uint64_t instance_id() const { return instance_id_; }
  MetricsRegistry* registry() const { return reg_; }

 private:
  std::string FullName(std::string_view name) const;
  Labels MergedLabels(const Labels& extra) const;

  MetricsRegistry* reg_;
  std::string subsystem_;
  uint64_t instance_id_;
  Labels labels_;
  std::vector<std::string> keys_;  // every key this scope interned
};

/// Reads a subsystem's `*Stats` struct `S` straight from its metrics.
/// Each `counter`/`gauge`/`histogram` call registers the metric on the
/// scope exactly as the scope's own method does (with this view's
/// `extra` labels), returns the handle the hot path records into, and
/// notes which field of `S` the metric fills.  `Read` returns this
/// instance's values; `AddTo` folds them into a total by the rule
/// `StatsScope` retirement uses: counters and kSum gauges add, kMax
/// gauges take the max, kLast gauges overwrite, histograms merge.
/// Metrics are never reset, so a window is the difference of two reads.
template <typename S>
class StatsView {
 public:
  explicit StatsView(StatsScope& scope, Labels extra = {})
      : scope_(&scope), extra_(std::move(extra)) {}

  Counter* counter(std::string_view name, uint64_t S::*field) {
    Counter* c = scope_->counter(name, extra_);
    fields_.push_back([c, field](S* out) { out->*field += c->Value(); });
    return c;
  }

  /// `T` may be an integer (a high-water mark read as a count).
  template <typename T>
  Gauge* gauge(std::string_view name, T S::*field,
               Gauge::Agg agg = Gauge::Agg::kSum) {
    Gauge* g = scope_->gauge(name, agg, extra_);
    fields_.push_back([g, field, agg](S* out) {
      out->*field = T(Gauge::Fold(agg, double(out->*field), g->Value()));
    });
    return g;
  }

  ConcurrentHistogram* histogram(std::string_view name,
                                 Histogram S::*field) {
    ConcurrentHistogram* h = scope_->histogram(name, extra_);
    fields_.push_back(
        [h, field](S* out) { (out->*field).Merge(h->Snapshot()); });
    return h;
  }

  /// This instance folded into a default `S`; fields no metric fills
  /// keep their defaults.
  S Read() const {
    S out{};
    AddTo(&out);
    return out;
  }

  void AddTo(S* total) const {
    for (const auto& add : fields_) add(total);
  }

 private:
  StatsScope* scope_;
  Labels extra_;
  std::vector<std::function<void(S*)>> fields_;
};

/// RAII timer: records elapsed wall-clock microseconds into a
/// `ConcurrentHistogram` at scope exit.  Null histogram = no-op.
class ScopedTimer {
 public:
  explicit ScopedTimer(ConcurrentHistogram* hist);
  ~ScopedTimer();
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  ConcurrentHistogram* hist_;
  int64_t start_us_;
};

/// Monotonic wall-clock microseconds (steady_clock).
int64_t SteadyNowMicros();

}  // namespace deluge::obs

#endif  // DELUGE_OBS_METRICS_H_
