#include "obs/metrics.h"

#include <algorithm>
#include <chrono>

namespace deluge::obs {

namespace {

// 0 = unassigned; stripe + 1 otherwise.  A POD thread_local keeps the
// fast path at one TLS load (no dynamic-init guard).
thread_local uint32_t tls_stripe_plus1 = 0;

std::atomic<uint32_t> g_next_stripe{0};
std::atomic<uint64_t> g_next_instance{1};

}  // namespace

uint32_t ThisThreadStripe() {
  uint32_t s = tls_stripe_plus1;
  if (s == 0) {
    s = g_next_stripe.fetch_add(1, std::memory_order_relaxed) % kStripes + 1;
    tls_stripe_plus1 = s;
  }
  return s - 1;
}

int64_t SteadyNowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string_view MetricKindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "?";
}

// ---------------------------------------------------------- MetricSample

std::string MetricSample::Key() const {
  return MetricsRegistry::CanonicalKey(name, labels);
}

// -------------------------------------------------------- MetricsRegistry

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked on purpose: subsystem instances may retire during static
  // destruction and must find the registry alive.
  static MetricsRegistry& reg = *new MetricsRegistry();
  return reg;
}

std::string MetricsRegistry::CanonicalKey(std::string_view name,
                                          const Labels& labels) {
  std::string key(name);
  if (labels.empty()) return key;
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  key.push_back('{');
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (i > 0) key.push_back(',');
    key += sorted[i].first;
    key.push_back('=');
    key += sorted[i].second;
  }
  key.push_back('}');
  return key;
}

MetricsRegistry::Entry* MetricsRegistry::FindOrCreateLocked(
    std::string_view name, const Labels& labels, MetricKind kind,
    Gauge::Agg agg) {
  std::string key = CanonicalKey(name, labels);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    Entry e;
    e.name = std::string(name);
    e.labels = labels;
    std::sort(e.labels.begin(), e.labels.end());
    e.kind = kind;
    switch (kind) {
      case MetricKind::kCounter:
        e.counter = std::make_unique<Counter>();
        break;
      case MetricKind::kGauge:
        e.gauge = std::make_unique<Gauge>(agg);
        break;
      case MetricKind::kHistogram:
        e.hist = std::make_unique<ConcurrentHistogram>();
        break;
    }
    it = entries_.emplace(std::move(key), std::move(e)).first;
  }
  return &it->second;
}

Counter* MetricsRegistry::GetCounter(std::string_view name,
                                     const Labels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry* e =
      FindOrCreateLocked(name, labels, MetricKind::kCounter, Gauge::Agg::kSum);
  return e->counter.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name, const Labels& labels,
                                 Gauge::Agg agg) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry* e = FindOrCreateLocked(name, labels, MetricKind::kGauge, agg);
  return e->gauge.get();
}

ConcurrentHistogram* MetricsRegistry::GetHistogram(std::string_view name,
                                                   const Labels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry* e = FindOrCreateLocked(name, labels, MetricKind::kHistogram,
                                Gauge::Agg::kSum);
  return e->hist.get();
}

std::vector<MetricSample> MetricsRegistry::Snapshot() const {
  std::vector<MetricSample> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.reserve(entries_.size());
    for (const auto& [key, e] : entries_) {
      MetricSample s;
      s.name = e.name;
      s.labels = e.labels;
      s.kind = e.kind;
      switch (e.kind) {
        case MetricKind::kCounter:
          s.value = double(e.counter->Value());
          break;
        case MetricKind::kGauge:
          s.value = e.gauge->Value();
          break;
        case MetricKind::kHistogram:
          s.hist = e.hist->Snapshot();
          s.value = double(s.hist.count());
          break;
      }
      out.push_back(std::move(s));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const MetricSample& a, const MetricSample& b) {
              return a.Key() < b.Key();
            });
  return out;
}

size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

void MetricsRegistry::Retire(const std::vector<std::string>& keys) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::string& key : keys) {
    auto it = entries_.find(key);
    if (it == entries_.end()) continue;
    Entry& live = it->second;
    Labels agg_labels = live.labels;
    for (auto& [k, v] : agg_labels) {
      if (k == "instance") v = "all";
    }
    Gauge::Agg agg = live.gauge != nullptr ? live.gauge->agg()
                                           : Gauge::Agg::kSum;
    Entry* target =
        FindOrCreateLocked(live.name, agg_labels, live.kind, agg);
    switch (live.kind) {
      case MetricKind::kCounter:
        target->counter->Add(live.counter->Value());
        break;
      case MetricKind::kGauge:
        // Aggregates are written only here, under `mu_`.
        target->gauge->Set(Gauge::Fold(agg, target->gauge->Value(),
                                       live.gauge->Value()));
        break;
      case MetricKind::kHistogram:
        target->hist->MergeFrom(live.hist->Snapshot());
        break;
    }
    // FindOrCreateLocked may have rehashed the map; re-find before erase.
    entries_.erase(key);
  }
}

// ------------------------------------------------------------ StatsScope

StatsScope::StatsScope(std::string_view subsystem, Labels extra,
                       MetricsRegistry* registry)
    : reg_(registry != nullptr ? registry : &MetricsRegistry::Global()),
      subsystem_(subsystem),
      instance_id_(g_next_instance.fetch_add(1, std::memory_order_relaxed)) {
  labels_.reserve(extra.size() + 2);
  labels_.emplace_back("subsystem", subsystem_);
  labels_.emplace_back("instance", std::to_string(instance_id_));
  for (auto& kv : extra) labels_.push_back(std::move(kv));
}

StatsScope::~StatsScope() { reg_->Retire(keys_); }

std::string StatsScope::FullName(std::string_view name) const {
  std::string full = subsystem_;
  full.push_back('.');
  full += name;
  return full;
}

Labels StatsScope::MergedLabels(const Labels& extra) const {
  if (extra.empty()) return labels_;
  Labels merged = labels_;
  merged.insert(merged.end(), extra.begin(), extra.end());
  return merged;
}

Counter* StatsScope::counter(std::string_view name, const Labels& extra) {
  std::string full = FullName(name);
  Labels labels = MergedLabels(extra);
  keys_.push_back(MetricsRegistry::CanonicalKey(full, labels));
  return reg_->GetCounter(full, labels);
}

Gauge* StatsScope::gauge(std::string_view name, Gauge::Agg agg,
                         const Labels& extra) {
  std::string full = FullName(name);
  Labels labels = MergedLabels(extra);
  keys_.push_back(MetricsRegistry::CanonicalKey(full, labels));
  return reg_->GetGauge(full, labels, agg);
}

ConcurrentHistogram* StatsScope::histogram(std::string_view name,
                                           const Labels& extra) {
  std::string full = FullName(name);
  Labels labels = MergedLabels(extra);
  keys_.push_back(MetricsRegistry::CanonicalKey(full, labels));
  return reg_->GetHistogram(full, labels);
}

// ------------------------------------------------------------ ScopedTimer

ScopedTimer::ScopedTimer(ConcurrentHistogram* hist)
    : hist_(hist), start_us_(hist != nullptr ? SteadyNowMicros() : 0) {}

ScopedTimer::~ScopedTimer() {
  if (hist_ != nullptr) hist_->Record(SteadyNowMicros() - start_us_);
}

}  // namespace deluge::obs
