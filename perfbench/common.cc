#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "common/hash.h"

namespace perfbench {

// ------------------------------------------------------------ clocks

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SleepUntilNs(int64_t deadline_ns) {
  constexpr int64_t kSpinNs = 200 * 1000;
  const int64_t now = NowNs();
  if (deadline_ns - now > kSpinNs) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(deadline_ns - now - kSpinNs));
  }
  while (NowNs() < deadline_ns) {
  }
}

// ------------------------------------------------------------ histogram

namespace {
constexpr size_t kExact = 128;  // values below are their own bucket
constexpr size_t kSub = 64;     // sub-buckets per power of two above
constexpr size_t kBuckets = kExact + (63 - 7) * kSub;
}  // namespace


size_t LatHist::BucketOf(int64_t v) {
  if (v < int64_t(kExact)) return v < 0 ? 0 : size_t(v);
  const int e = 63 - __builtin_clzll(uint64_t(v));  // >= 7
  const int shift = e - 6;
  const uint64_t mant = uint64_t(v) >> shift;  // 64..127
  return kExact + size_t(e - 7) * kSub + size_t(mant - kSub);
}

void LatHist::BucketRange(size_t idx, double* lo, double* width) {
  if (idx < kExact) {
    *lo = double(idx);
    *width = 1.0;
    return;
  }
  const size_t e = 7 + (idx - kExact) / kSub;
  const size_t mant = kSub + (idx - kExact) % kSub;
  const int shift = int(e) - 6;
  *lo = std::ldexp(double(mant), shift);
  *width = std::ldexp(1.0, shift);
}

void LatHist::Record(int64_t v) {
  if (b_.empty()) b_.assign(kBuckets, 0);
  ++b_[BucketOf(v)];
  ++n_;
  sum_ += double(v < 0 ? 0 : v);
}

void LatHist::Merge(const LatHist& other) {
  if (other.n_ == 0) return;
  if (b_.empty()) b_.assign(kBuckets, 0);
  for (size_t i = 0; i < kBuckets; ++i) b_[i] += other.b_[i];
  n_ += other.n_;
  sum_ += other.sum_;
}

double LatHist::Percentile(double p) const {
  if (n_ == 0) return 0.0;
  const double target = std::clamp(p, 0.0, 100.0) / 100.0 * double(n_);
  double cum = 0.0;
  for (size_t i = 0; i < kBuckets; ++i) {
    if (b_[i] == 0) continue;
    const double c = double(b_[i]);
    if (cum + c >= target) {
      double lo = 0, width = 0;
      BucketRange(i, &lo, &width);
      return lo + width * std::clamp((target - cum) / c, 0.0, 1.0);
    }
    cum += c;
  }
  double lo = 0, width = 0;
  BucketRange(kBuckets - 1, &lo, &width);
  return lo + width;
}

std::string LatHist::Serialize() const {
  std::ostringstream out;
  out << n_ << ' ' << std::llround(sum_);
  for (size_t i = 0; i < b_.size(); ++i) {
    if (b_[i] != 0) out << ' ' << i << ':' << b_[i];
  }
  return out.str();
}

bool LatHist::Parse(const std::string& text) {
  std::istringstream in(text);
  uint64_t n = 0;
  long long sum = 0;
  if (!(in >> n >> sum)) return false;
  b_.assign(kBuckets, 0);
  uint64_t seen = 0;
  std::string tok;
  while (in >> tok) {
    size_t idx = 0;
    unsigned long long c = 0;
    if (std::sscanf(tok.c_str(), "%zu:%llu", &idx, &c) != 2 ||
        idx >= kBuckets) {
      return false;
    }
    b_[idx] = c;
    seen += c;
  }
  n_ = n;
  sum_ = double(sum);
  return seen == n;
}

// ------------------------------------------------------------ spans

uint64_t NextSpanId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

namespace {

/// Per layer, the median over requests of its self time (ns); root spans
/// (layer "") count as "unattributed".  `*root_median_ns` gets the median
/// root duration.
std::vector<std::pair<std::string, double>> LayerSelfMedians(
    const std::vector<SpanRec>& spans, double* root_median_ns) {
  std::unordered_map<uint64_t, std::vector<size_t>> children;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != 0) children[spans[i].parent].push_back(i);
  }
  // req -> layer -> self ns
  std::map<uint64_t, std::map<std::string, double>> per_req;
  std::vector<double> roots;
  for (const SpanRec& s : spans) {
    std::vector<std::pair<int64_t, int64_t>> iv;
    auto it = children.find(s.id);
    if (it != children.end()) {
      for (size_t c : it->second) {
        const int64_t a = std::max(spans[c].start_ns, s.start_ns);
        const int64_t b = std::min(spans[c].end_ns, s.end_ns);
        if (b > a) iv.emplace_back(a, b);
      }
    }
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0, cur_a = 0, cur_b = 0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (!open || a > cur_b) {
        if (open) covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
        open = true;
      } else {
        cur_b = std::max(cur_b, b);
      }
    }
    if (open) covered += cur_b - cur_a;
    const double self = double(s.end_ns - s.start_ns - covered);
    const std::string layer = *s.layer == '\0' ? "unattributed" : s.layer;
    per_req[s.req][layer] += self;
    if (s.parent == 0) roots.push_back(double(s.end_ns - s.start_ns));
  }
  std::map<std::string, std::vector<double>> by_layer;
  for (const auto& [req, layers] : per_req) {
    for (const auto& [layer, ns] : layers) by_layer[layer];
  }
  for (const auto& [req, layers] : per_req) {
    for (auto& [layer, v] : by_layer) {
      auto it = layers.find(layer);
      v.push_back(it == layers.end() ? 0.0 : it->second);
    }
  }
  std::vector<std::pair<std::string, double>> out;
  for (auto& [layer, v] : by_layer) out.emplace_back(layer, Median(v));
  *root_median_ns = Median(roots);
  return out;
}

}  // namespace

bool DumpSpans(const std::string& path, const std::vector<SpanRec>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const SpanRec& s : spans) {
    std::fprintf(f,
                 "{\"req\":%llu,\"span\":%llu,\"parent\":%llu,"
                 "\"layer\":\"%s\",\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld}\n",
                 (unsigned long long)s.req, (unsigned long long)s.id,
                 (unsigned long long)s.parent, s.layer, s.name,
                 (long long)s.start_ns, (long long)s.end_ns);
  }
  return std::fclose(f) == 0;
}

void ReportSelfTimes(const std::vector<SpanRec>& spans,
                     const std::vector<std::pair<std::string, double>>& extra,
                     double e2e_median_ns, Result* out) {
  double root_median = 0.0;
  std::vector<std::pair<std::string, double>> layers =
      LayerSelfMedians(spans, &root_median);
  if (e2e_median_ns <= 0.0) e2e_median_ns = root_median;
  std::map<std::string, double> sum;
  for (const auto& [layer, ns] : layers) {
    if (layer != "unattributed") sum[layer] += ns;
  }
  for (const auto& [layer, ns] : extra) sum[layer] += ns;
  double attributed = 0.0;
  for (const auto& [layer, ns] : sum) {
    out->Layer("self_us." + layer, ns / 1000.0, "us");
    attributed += ns;
  }
  out->Layer("trace.unattributed_share",
             e2e_median_ns > 0 ? (e2e_median_ns - attributed) / e2e_median_ns
                               : 0.0,
             "ratio");
  std::vector<std::pair<double, std::string>> ranked;
  for (const auto& [layer, ns] : sum) ranked.emplace_back(ns, layer);
  std::sort(ranked.rbegin(), ranked.rend());
  std::string top = "largest self time per request:";
  for (size_t i = 0; i < ranked.size() && i < 3; ++i) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), " %zu) %s %.2f us", i + 1,
                  ranked[i].second.c_str(), ranked[i].first / 1000.0);
    top += buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), " (of e2e median %.2f us)",
                e2e_median_ns / 1000.0);
  out->notes.push_back(top + buf);
}

// ------------------------------------------------------------ slots

namespace {
std::atomic<uint64_t> g_slots_generation{1};
}  // namespace

Slots::Slots(size_t keys)
    : generation_(g_slots_generation.fetch_add(1)), keys_(keys) {}

Slot& Slots::Local() {
  thread_local uint64_t tls_generation = 0;
  thread_local Slot* tls_slot = nullptr;
  if (tls_generation == generation_) return *tls_slot;
  // A thread may alternate between slot sets (mirror_remote's strand
  // records by due time and by ack time), so it keeps one slot per set.
  thread_local std::unordered_map<uint64_t, Slot*> tls_slots;
  Slot*& slot = tls_slots[generation_];
  if (slot == nullptr) {
    auto fresh = std::make_unique<Slot>();
    fresh->counts.assign(keys_, 0);
    fresh->sums.assign(keys_, 0);
    slot = fresh.get();
    std::lock_guard<std::mutex> lock(mu_);
    slots_.push_back(std::move(fresh));
  }
  tls_generation = generation_;
  tls_slot = slot;
  return *slot;
}

Slot Slots::Merged() const {
  Slot out;
  out.counts.assign(keys_, 0);
  out.sums.assign(keys_, 0);
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& s : slots_) {
    for (size_t i = 0; i < kHists; ++i) out.h[i].Merge(s->h[i]);
    out.ops += s->ops;
    for (size_t k = 0; k < keys_; ++k) {
      out.counts[k] += s->counts[k];
      out.sums[k] += s->sums[k];
    }
    out.spans.insert(out.spans.end(), s->spans.begin(), s->spans.end());
    out.samples.insert(out.samples.end(), s->samples.begin(),
                       s->samples.end());
  }
  return out;
}

Windows::Windows(int64_t start_ns, int64_t end_ns, size_t keys)
    : start_ns_(start_ns) {
  const int64_t len = std::max<int64_t>(1, end_ns - start_ns);
  const size_t n = size_t(std::max<int64_t>(1, std::llround(double(len) / 1e9)));
  window_ns_ = std::max<int64_t>(1, len / int64_t(n));
  for (size_t i = 0; i < n; ++i) w_.push_back(std::make_unique<Slots>(keys));
  unsampled_.assign(n, false);
}

void Windows::SampleSteal(int64_t now_ns) {
  const int64_t idx = (now_ns - start_ns_) / window_ns_;
  const size_t bound = size_t(std::clamp<int64_t>(idx, 0, int64_t(w_.size())));
  // steal_at_[i] is read once the clock has entered window i (or passed
  // the end, for the closing sample at index size()).
  const size_t before = steal_at_.size();
  if (before > bound || before > w_.size()) return;
  const uint64_t steal = StealTicks();
  while (steal_at_.size() <= bound && steal_at_.size() <= w_.size()) {
    steal_at_.push_back(steal);
  }
  // Several boundaries at once: the window the stall began in got all of
  // its steal and the windows it passed over none.
  if (steal_at_.size() > before + 1) {
    for (size_t i = before == 0 ? 0 : before - 1; i + 1 < steal_at_.size();
         ++i) {
      unsampled_[i] = true;
    }
  }
}

bool Windows::Contains(int64_t t_ns) const {
  return t_ns >= start_ns_ &&
         t_ns - start_ns_ < window_ns_ * int64_t(w_.size());
}

uint64_t Windows::steal_ticks() const {
  return steal_at_.size() < 2 ? 0 : steal_at_.back() - steal_at_.front();
}

std::vector<size_t> Windows::CleanWindows() const {
  std::vector<size_t> idx(w_.size());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  if (steal_at_.size() != w_.size() + 1) return idx;
  std::stable_sort(idx.begin(), idx.end(), [this](size_t a, size_t b) {
    return std::make_pair(bool(unsampled_[a]), steal_at_[a + 1] - steal_at_[a]) <
           std::make_pair(bool(unsampled_[b]), steal_at_[b + 1] - steal_at_[b]);
  });
  idx.resize((idx.size() + 3) / 4);
  return idx;
}

Slots& Windows::At(int64_t t_ns) {
  const int64_t i = (t_ns - start_ns_) / window_ns_;
  return *w_[size_t(std::clamp<int64_t>(i, 0, int64_t(w_.size()) - 1))];
}

Slot Windows::All() const {
  Slot out;
  bool first = true;
  for (const auto& w : w_) {
    Slot m = w->Merged();
    if (first) {
      out = std::move(m);
      first = false;
      continue;
    }
    for (size_t i = 0; i < kHists; ++i) out.h[i].Merge(m.h[i]);
    out.ops += m.ops;
    for (size_t k = 0; k < out.counts.size(); ++k) {
      out.counts[k] += m.counts[k];
      out.sums[k] += m.sums[k];
    }
    out.spans.insert(out.spans.end(), m.spans.begin(), m.spans.end());
    out.samples.insert(out.samples.end(), m.samples.begin(), m.samples.end());
  }
  return out;
}

// ------------------------------------------------------------ probes

namespace {
long StatusField(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0) {
      return std::strtol(line.c_str() + len, nullptr, 10);
    }
  }
  return 0;
}
}  // namespace

uint64_t StealTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  uint64_t f[8] = {};
  in >> cpu;
  for (uint64_t& x : f) in >> x;
  return cpu == "cpu" ? f[7] : 0;
}

double PeakRssMb() { return double(StatusField("VmHWM:")) / 1024.0; }

int ThreadCount() { return int(StatusField("Threads:")); }

double CpuSeconds() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

uint64_t DeliveryHash(uint64_t entity, int64_t published_at, double x,
                      double y) {
  uint64_t bx = 0, by = 0;
  std::memcpy(&bx, &x, sizeof(bx));
  std::memcpy(&by, &y, sizeof(by));
  uint64_t h = deluge::Mix64(entity * 0x9E3779B97F4A7C15ull ^
                             uint64_t(published_at));
  h = deluge::Mix64(h ^ bx);
  return deluge::Mix64(h ^ (by * 0xC2B2AE3D27D4EB4Full));
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  if (v.size() % 2 == 1) return v[mid];
  const double hi = v[mid];
  return (*std::max_element(v.begin(), v.begin() + mid) + hi) / 2.0;
}

const std::vector<std::pair<std::string, std::string>>& LayerMetricNames() {
  static const std::vector<std::pair<std::string, std::string>> kNames = {
      {"core.ingest_batch_us.p50", "us"},
      {"core.ingest_batch_us.p99", "us"},
      {"core.ingest_ns_per_update", "ns"},
      {"core.cpu_util", "ratio"},
      {"consistency.mirror_ratio", "ratio"},
      {"pubsub.deliveries_per_update", "ratio"},
      {"pubsub.candidates_per_delivery", "ratio"},
      {"pubsub.callback_ns", "ns"},
      {"pubsub.encode_ns", "ns"},
      {"pubsub.encoded_bytes_per_event", "bytes"},
      {"net.send_ns", "ns"},
      {"net.one_way_us.p50", "us"},
      {"net.one_way_us.p99", "us"},
      {"net.frames_per_event", "ratio"},
      {"net.wire_bytes_per_event", "bytes"},
      {"net.send_retries", "count"},
      {"net.reconnects", "count"},
      {"replica.put_us.p50", "us"},
      {"replica.put_us.p99", "us"},
      {"replica.messages_per_commit", "ratio"},
      {"replica.write_retries", "count"},
      {"storage.backing_put_us.p50", "us"},
      {"storage.backing_put_us.p99", "us"},
      {"storage.cache_hit_ratio", "ratio"},
      {"storage.bloom_useful_ratio", "ratio"},
      {"storage.syncs_per_commit", "ratio"},
      {"storage.write_stall_ms", "ms"},
      {"storage.write_amp", "ratio"},
      {"storage.compact_busy_ms", "ms"},
      {"driver.generator_lag_us.p99", "us"},
      {"driver.threads", "count"},
      {"driver.error_ratio", "ratio"},
      {"e2e.ops_per_s", "1/s"},
      {"e2e.latency_p99_us", "us"},
      {"e2e.secondary_p50_us", "us"},
      {"e2e.secondary_p99_us", "us"},
      {"trace.overhead_ratio", "ratio"},
      {"trace.unattributed_share", "ratio"},
      {"self_us.driver", "us"},
      {"self_us.core", "us"},
      {"self_us.pubsub", "us"},
      {"self_us.net", "us"},
      {"self_us.replica", "us"},
      {"self_us.storage", "us"},
  };
  return kNames;
}

}  // namespace perfbench
