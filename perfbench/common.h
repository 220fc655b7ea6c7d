// Shared pieces of the repo benchmark driver: run arguments, a
// fine-grained latency histogram, per-thread recording slots, the
// benchmark's own span recorder, process probes, and the result record
// every workload fills and `main.cc` prints.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// ------------------------------------------------------------ arguments

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  /// Traced run: the first half of the timed phase runs untraced, the
  /// second half records spans; per-layer metrics come from the second.
  bool trace = false;
  /// Tiny inputs for the benchmark's own smoke tests.
  bool smoke = false;
  /// Planted fault (audit self-test); empty = none.
  std::string fault;
  /// Directory for stores, sockets, child results and span dumps.  A
  /// path relative to the working directory keeps Unix socket paths
  /// short.
  std::string work_dir = ".bench_build/run";
};

// ------------------------------------------------------------ clocks

/// steady_clock (CLOCK_MONOTONIC) nanoseconds; comparable across
/// processes on one host.
int64_t NowNs();
/// Sleeps until `deadline_ns`, spinning for the last stretch so open-loop
/// ticks fire within a few microseconds of their due time.
void SleepUntilNs(int64_t deadline_ns);

// ------------------------------------------------------------ histogram

/// Log-linear histogram of non-negative integers (ns or bytes): exact
/// below 128, then 64 sub-buckets per power of two (<1.6% bucket width).
/// Percentiles interpolate by rank inside the bucket.  Not thread-safe;
/// record into per-thread instances and `Merge`.  Buckets are allocated
/// on the first `Record`, so idle histograms cost nothing.
class LatHist {
 public:
  void Record(int64_t v);
  void Merge(const LatHist& other);
  uint64_t count() const { return n_; }
  double sum() const { return sum_; }
  double mean() const { return n_ == 0 ? 0.0 : sum_ / double(n_); }
  /// Value at percentile `p` in [0, 100]; 0 when empty.
  double Percentile(double p) const;
  /// Sparse text form "n sum idx:count ..." (child → driver reports).
  std::string Serialize() const;
  bool Parse(const std::string& text);

 private:
  static size_t BucketOf(int64_t v);
  static void BucketRange(size_t idx, double* lo, double* width);
  std::vector<uint64_t> b_;
  uint64_t n_ = 0;
  double sum_ = 0.0;
};

// ------------------------------------------------------------ spans

/// One span of the benchmark's traced run: a call the driver made into a
/// layer's public API.  Spans caused by one sensed update (or one tick /
/// store operation) share `req`.
struct SpanRec {
  uint64_t req = 0;
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root
  const char* layer = "";  ///< "core", "pubsub", ... ("" for e2e roots)
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Process-wide span id source (only touched in traced phases).
uint64_t NextSpanId();

/// Appends spans as JSON lines; false when the file can't be written.
bool DumpSpans(const std::string& path, const std::vector<SpanRec>& spans);

// ------------------------------------------------------------ per-thread slots

/// Histograms indexed by purpose; each workload documents its use.
inline constexpr size_t kHists = 8;

/// Recording state owned by one thread: histograms, per-key counters
/// and spans.  Threads never share a slot, so recording takes no lock.
struct Slot {
  std::array<LatHist, kHists> h;
  uint64_t ops = 0;  ///< operations completed (workload-defined)
  std::vector<uint64_t> counts;  ///< per-watcher deliveries
  std::vector<uint64_t> sums;    ///< per-watcher order-free content hash
  std::vector<SpanRec> spans;
  std::vector<std::pair<uint64_t, int64_t>> samples;  ///< (key, ns)
};

/// The set of slots of one run.  `Local()` finds the calling thread's
/// slot (allocating it on first use under a mutex); `Merged()` is read
/// after every recording thread has quiesced.
class Slots {
 public:
  explicit Slots(size_t keys = 0);
  Slots(const Slots&) = delete;
  Slots& operator=(const Slots&) = delete;

  Slot& Local();
  /// Histograms and counters summed over every slot; spans and samples
  /// concatenated.
  Slot Merged() const;

 private:
  const uint64_t generation_;
  const size_t keys_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Slot>> slots_;
};

/// The timed phase cut into equal windows of about one second, each with
/// its own slots.  End-to-end figures are medians over windows, so a
/// stall that hits one window (a neighbour on a shared host) moves that
/// window, not the result; windows in which the hypervisor stole the
/// most CPU time are left out of the medians.
class Windows {
 public:
  Windows(int64_t start_ns, int64_t end_ns, size_t keys = 0);
  Windows(const Windows&) = delete;
  Windows& operator=(const Windows&) = delete;

  /// Slots of the window containing `t_ns` (clamped to the phase).
  Slots& At(int64_t t_ns);
  /// True when `t_ns` falls inside the phase.
  bool Contains(int64_t t_ns) const;
  size_t size() const { return w_.size(); }
  Slot Window(size_t i) const { return w_[i]->Merged(); }
  /// Samples the host's stolen CPU time at window boundaries; called
  /// often (at least once per window) by one driver thread, and once
  /// more after the phase ends.  When a stall lets more than one
  /// boundary pass between two samples, the steal of the windows it
  /// spans cannot be told apart, so none of them counts as clean.
  void SampleSteal(int64_t now_ns);
  /// Median over windows of `f(window)`, taken over the quarter of the
  /// windows in which the hypervisor stole the least CPU time (all
  /// windows when steal was not sampled), skipping windows where `f`
  /// returns a negative value (nothing measured).
  template <typename F>
  double Median(F f) const;
  /// Every window merged.
  Slot All() const;
  /// Stolen CPU ticks (1/100 s, all CPUs) over the sampled windows.
  uint64_t steal_ticks() const;
  /// Indices of the windows `Median` uses.
  std::vector<size_t> CleanWindows() const;

 private:
  int64_t start_ns_, window_ns_;
  std::vector<std::unique_ptr<Slots>> w_;
  std::vector<uint64_t> steal_at_;  ///< steal counter at window starts
  std::vector<bool> unsampled_;     ///< windows a stall passed over
};

// ------------------------------------------------------------ probes

/// Peak resident set of this process, MB (VmHWM).
double PeakRssMb();
/// Threads of this process right now.
int ThreadCount();
/// User + system CPU seconds consumed by this process so far.
double CpuSeconds();
/// Order-free content hash of one delivered mirror event.
uint64_t DeliveryHash(uint64_t entity, int64_t published_at, double x,
                      double y);
double Median(std::vector<double> v);

/// The host's stolen CPU time so far (/proc/stat "steal", all CPUs).
uint64_t StealTicks();

template <typename F>
double Windows::Median(F f) const {
  std::vector<double> v;
  for (size_t i : CleanWindows()) {
    const double x = f(w_[i]->Merged());
    if (x >= 0) v.push_back(x);
  }
  return perfbench::Median(std::move(v));
}

// ------------------------------------------------------------ result

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports.  `e2e` and `layer` hold the metrics
/// named in BENCHMARK.json; `detail` holds everything else worth
/// reading (the workload-specific names of the end-to-end metrics,
/// sample counts, rates), printed above the final line.
struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> e2e;
  std::vector<Metric> layer;
  std::vector<Metric> detail;
  std::vector<std::string> notes;

  void E2e(const std::string& n, double v, const std::string& u) {
    e2e.push_back({n, v, u});
  }
  void Layer(const std::string& n, double v, const std::string& u) {
    layer.push_back({n, v, u});
  }
  void Detail(const std::string& n, double v, const std::string& u) {
    detail.push_back({n, v, u});
  }
  /// Records a failed audit: the run is not correct.
  void Fail(const std::string& why, uint64_t count = 1) {
    correct = false;
    failed += count;
    notes.push_back("AUDIT FAILED: " + why);
  }
};

/// Reports `self_us.<layer>` for the layers in `spans` plus `extra`
/// (layer, ns) pairs measured elsewhere.  A span's self time is its
/// duration minus the union of its children's intervals (clipped to the
/// span); a layer's figure is the median over requests of its summed self
/// time per request (0 for requests that never touched it), in µs.  Also
/// reports `trace.unattributed_share` = (e2e − Σ layers) / e2e, where e2e
/// is `e2e_median_ns` (or the root spans' median when it is 0), and notes
/// the three layers with the largest self time.
void ReportSelfTimes(const std::vector<SpanRec>& spans,
                     const std::vector<std::pair<std::string, double>>& extra,
                     double e2e_median_ns, Result* out);

/// Per-layer metric names (with units) every traced run prints, in
/// BENCHMARK.json order; a workload that never calls a layer reports 0.
const std::vector<std::pair<std::string, std::string>>& LayerMetricNames();

int RunCrowdFanout(const Args& args, Result* out);
int RunMirrorRemote(const Args& args, Result* out);
int RunTwinStore(const Args& args, Result* out);
/// Child-process entry of mirror_remote (replica + viewer host).
int RunMirrorChild(int argc, char** argv);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
