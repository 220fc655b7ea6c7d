#ifndef DELUGE_BENCH_BENCH_JSON_H_
#define DELUGE_BENCH_BENCH_JSON_H_

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

// Machine-readable benchmark results: every `bench_e*` binary appends
// one JSON line per (run, metric) to `bench_results.json` — the file
// the perf-trajectory tooling diffs across PRs.  Use
// `DELUGE_BENCH_MAIN()` in place of `BENCHMARK_MAIN()` to get both the
// normal console output and the JSONL sidecar.  The same main also
// dumps the process-wide `obs::MetricsRegistry` (every counter, gauge,
// and histogram percentile the workload touched) into the same file,
// and — when $DELUGE_TRACE_JSONL is set — any sampled trace spans.

namespace deluge::bench {

/// Target file: $DELUGE_BENCH_JSON, or ./bench_results.json.
inline std::string ResultsPath() {
  const char* env = std::getenv("DELUGE_BENCH_JSON");
  return (env != nullptr && *env != '\0') ? env : "bench_results.json";
}

inline std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out.push_back(' ');
    } else {
      out.push_back(c);
    }
  }
  return out;
}

/// Appends `{"bench": ..., "metric": ..., "value": ...}` lines — one
/// per user counter plus the per-iteration real time — for every
/// finished benchmark run, and remembers whether any run reported an
/// error.  Plugged into `RunSpecifiedBenchmarks` as the file reporter
/// alongside the default console reporter.
class JsonLinesReporter : public benchmark::BenchmarkReporter {
 public:
  explicit JsonLinesReporter(const std::string& path)
      : out_(path, std::ios::app) {}

  bool ReportContext(const Context&) override { return out_.good(); }

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) {
        errored_ = true;
        continue;
      }
      const std::string name = JsonEscape(run.benchmark_name());
      double iters = run.iterations > 0 ? double(run.iterations) : 1.0;
      Emit(name, "real_time_s_per_iter", run.real_accumulated_time / iters);
      for (const auto& [metric, counter] : run.counters) {
        Emit(name, JsonEscape(metric), double(counter));
      }
    }
    out_.flush();
  }

  /// True once any run called `SkipWithError` (a failed oracle).
  bool errored() const { return errored_; }

 private:
  void Emit(const std::string& bench, const std::string& metric,
            double value) {
    out_ << "{\"bench\":\"" << bench << "\",\"metric\":\"" << metric
         << "\",\"value\":" << value << "}\n";
  }

  std::ofstream out_;
  bool errored_ = false;
};

/// Forwards every callback to the default console reporter and the
/// JSONL reporter.  Runs in the *display* reporter slot because the
/// benchmark library insists `--benchmark_out` accompany any custom
/// file reporter.
class TeeReporter : public benchmark::BenchmarkReporter {
 public:
  TeeReporter(benchmark::BenchmarkReporter* console, JsonLinesReporter* json)
      : console_(console), json_(json) {}

  bool ReportContext(const Context& context) override {
    bool ok = console_->ReportContext(context);
    json_->ReportContext(context);
    return ok;
  }

  void ReportRuns(const std::vector<Run>& runs) override {
    console_->ReportRuns(runs);
    json_->ReportRuns(runs);
  }

  void Finalize() override {
    console_->Finalize();
    json_->Finalize();
  }

 private:
  benchmark::BenchmarkReporter* console_;
  JsonLinesReporter* json_;
};

/// Appends the full `obs::MetricsRegistry` snapshot to the results
/// file, one line per exported value, under the pseudo-bench name
/// "registry/<binary>".  Counters and gauges emit their value;
/// histograms fan out into count/mean/p50/p95/p99/max lines, so
/// bench_results.json carries tail latencies from *inside* the
/// subsystems (storage commit_us, per-class delivery latency, …), not
/// just the end-to-end numbers the bench loop can see.
inline void DumpRegistry(const std::string& path, const std::string& binary) {
  std::ofstream out(path, std::ios::app);
  if (!out.good()) return;
  const std::string bench = JsonEscape("registry/" + binary);
  auto emit = [&](const std::string& metric, double value) {
    out << "{\"bench\":\"" << bench << "\",\"metric\":\""
        << JsonEscape(metric) << "\",\"value\":" << value << "}\n";
  };
  for (const auto& sample : ::deluge::obs::MetricsRegistry::Global()
           .Snapshot()) {
    const std::string key = sample.Key();
    if (sample.kind == ::deluge::obs::MetricKind::kHistogram) {
      if (sample.hist.count() == 0) continue;
      emit(key + ".count", double(sample.hist.count()));
      emit(key + ".mean", sample.hist.mean());
      emit(key + ".p50", sample.hist.P50());
      emit(key + ".p95", sample.hist.P95());
      emit(key + ".p99", sample.hist.P99());
      emit(key + ".max", double(sample.hist.max()));
    } else {
      emit(key, sample.value);
    }
  }
  out.flush();
}

/// When $DELUGE_TRACE_SAMPLE is a positive integer n, samples one in n
/// root spans for the whole run (tracing is otherwise disabled, its
/// default).
inline void MaybeEnableTracing() {
  const char* env = std::getenv("DELUGE_TRACE_SAMPLE");
  if (env == nullptr || *env == '\0') return;
  long n = std::atol(env);
  if (n > 0) ::deluge::obs::Tracer::Global().Enable(uint64_t(n));
}

/// When $DELUGE_TRACE_JSONL names a file, dumps any spans the global
/// tracer sampled during the run (no-op while tracing is disabled,
/// which is the default).
inline void MaybeDumpTraces() {
  const char* env = std::getenv("DELUGE_TRACE_JSONL");
  if (env == nullptr || *env == '\0') return;
  ::deluge::obs::Tracer::Global().DumpJsonl(env);
}

/// argv[0] without its directory prefix — the registry pseudo-bench id.
inline std::string BinaryName(const char* argv0) {
  std::string name = (argv0 != nullptr) ? argv0 : "bench";
  size_t slash = name.find_last_of('/');
  return slash == std::string::npos ? name : name.substr(slash + 1);
}

}  // namespace deluge::bench

/// BENCHMARK_MAIN plus the JSONL file reporter, registry dump, and the
/// optional trace dump.  Exits 1 when any run reported an error, so a
/// bench oracle that calls `SkipWithError` fails its CI step.
#define DELUGE_BENCH_MAIN()                                                  \
  int main(int argc, char** argv) {                                          \
    std::string binary = ::deluge::bench::BinaryName(argc > 0 ? argv[0]      \
                                                              : nullptr);    \
    ::benchmark::Initialize(&argc, argv);                                    \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;      \
    std::unique_ptr<::benchmark::BenchmarkReporter> console(                 \
        ::benchmark::CreateDefaultDisplayReporter());                       \
    ::deluge::bench::JsonLinesReporter json(::deluge::bench::ResultsPath()); \
    ::deluge::bench::TeeReporter tee(console.get(), &json);                  \
    ::deluge::bench::MaybeEnableTracing();                                   \
    ::benchmark::RunSpecifiedBenchmarks(&tee);                               \
    ::deluge::bench::DumpRegistry(::deluge::bench::ResultsPath(), binary);   \
    ::deluge::bench::MaybeDumpTraces();                                      \
    ::benchmark::Shutdown();                                                 \
    return json.errored() ? 1 : 0;                                           \
  }                                                                          \
  int main(int, char**)

#endif  // DELUGE_BENCH_BENCH_JSON_H_
