// deluge_perfbench: the repo benchmark driver.
//
//   deluge_perfbench --workload <crowd_fanout|mirror_remote|twin_store>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    [--smoke] [--fault <name>] [--work-dir <dir>]
//
// Runs one seeded workload through the public APIs of core, consistency,
// pubsub, net, replica and storage, audits its outputs, and prints one
// JSON object as the last stdout line (see perfbench/run.py, which builds
// this binary and adds the run stamp).  `--trace 0` reports the
// end-to-end metrics; `--trace 1` reports the per-layer metrics.
//
// `--child ...` is the mirror_remote replica/viewer host (spawned by the
// driver itself, never by hand).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common.h"
#include "obs/trace.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;  // NOLINT

int Usage() {
  std::fprintf(stderr,
               "usage: deluge_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--smoke] [--fault <name>] "
               "[--work-dir <dir>]\n");
  return 2;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out;
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

void AppendMetric(std::string* out, const Metric& m, bool* first) {
  if (!*first) *out += ",";
  *first = false;
  *out += "\"" + m.name + "\":{\"value\":" + Num(m.value) + ",\"unit\":\"" +
          m.unit + "\"}";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--child") == 0) {
    return RunMirrorChild(argc, argv);
  }
  Args args;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      args.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      args.trace = std::strcmp(argv[++i], "0") != 0;
      have_trace = true;
    } else if (a == "--smoke") {
      args.smoke = true;
    } else if (a == "--fault" && has_value) {
      args.fault = argv[++i];
    } else if (a == "--work-dir" && has_value) {
      args.work_dir = argv[++i];
    } else {
      return Usage();
    }
  }
  if (args.workload.empty() || !have_trace || !(args.seconds > 0)) {
    return Usage();
  }
  // Timing numbers from unoptimized or assert-enabled builds never mix
  // into results.
#ifndef NDEBUG
  std::fprintf(stderr, "deluge_perfbench: refusing a build without NDEBUG\n");
  return 3;
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "deluge_perfbench: refusing build type %s\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  // Untraced runs keep the program's own tracer off as well.
  deluge::obs::Tracer::Global().Disable();

  Result result;
  int rc = 0;
  if (args.workload == "crowd_fanout") {
    rc = RunCrowdFanout(args, &result);
  } else if (args.workload == "mirror_remote") {
    rc = RunMirrorRemote(args, &result);
  } else if (args.workload == "twin_store") {
    rc = RunTwinStore(args, &result);
  } else {
    std::fprintf(stderr, "deluge_perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  if (rc != 0) return rc;
  if (deluge::obs::Tracer::Global().enabled()) {
    result.Fail("obs::Tracer was enabled during the run");
  }
  if (result.attempted == 0) result.Fail("no operation attempted");

  std::string metrics;
  bool first = true;
  if (args.trace) {
    result.Layer("driver.error_ratio",
                 double(result.failed) /
                     double(std::max<uint64_t>(1, result.attempted)),
                 "ratio");
    for (const auto& [name, unit] : LayerMetricNames()) {
      Metric m{name, 0.0, unit};
      for (const Metric& got : result.layer) {
        if (got.name == name) m = got;
      }
      AppendMetric(&metrics, m, &first);
    }
    for (const Metric& got : result.layer) {
      bool known = false;
      for (const auto& [name, unit] : LayerMetricNames()) {
        known = known || name == got.name;
      }
      if (!known) result.Detail(got.name, got.value, got.unit);
    }
  } else {
    for (const Metric& m : result.e2e) AppendMetric(&metrics, m, &first);
  }
  std::string detail;
  first = true;
  for (const Metric& m : result.detail) AppendMetric(&detail, m, &first);
  std::string notes;
  for (const std::string& n : result.notes) {
    notes += (notes.empty() ? "\"" : ",\"") + JsonEscape(n) + "\"";
  }
  std::printf(
      "{\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%s,\"trace\":%d,"
      "\"stamp\":{\"nproc\":%u,\"compiler\":\"%s\",\"build_type\":\"%s\"},"
      "\"notes\":[%s],\"detail\":{%s},"
      "\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
      "\"metrics\":{%s}}\n",
      args.workload.c_str(), (unsigned long long)args.seed,
      Num(args.seconds).c_str(), args.trace ? 1 : 0,
      std::thread::hardware_concurrency(), PERFBENCH_COMPILER,
      PERFBENCH_BUILD_TYPE, notes.c_str(), detail.c_str(),
      result.correct ? "true" : "false",
      (unsigned long long)result.attempted,
      (unsigned long long)result.failed, metrics.c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
