// E25 — the end-to-end QoS regression gate (DESIGN.md §13).
//
// Composes the paper's three §II applications — live event streaming
// (kRealtime/kInteractive), the digital-twin hospital (kTelemetry), and
// city-scale AR navigation (kInteractive/kBulk) — into one
// `MixedScenario`, then grades every per-class hop histogram against
// `QosPolicy::Default()` via `ComputeSloReport`.
//
// Unlike the other benches this binary is a *gate*: it exits non-zero
// when
//   - the kRealtime delivery SLO (broker.delivery_us / net.send_us)
//     is violated or has silently stopped being measured, or
//   - the kTelemetry durability SLO regresses (commit latency misses
//     its target, or durable commits stop issuing WAL syncs).
// CI runs it as a smoke step with DELUGE_E25_TICKS=40.
//
// Results still land in bench_results.json (one line per totals/SLO
// value plus the full registry dump), so the perf-trajectory tooling
// diffs E25 like every other experiment.

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "bench_json.h"
#include "core/scenarios.h"

namespace {

using namespace deluge;        // NOLINT
using namespace deluge::core;  // NOLINT

int EnvInt(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  const int parsed = std::atoi(v);
  return parsed > 0 ? parsed : fallback;
}

void EmitLine(std::ofstream& out, const std::string& metric, double value) {
  out << "{\"bench\": \"e25_e2e\", \"metric\": \""
      << deluge::bench::JsonEscape(metric) << "\", \"value\": " << value
      << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  ScenarioOptions options;
  options.ticks = EnvInt("DELUGE_E25_TICKS", options.ticks);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--ticks=", 0) == 0) {
      const int ticks = std::atoi(arg.c_str() + 8);
      if (ticks > 0) options.ticks = ticks;
    }
  }

  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::path store_dir =
      fs::temp_directory_path(ec) /
      ("deluge_e25_" + std::to_string(uint64_t(::getpid())));
  if (!ec) {
    fs::create_directories(store_dir, ec);
    if (!ec) options.storage_dir = store_dir.string();
  }

  std::printf("E25: mixed scenario, %d ticks x %lld ms, %zu shards%s\n",
              options.ticks,
              static_cast<long long>(options.tick_dt / kMicrosPerMilli),
              options.num_shards,
              options.storage_dir.empty() ? " (no storage leg)" : "");

  ScenarioTotals totals;
  {
    MixedScenario scenario(options);
    totals = scenario.Run();
  }  // scopes retire -> registry folds into instance="all" aggregates

  const SloReport report = ComputeSloReport();
  std::printf(
      "ingested=%llu refreshes=%llu delivered=%llu shed=%llu "
      "rebalances=%llu\n"
      "nav_completed=%llu serverless_shed=%llu telemetry_commits=%llu "
      "wal_syncs=%llu\n"
      "wan: forwarded=%llu received=%llu gave_up=%llu\n\n%s",
      static_cast<unsigned long long>(totals.updates_ingested),
      static_cast<unsigned long long>(totals.mirror_refreshes),
      static_cast<unsigned long long>(totals.broker_deliveries),
      static_cast<unsigned long long>(totals.broker_shed),
      static_cast<unsigned long long>(totals.rebalances),
      static_cast<unsigned long long>(totals.nav_completed),
      static_cast<unsigned long long>(totals.serverless_shed),
      static_cast<unsigned long long>(totals.telemetry_commits),
      static_cast<unsigned long long>(totals.wal_syncs),
      static_cast<unsigned long long>(totals.remote_forwarded),
      static_cast<unsigned long long>(totals.remote_received),
      static_cast<unsigned long long>(totals.remote_gave_up),
      report.ToString().c_str());

  // ---- JSONL sidecar --------------------------------------------------
  const std::string path = deluge::bench::ResultsPath();
  {
    std::ofstream out(path, std::ios::app);
    EmitLine(out, "ticks", double(options.ticks));
    EmitLine(out, "updates_ingested", double(totals.updates_ingested));
    EmitLine(out, "mirror_refreshes", double(totals.mirror_refreshes));
    EmitLine(out, "broker_deliveries", double(totals.broker_deliveries));
    EmitLine(out, "broker_shed", double(totals.broker_shed));
    EmitLine(out, "nav_completed", double(totals.nav_completed));
    EmitLine(out, "telemetry_commits", double(totals.telemetry_commits));
    EmitLine(out, "wal_syncs", double(totals.wal_syncs));
    EmitLine(out, "remote_received", double(totals.remote_received));
    EmitLine(out, "remote_gave_up", double(totals.remote_gave_up));
    for (const auto& cls : report.classes) {
      for (const auto& leg : cls.legs) {
        const std::string prefix =
            std::string("slo/") + QosClassName(cls.cls) + "/" + leg.leg;
        EmitLine(out, prefix + "/attainment", leg.attainment);
        EmitLine(out, prefix + "/p99", leg.p99);
        EmitLine(out, prefix + "/samples", double(leg.samples));
      }
    }
  }
  deluge::bench::DumpRegistry(
      path, deluge::bench::BinaryName(argc > 0 ? argv[0] : nullptr));

  if (!options.storage_dir.empty()) {
    fs::remove_all(options.storage_dir, ec);
  }

  // ---- The gate -------------------------------------------------------
  int violations = 0;
  auto require = [&](bool ok, const char* what) {
    if (ok) return;
    ++violations;
    std::printf("E25 GATE: %s\n", what);
  };

  const LegSlo* rt_delivery =
      report.leg(QosClass::kRealtime, "broker.delivery_us");
  require(rt_delivery != nullptr && rt_delivery->samples > 0,
          "kRealtime broker deliveries are no longer being measured");
  require(rt_delivery == nullptr || rt_delivery->met,
          "kRealtime broker delivery SLO violated");
  const LegSlo* rt_wan = report.leg(QosClass::kRealtime, "net.send_us");
  require(rt_wan == nullptr || rt_wan->met,
          "kRealtime WAN delivery SLO violated");

  const LegSlo* tel_commit =
      report.leg(QosClass::kTelemetry, "storage.commit_us");
  if (!options.storage_dir.empty()) {
    require(tel_commit != nullptr && tel_commit->samples > 0,
            "kTelemetry commits are no longer being measured");
    require(totals.telemetry_commits == 0 || totals.wal_syncs > 0,
            "durable kTelemetry commits issued no WAL syncs");
  }
  require(tel_commit == nullptr || tel_commit->met,
          "kTelemetry commit-latency SLO violated");

  std::printf("\nE25 gate: %s\n", violations == 0 ? "PASS" : "FAIL");
  return violations == 0 ? 0 : 1;
}
