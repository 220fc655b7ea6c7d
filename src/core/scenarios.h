#ifndef DELUGE_CORE_SCENARIOS_H_
#define DELUGE_CORE_SCENARIOS_H_

#include <array>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/qos.h"
#include "common/thread_pool.h"
#include "core/parallel_engine.h"
#include "core/workloads.h"
#include "net/network.h"
#include "net/simulator.h"
#include "pubsub/reliable.h"
#include "runtime/serverless.h"
#include "storage/kv_store.h"

namespace deluge::core {

/// Knobs for `MixedScenario` — the paper's three §II applications
/// composed into one mixed workload (E25).  Defaults run in a few
/// hundred milliseconds; the CI smoke run shrinks `ticks`.
struct ScenarioOptions {
  /// Virtual-time ticks to run and their spacing.  The tick interval is
  /// also the mirror refresh floor, so it must sit well inside the
  /// kRealtime freshness target (50 ms by default).
  int ticks = 200;
  Micros tick_dt = 20 * kMicrosPerMilli;

  // --- Live event streaming (§II-B): a concert crowd of kRealtime
  // avatars plus kInteractive roaming tour groups on a sharded engine.
  size_t crowd_entities = 512;
  double crowd_skew = 8.0;
  size_t ar_entities = 256;
  size_t num_swarms = 4;
  double swarm_spread = 30.0;

  // --- Digital-twin hospital (§II-A): kTelemetry vitals on a serial
  // engine, committed durably, archived in kBulk batches.
  size_t patients = 64;
  int archive_every = 20;  ///< ticks between kBulk archive batches

  // --- City-scale AR navigation (§II-C): serverless route queries
  // (kInteractive) racing map-tile prefetch (kBulk) under a
  // concurrency limit.
  size_t nav_invokes_per_tick = 12;
  size_t tile_prefetch_per_tick = 8;
  size_t nav_concurrency = 8;
  size_t nav_queue_limit = 16;

  // --- Remote mirror site: a sample of every class's events crosses
  // the simulated WAN through the retrying deliverer; periodic
  // partition windows exercise the per-class retry budgets.
  size_t remote_forward_per_tick = 24;
  /// Ticks between partition onsets (0 = off).  Keep this away from the
  /// deliverer's breaker open-duration (1 s = 50 ticks at the default
  /// dt): when the two resonate, every half-open probe lands inside the
  /// next partition window and the WAN never recovers.
  int partition_every = 60;
  int partition_ticks = 3;  ///< partition window length

  // --- Serving tier shape.
  size_t num_shards = 4;
  size_t broker_queue_limit = 4096;
  /// Queued deliveries are drained in chunks of this size with the
  /// virtual clock advanced `delivery_service_us` per delivery between
  /// chunks, so best-class-first draining turns into class-separated
  /// delivery latencies (kRealtime leaves in the first chunks).
  size_t drain_chunk = 256;
  Micros delivery_service_us = 4;

  /// KVStore directory for the durable-telemetry leg; empty skips the
  /// storage leg entirely (totals report zero commits).
  std::string storage_dir;
  uint64_t seed = 42;
};

/// What actually happened, summed across the three applications.
struct ScenarioTotals {
  uint64_t updates_ingested = 0;    ///< sensed position updates
  uint64_t mirror_refreshes = 0;
  uint64_t broker_deliveries = 0;   ///< both engines' brokers
  uint64_t broker_shed = 0;         ///< shed by bounded queues
  uint64_t rebalances = 0;          ///< elastic migrations executed
  uint64_t nav_completed = 0;       ///< route queries finished
  uint64_t serverless_shed = 0;     ///< admission-queue sheds
  uint64_t telemetry_commits = 0;   ///< durable vitals batches
  uint64_t archive_commits = 0;     ///< kBulk archive batches
  uint64_t wal_syncs = 0;           ///< fdatasyncs actually issued
  uint64_t remote_forwarded = 0;    ///< events handed to the deliverer
  uint64_t remote_received = 0;     ///< frames that reached the site
  uint64_t remote_gave_up = 0;      ///< retry budgets exhausted
};

/// The E25 end-to-end composition: live event streaming, the hospital
/// digital twin, and AR navigation share one process, one QoS taxonomy
/// (DESIGN.md §13), and one metrics registry.  Running it populates
/// every per-class hop histogram (`engine.ingest_ns`,
/// `coherency.refresh_gap_us`, `broker.delivery_us`, `net.send_us`,
/// `storage.commit_us`), which `ComputeSloReport` then grades against a
/// `QosPolicy` — the regression gate `bench_e25_e2e` ships.
class MixedScenario {
 public:
  explicit MixedScenario(ScenarioOptions options);
  ~MixedScenario();
  MixedScenario(const MixedScenario&) = delete;
  MixedScenario& operator=(const MixedScenario&) = delete;

  /// Runs the configured number of ticks and returns the totals.
  /// Single-shot: construct a fresh scenario per run.
  ScenarioTotals Run();

  const ScenarioOptions& options() const { return options_; }

 private:
  void DrainBrokers();
  void TickHospital(int tick, Micros now);
  void TickNavigation();
  void TickRemoteSite(int tick);

  ScenarioOptions options_;
  SimClock clock_;          // engines' virtual time
  net::Simulator sim_;      // WAN + serverless virtual time
  ThreadPool pool_;

  // Live event streaming tier.
  std::unique_ptr<ParallelEngine> engine_;
  std::unique_ptr<FlashCrowdWorkload> crowd_;
  std::unique_ptr<RoamingSwarmWorkload> swarms_;
  EntityId swarm_id_offset_ = 0;

  // Hospital twin tier.
  std::unique_ptr<CoSpaceEngine> hospital_;

  // AR navigation tier.
  runtime::ServerlessRuntime runtime_;

  // Remote mirror site.
  net::Network net_;
  pubsub::ReliableDeliverer deliverer_;
  net::NodeId local_site_ = 0;
  net::NodeId remote_site_ = 0;
  std::vector<pubsub::Event> remote_backlog_;
  uint64_t backlog_sampler_ = 0;

  // Durable telemetry tier (null when storage_dir is empty).
  std::unique_ptr<storage::KVStore> store_;

  ScenarioTotals totals_;
};

// ---------------------------------------------------------------------
// Per-class SLO accounting over the metrics registry.

/// Attainment of one class at one hop.
struct LegSlo {
  std::string leg;            ///< registry metric name
  uint64_t samples = 0;
  double p99 = 0.0;           ///< in the leg's unit (its name's suffix)
  Micros target_us = 0;       ///< 0 = informational, no claim
  double min_attainment = 0.0;
  double attainment = 1.0;    ///< fraction of samples <= target
  /// True when the claim holds (vacuously for informational legs and
  /// legs nothing was measured against).
  bool met = true;
};

struct ClassSlo {
  QosClass cls = QosClass::kBulk;
  std::vector<LegSlo> legs;
  bool met = true;  ///< every claimed leg met
};

/// The per-class scorecard `bench_e25_e2e` gates on.
struct SloReport {
  std::array<ClassSlo, kQosClassCount> classes;
  bool all_met = true;

  const ClassSlo& for_class(QosClass c) const {
    return classes[uint8_t(c)];
  }
  /// The named leg of `c`; nullptr when it has no samples and no claim.
  const LegSlo* leg(QosClass c, std::string_view name) const;
  /// Fixed-width human-readable table (one line per class × leg).
  std::string ToString() const;
};

/// Grades the global registry against `policy`: for every class, each
/// instrumented hop's `{qos=...}` histograms are merged across
/// instances and scored as FractionBelow(target) >= min_attainment.
/// Hops and their policy targets:
///   engine.ingest_ns          — informational (wall-clock ns per
///                               update, sharded engine only; no claim)
///   coherency.refresh_gap_us  — freshness_us
///   broker.delivery_us        — delivery_p99_us
///   net.send_us               — delivery_p99_us (the WAN hop shares
///                               the delivery claim)
///   storage.commit_us         — commit_p99_us
/// Legs with zero samples or a zero target are vacuously met, so the
/// report is meaningful for partial deployments too.
SloReport ComputeSloReport(const QosPolicy& policy = QosPolicy::Default());

}  // namespace deluge::core

#endif  // DELUGE_CORE_SCENARIOS_H_
