#ifndef DELUGE_CHAOS_FAULT_SCHEDULE_H_
#define DELUGE_CHAOS_FAULT_SCHEDULE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "net/transport.h"
#include "obs/metrics.h"

namespace deluge::chaos {

/// Kinds of injectable faults.  Start/end pairs are separate events so a
/// schedule is a flat, sorted, replayable list.
enum class FaultKind : uint8_t {
  kNodeCrash,         ///< fail-stop: node drops all traffic
  kNodeRestart,
  kLinkDown,          ///< link flap start (both directions)
  kLinkUp,
  kPartition,         ///< protocol-visible pairwise partition
  kHeal,
  kLatencySpikeStart, ///< adds `extra_latency` one-way on the pair
  kLatencySpikeEnd,
  kBurstLossStart,    ///< Gilbert–Elliott correlated loss window
  kBurstLossEnd,
};

std::string_view FaultKindName(FaultKind kind);

/// One scheduled fault.  Node faults use `a`; pair faults use `a` and
/// `b`.
struct FaultEvent {
  Micros at = 0;
  FaultKind kind = FaultKind::kNodeCrash;
  net::NodeId a = 0;
  net::NodeId b = 0;
  Micros extra_latency = 0;      ///< latency spikes
  net::BurstLossModel burst{};   ///< burst-loss windows
};

/// Faults applied; the per-kind counts are the registry's
/// `chaos.injected{kind=…}` counters.
struct ChaosStats {
  uint64_t total = 0;
};

/// Tuning for seeded-random schedule generation.  Rates are per node (or
/// per pair drawn uniformly from `pairs`) per simulated second; durations
/// are exponential with the given mean.  Everything is derived from one
/// seed, so a schedule is fully reproducible.
struct RandomScheduleOptions {
  Micros horizon = 10 * kMicrosPerSecond;
  double crash_rate_per_node_sec = 0.05;
  Micros mean_outage = 500 * kMicrosPerMilli;
  double flap_rate_per_pair_sec = 0.05;
  Micros mean_flap = 200 * kMicrosPerMilli;
  double partition_rate_per_pair_sec = 0.02;
  Micros mean_partition = kMicrosPerSecond;
  double spike_rate_per_pair_sec = 0.05;
  Micros mean_spike = 500 * kMicrosPerMilli;
  Micros spike_extra_latency = 100 * kMicrosPerMilli;
  double burst_rate_per_pair_sec = 0.05;
  Micros mean_burst_window = kMicrosPerSecond;
  net::BurstLossModel burst{};
};

/// A deterministic fault-injection schedule over a simulated network.
///
/// Faults are scripted with the builder methods (and/or generated from a
/// seed), then `Arm()` places them on the simulator.  Every applied
/// fault is appended to a human-readable trace whose hash fingerprints
/// the run — two runs with the same seed produce bit-identical traces,
/// which is the property chaos tests pin down.
class FaultSchedule {
 public:
  /// `net` must outlive the schedule (and the run).
  explicit FaultSchedule(net::Transport* net);

  // Scripted builders; all return *this for chaining.  `duration` > 0
  // schedules the matching end event automatically.
  FaultSchedule& CrashNode(Micros at, net::NodeId n, Micros down_for = 0);
  FaultSchedule& FlapLink(Micros at, net::NodeId a, net::NodeId b,
                          Micros down_for);
  FaultSchedule& PartitionWindow(Micros at, net::NodeId a, net::NodeId b,
                                 Micros heal_after);
  /// Opens a partition between `a` and `b` at `at` with no scheduled
  /// heal (use `HealAt` to close it); expresses "partition until
  /// something else happens" scenarios.
  FaultSchedule& PartitionAt(Micros at, net::NodeId a, net::NodeId b);
  /// Schedules a standalone heal of the a<->b partition at `at`.
  /// Together with `PartitionAt` this lets partition-then-heal
  /// scenarios (the E22 anti-entropy runs) place the heal
  /// independently of the partition that opened it.
  FaultSchedule& HealAt(Micros at, net::NodeId a, net::NodeId b);
  FaultSchedule& LatencySpike(Micros at, net::NodeId a, net::NodeId b,
                              Micros extra, Micros duration);
  FaultSchedule& BurstLossWindow(Micros at, net::NodeId a, net::NodeId b,
                                 const net::BurstLossModel& model,
                                 Micros duration);
  /// Appends a raw event (advanced callers / generated schedules).
  FaultSchedule& Add(const FaultEvent& event);

  /// Generates a random schedule over `nodes` from `seed` and appends it
  /// (node events over all nodes, pair events over distinct sampled
  /// pairs).  Deterministic: same seed + nodes + options => same events.
  void GenerateRandom(uint64_t seed, const std::vector<net::NodeId>& nodes,
                      const RandomScheduleOptions& options);

  /// Sorts events by (time, insertion order) and schedules them on the
  /// transport's timer strand, with event times interpreted relative to
  /// the transport clock's value at the moment of arming (the sim clock
  /// starts at zero, so sim schedules are unchanged).  Call once,
  /// before running.
  void Arm();

  /// Observer invoked after every fault is applied (the event carries
  /// its kind, time, and endpoints).  Lets experiments react to fault
  /// edges — e.g. E22 kicks an anti-entropy round when a partition
  /// heals or a crashed node restarts — without polling network state.
  using FaultObserver = std::function<void(const FaultEvent&)>;
  void SetFaultObserver(FaultObserver observer) {
    observer_ = std::move(observer);
  }

  const std::vector<FaultEvent>& events() const { return events_; }
  const std::vector<std::string>& trace() const { return trace_; }
  /// Order-sensitive 64-bit fingerprint of the applied-fault trace.
  uint64_t TraceHash() const;
  ChaosStats stats() const { return view_.Read(); }

 private:
  void Apply(const FaultEvent& event);

  net::Transport* net_;
  std::vector<FaultEvent> events_;
  std::vector<std::string> trace_;
  FaultObserver observer_;
  obs::StatsScope obs_{"chaos"};
  obs::Counter* injected_[10];  // indexed by FaultKind, {kind=…} labels
  obs::StatsView<ChaosStats> view_{obs_};
  obs::Counter* total_ = view_.counter("total", &ChaosStats::total);
  bool armed_ = false;
};

}  // namespace deluge::chaos

#endif  // DELUGE_CHAOS_FAULT_SCHEDULE_H_
