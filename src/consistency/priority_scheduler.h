#ifndef DELUGE_CONSISTENCY_PRIORITY_SCHEDULER_H_
#define DELUGE_CONSISTENCY_PRIORITY_SCHEDULER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/qos.h"
#include "net/simulator.h"
#include "obs/metrics.h"

namespace deluge::net {
class Network;
}  // namespace deluge::net

namespace deluge::consistency {

/// One pending transmission.  The ordering class is the process-wide
/// `QosClass` taxonomy (Section IV-C: "more critical data can be
/// transmitted first before less critical data"): kRealtime = casualty
/// reports / live poses, kInteractive = user-facing responses,
/// kTelemetry = attribute refreshes, kBulk = media, map tiles, logs.
struct PendingUpdate {
  uint64_t id = 0;
  QosClass qos = QosClass::kTelemetry;
  uint64_t bytes = 0;
  Micros deadline = 0;  ///< absolute; 0 => none
  std::function<void(Micros delivered_at)> on_delivered;
};

/// Link-scheduling disciplines compared by E4.
enum class TxPolicy {
  kFifo,             ///< arrival order, class-blind
  kStrictPriority,   ///< realtime > interactive > telemetry > bulk,
                     ///< FIFO within a class
  kEdfWithinClass,   ///< strict priority; EDF ordering inside a class
};

/// Per-QoS-class delivery statistics.
struct ClassStats {
  Histogram latency;
  uint64_t delivered = 0;
  uint64_t deadline_misses = 0;
};

/// Serializes updates over one constrained link of `bandwidth` bytes/sec,
/// in virtual time.  Submissions enqueue; the scheduler transmits one
/// update at a time, choosing the next by policy.  This models the
/// military-exercise field link or a congested mobile edge, where the
/// ordering discipline decides whether critical data arrives in time.
class TransmissionScheduler {
 public:
  TransmissionScheduler(net::Simulator* sim, double bandwidth_bytes_per_sec,
                        TxPolicy policy);

  /// Enqueues `update` at the current virtual time.
  void Submit(PendingUpdate update);

  ClassStats stats_for(QosClass c) const { return m_[uint8_t(c)].view.Read(); }
  uint64_t queued() const;
  uint64_t total_delivered() const;

 private:
  void MaybeStartTransmission();

  net::Simulator* sim_;
  double bandwidth_;
  TxPolicy policy_;
  bool busy_ = false;
  struct Item {
    PendingUpdate update;
    Micros enqueued_at;
    uint64_t seq;
  };
  std::deque<Item> queue_;
  uint64_t next_seq_ = 0;
  obs::StatsScope obs_{"txsched"};
  /// Per-class handles, labelled {qos=realtime|interactive|telemetry|bulk}.
  struct ClassMetrics {
    ClassMetrics(obs::StatsScope& scope, QosClass c)
        : view(scope, {{"qos", QosClassName(c)}}) {}
    obs::StatsView<ClassStats> view;
    obs::ConcurrentHistogram* latency =
        view.histogram("latency_us", &ClassStats::latency);
    obs::Counter* delivered = view.counter("delivered", &ClassStats::delivered);
    obs::Counter* deadline_misses =
        view.counter("deadline_misses", &ClassStats::deadline_misses);
  };
  std::vector<ClassMetrics> m_;  // indexed by uint8_t(QosClass)
};

}  // namespace deluge::consistency

#endif  // DELUGE_CONSISTENCY_PRIORITY_SCHEDULER_H_
