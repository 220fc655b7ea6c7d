#ifndef DELUGE_CONSISTENCY_COHERENCY_H_
#define DELUGE_CONSISTENCY_COHERENCY_H_

#include <cstdint>
#include <string>
#include <unordered_map>

#include "common/clock.h"
#include "common/qos.h"
#include "geo/geometry.h"
#include "obs/metrics.h"

namespace deluge::consistency {

/// A per-entity coherency contract (Section IV-C: "tolerate some degree
/// of discrepancies — for numerical data, they may be within certain
/// coherency requirements").
///
/// The mirrored copy of an entity is allowed to deviate from the source
/// by at most `value_bound` (metres for positions, native units for
/// scalars) and to be at most `max_staleness` old.  An update is
/// transmitted only when either bound would otherwise be violated.
struct CoherencyContract {
  double value_bound = 0.0;           ///< 0 => every change transmits
  Micros max_staleness = kMicrosPerSecond;
};

/// Dissemination accounting.
struct CoherencyStats {
  uint64_t updates_offered = 0;   ///< source-side changes observed
  uint64_t updates_sent = 0;      ///< actually transmitted
  uint64_t updates_suppressed = 0;
  uint64_t bytes_sent = 0;
  /// Sum and max of the deviation present at suppression decisions — the
  /// error the mirror actually carries.
  double deviation_sum = 0.0;
  double deviation_max = 0.0;

  double SuppressionRatio() const {
    return updates_offered == 0
               ? 0.0
               : double(updates_suppressed) / double(updates_offered);
  }
  double MeanDeviation() const {
    return updates_suppressed == 0 ? 0.0
                                   : deviation_sum / double(updates_suppressed);
  }
};

/// The portable per-entity filter state: what the mirror last received
/// and when.  Extracted/restored verbatim when an entity's ownership
/// migrates between sharded engine slices, so suppression decisions
/// after a handoff are identical to a run that never migrated.
struct MirrorState {
  geo::Vec3 last_sent_vec;
  double last_sent_scalar = 0.0;
  Micros last_sent_at = INT64_MIN;
  bool ever_sent = false;
};

/// Decides, per entity, whether a new source value must be pushed to the
/// mirror under that entity's coherency contract.  Generic over the value
/// kind via a distance function; concrete aliases below cover positions
/// and scalars.
class CoherencyFilter {
 public:
  /// `default_contract` applies to entities without an explicit one.
  explicit CoherencyFilter(CoherencyContract default_contract = {});

  /// Installs a per-entity contract.
  void SetContract(uint64_t entity, const CoherencyContract& contract);

  /// Offers a new position for `entity` at `now`; returns true when the
  /// update must be transmitted (and records it as sent, charging
  /// `bytes`).  False means the mirror stays within bounds.  `qos`
  /// labels the refresh-gap sample this transmission closes — the
  /// freshness leg of the per-class SLO accounting.
  bool Offer(uint64_t entity, const geo::Vec3& value, Micros now,
             uint64_t bytes = 64, QosClass qos = QosClass::kRealtime);

  /// Scalar variant (sensor readings, stock counts, …).
  bool OfferScalar(uint64_t entity, double value, Micros now,
                   uint64_t bytes = 16, QosClass qos = QosClass::kTelemetry);

  /// The value the mirror currently holds (last transmitted), if any.
  bool MirrorValue(uint64_t entity, geo::Vec3* out) const;

  /// Removes `entity`'s filter state and returns it in `*out`; false
  /// when the filter holds no state for it (never offered).  Counters
  /// are unaffected — migration moves state, not history.
  bool ExtractEntity(uint64_t entity, MirrorState* out);

  /// Installs filter state for `entity` (the other half of a handoff).
  /// Overwrites any existing state.
  void RestoreEntity(uint64_t entity, const MirrorState& state);

  CoherencyStats stats() const { return view_.Read(); }

 private:
  bool Decide(MirrorState& st, double deviation, Micros now,
              const CoherencyContract& contract, uint64_t bytes,
              QosClass qos);
  const CoherencyContract& ContractFor(uint64_t entity) const;

  CoherencyContract default_contract_;
  std::unordered_map<uint64_t, CoherencyContract> contracts_;
  std::unordered_map<uint64_t, MirrorState> states_;
  obs::StatsScope obs_{"coherency"};
  obs::StatsView<CoherencyStats> view_{obs_};
  obs::Counter* updates_offered_ =
      view_.counter("updates_offered", &CoherencyStats::updates_offered);
  obs::Counter* updates_sent_ =
      view_.counter("updates_sent", &CoherencyStats::updates_sent);
  obs::Counter* updates_suppressed_ =
      view_.counter("updates_suppressed", &CoherencyStats::updates_suppressed);
  obs::Counter* bytes_sent_ =
      view_.counter("bytes_sent", &CoherencyStats::bytes_sent);
  obs::Gauge* deviation_sum_ =
      view_.gauge("deviation_sum", &CoherencyStats::deviation_sum);
  obs::Gauge* deviation_max_ = view_.gauge(
      "deviation_max", &CoherencyStats::deviation_max, obs::Gauge::Agg::kMax);
  // Virtual-time gap between consecutive mirror refreshes of an entity
  // — the staleness the mirror actually carried, per QoS class.
  obs::ConcurrentHistogram* refresh_gap_us_[kQosClassCount] = {};
};

}  // namespace deluge::consistency

#endif  // DELUGE_CONSISTENCY_COHERENCY_H_
