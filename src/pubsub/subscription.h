#ifndef DELUGE_PUBSUB_SUBSCRIPTION_H_
#define DELUGE_PUBSUB_SUBSCRIPTION_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/buffer.h"
#include "common/qos.h"
#include "geo/geometry.h"
#include "net/network.h"
#include "stream/tuple.h"

namespace deluge::pubsub {

/// Comparison operators for content predicates.
enum class CmpOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

/// One field constraint: `field <op> value`.  Numeric comparisons use
/// `GetNumeric`; string comparisons only support kEq / kNe.
struct Predicate {
  std::string field;
  CmpOp op = CmpOp::kEq;
  stream::Value value;

  /// True when tuple `t` satisfies this predicate.
  bool Matches(const stream::Tuple& t) const;
};

/// A published event: topic + payload tuple + optional position (for
/// location-aware subscriptions, as in geo-textual pub/sub [41][21]).
///
/// Ownership rules (DESIGN.md §10): an Event is mutable while being
/// built; once published it is treated as immutable and shared —
/// queued-mode fan-out hands one `EventRef` to every queue slot, and
/// the wire path serialises once via `EnsureEncoded()` and shares the
/// refcounted Buffer across subscribers and retries.
struct Event {
  std::string topic;
  stream::Tuple payload;
  std::optional<geo::Vec3> position;
  uint64_t bytes = 256;
  /// Service class (DESIGN.md §13): decides shed order under overload,
  /// redelivery budget, and which SLO row the delivery counts against.
  QosClass qos = QosClass::kBulk;
  /// Publish time (virtual); lets subscribers measure staleness.
  Micros published_at = 0;

  /// The event's wire form, encoded at most once and cached; later
  /// calls (other subscribers, retries) share the same Buffer.  Must
  /// not be called before the event is fully built — the cache is not
  /// invalidated by later mutation.
  const common::Buffer& EnsureEncoded() const;
  /// Exact wire size in bytes.
  size_t EncodedSize() const;
  /// Parses a wire-form event; false on malformed input.
  static bool Decode(common::Slice in, Event* out);

 private:
  mutable common::Buffer encoded_;  // lazily filled by EnsureEncoded
};

/// Shared handle to a published (hence immutable) event: the unit the
/// delivery queue and fan-out paths pass around instead of Event copies.
using EventRef = std::shared_ptr<const Event>;

/// Receives one matched event on behalf of `subscriber`.
using DeliverFn =
    std::function<void(net::NodeId subscriber, const Event& event)>;

/// A standing interest registration.
///
/// An event matches when (a) the topic matches (empty = wildcard),
/// (b) the event position lies inside `region` when a region is set
/// (events without positions never match regional subscriptions), and
/// (c) every content predicate holds.
struct Subscription {
  uint64_t id = 0;
  net::NodeId subscriber = 0;
  std::string topic;
  std::optional<geo::AABB> region;
  std::vector<Predicate> predicates;
  /// Receives this subscription's matches (null: the broker's callback).
  /// A queued match holds a reference, so it still arrives at `Drain`
  /// after the subscription is removed.
  std::shared_ptr<const DeliverFn> deliver;

  bool Matches(const Event& event) const;
};

}  // namespace deluge::pubsub

#endif  // DELUGE_PUBSUB_SUBSCRIPTION_H_
