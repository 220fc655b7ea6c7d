#ifndef DELUGE_CORE_ENGINE_H_
#define DELUGE_CORE_ENGINE_H_

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "consistency/coherency.h"
#include "core/world_space.h"
#include "obs/metrics.h"
#include "pubsub/broker.h"

namespace deluge::core {

/// Builds the "mirror.position" event a mirror refresh publishes.
/// Shared by `CoSpaceEngine` and `ParallelEngine`, which publishes it on
/// the shard owning the event's position.  The event carries the
/// ingest's QoS class end-to-end (event, payload tuple, published_at =
/// ingest time) so downstream hops shed/schedule/account by class.
pubsub::Event MakeMirrorPositionEvent(EntityId id, const geo::Vec3& pos,
                                      Micros t,
                                      QosClass qos = QosClass::kRealtime);

/// Engine configuration.
struct EngineOptions {
  geo::AABB world_bounds{{0, 0, 0}, {1000, 1000, 100}};
  /// Default mirror contract for entities without a per-entity one.
  consistency::CoherencyContract default_contract{
      1.0, 500 * kMicrosPerMilli};
  /// Cell size of the broker's regional subscription index.
  double broker_cell = 50.0;
};

/// Synchronization counters (the data-flow arrows of Fig. 1).
struct EngineStats {
  uint64_t physical_updates = 0;   ///< sensed updates ingested
  uint64_t mirrored_updates = 0;   ///< pushed into the virtual space
  uint64_t suppressed_updates = 0; ///< held back by coherency contracts
  uint64_t virtual_commands = 0;   ///< virtual-space actions ingested
  uint64_t relayed_commands = 0;   ///< relayed to the physical side
  uint64_t events_published = 0;
};

/// The co-space engine: the paper's Fig. 1 realized.
///
/// Two `WorldSpace`s coexist.  Sensed physical updates flow in via
/// `IngestPhysical*`; a per-entity coherency contract decides whether
/// the virtual mirror must be refreshed (Section IV-C), and mirror
/// refreshes publish events on the embedded content+spatial broker so
/// cyber users (interest regions, topics) learn about them.  Actions
/// taken in the virtual space flow the other way through
/// `IssueVirtualCommand`, reaching physical-side handlers — the
/// air-raid-kills-the-troops loop of the military scenario.  Each
/// `ParallelEngine` shard is one `CoSpaceEngine`.
class CoSpaceEngine {
 public:
  /// Delivery callback for physical-side command handlers.
  using CommandHandler =
      std::function<void(EntityId target, const stream::Tuple& command)>;

  /// `labels` tag this engine's and its broker's registry metrics (a
  /// `ParallelEngine` shard passes {shard=<index>}).  `clock` is not
  /// read; it stays for the callers that pass one.
  explicit CoSpaceEngine(EngineOptions options, Clock* clock = nullptr,
                         obs::Labels labels = {});

  WorldSpace& physical() { return physical_; }
  WorldSpace& virtual_space() { return virtual_; }
  /// Watches are subscriptions with their own callback.  A subscription
  /// added here without one is matched and counted but delivered to
  /// nobody.
  pubsub::Broker& broker() { return *broker_; }
  /// This engine's metric scope ("engine.*" with its labels), for
  /// metrics filed beside the engine's own.
  obs::StatsScope& stats_scope() { return obs_; }

  /// Registers an entity in the physical space and (immediately) its
  /// virtual mirror.
  void SpawnPhysical(const Entity& entity);

  /// Registers a purely virtual entity (cyber user, virtual shop).
  void SpawnVirtual(const Entity& entity);

  /// Installs a per-entity coherency contract for mirroring.
  void SetContract(EntityId id, const consistency::CoherencyContract& c);

  /// Ingests a sensed physical position (the sensor->engine arrow):
  /// `ApplyPhysicalPosition`, then publishes the mirror refresh, if any,
  /// on this engine's broker.  Returns true when the mirror was
  /// refreshed.  `qos` rides the published event and labels the
  /// coherency hop metrics.
  bool IngestPhysicalPosition(EntityId id, const geo::Vec3& pos, Micros t,
                              QosClass qos = QosClass::kRealtime);

  /// The Fig. 1 step short of the publish: moves the physical entity,
  /// offers the position to the coherency contract and, if it demands a
  /// refresh, moves the mirror and returns true.  The caller publishes
  /// `MakeMirrorPositionEvent`, already counted in `events_published`.
  bool ApplyPhysicalPosition(EntityId id, const geo::Vec3& pos, Micros t,
                             QosClass qos);

  /// Ingests a sensed attribute (always mirrored — attributes are
  /// low-rate; positions are the firehose).
  Status IngestPhysicalAttribute(EntityId id, const std::string& name,
                                 stream::Value value, Micros t,
                                 QosClass qos = QosClass::kTelemetry);

  /// An action taken in the virtual space targeted at physical entities
  /// inside `region` (e.g. a simulated air raid).  The command is
  /// applied to the virtual space and relayed to every registered
  /// physical command handler per affected entity.  Returns affected
  /// entity count.
  size_t IssueVirtualCommand(const geo::AABB& region,
                             const stream::Tuple& command);

  /// The relay half of `IssueVirtualCommand` for entities resolved
  /// elsewhere (across `ParallelEngine` shards): counts one command and
  /// relays it per physical entity.  Returns `affected.size()`.
  size_t RelayVirtualCommand(std::span<const Entity* const> affected,
                             const stream::Tuple& command);

  /// Registers the physical-side command channel (ground relays).
  void OnPhysicalCommand(CommandHandler handler);

  /// Subscribes a cyber user to mirror updates inside `region`;
  /// returns the watch id (its broker subscription id).  `deliver`
  /// receives exactly the events this watch matched, with `subscriber`
  /// as their addressee, however many watches the same subscriber holds.
  uint64_t WatchRegion(net::NodeId subscriber, const geo::AABB& region,
                       pubsub::Broker::Deliver deliver);

  /// Removes a watch registered via `WatchRegion`; false when unknown.
  /// It matches nothing afterwards, but matches a queued broker already
  /// holds still reach its callback at `Drain`, as the broker counted.
  bool Unwatch(uint64_t watch_id);

  /// Moves entity `id` — its entries in both spaces and its coherency
  /// mirror state — into `to`, so `to` decides its next refresh exactly
  /// as this engine would have (an elastic shard handoff).
  void MigrateEntity(EntityId id, CoSpaceEngine& to);

  EngineStats stats() const { return view_.Read(); }
  const obs::StatsView<EngineStats>& stats_view() const { return view_; }

 private:
  WorldSpace physical_;
  WorldSpace virtual_;
  consistency::CoherencyFilter coherency_;
  std::unique_ptr<pubsub::Broker> broker_;
  std::vector<CommandHandler> command_handlers_;
  // Metrics "engine.*", labelled {subsystem=engine, instance=<id>} plus
  // the engine's labels.
  obs::StatsScope obs_;
  obs::StatsView<EngineStats> view_{obs_};
  obs::Counter* physical_updates_ =
      view_.counter("physical_updates", &EngineStats::physical_updates);
  obs::Counter* mirrored_updates_ =
      view_.counter("mirrored_updates", &EngineStats::mirrored_updates);
  obs::Counter* suppressed_updates_ =
      view_.counter("suppressed_updates", &EngineStats::suppressed_updates);
  obs::Counter* virtual_commands_ =
      view_.counter("virtual_commands", &EngineStats::virtual_commands);
  obs::Counter* relayed_commands_ =
      view_.counter("relayed_commands", &EngineStats::relayed_commands);
  obs::Counter* events_published_ =
      view_.counter("events_published", &EngineStats::events_published);
};

}  // namespace deluge::core

#endif  // DELUGE_CORE_ENGINE_H_
