#ifndef DELUGE_CORE_PARALLEL_ENGINE_H_
#define DELUGE_CORE_PARALLEL_ENGINE_H_

#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/small_vec.h"
#include "common/thread_pool.h"
#include "core/engine.h"

namespace deluge::core {

/// One sensed position update — the unit of the batched ingest API.
struct SensedUpdate {
  EntityId id = 0;
  geo::Vec3 position;
  Micros t = 0;
  /// Rides the emitted mirror event end-to-end (shedding, scheduling,
  /// per-class SLO accounting downstream).
  QosClass qos = QosClass::kRealtime;
};

/// Maps positions to spatial shards through an explicit tile→shard
/// assignment.
///
/// The world's XY extent is cut into a grid of `cell`-sized tiles and
/// each tile's Morton code (`geo::MortonCodec::Interleave2D` of its
/// coordinates) indexes a dense assignment table.  The initial
/// assignment stripes tiles across shards in Z-order (`code %
/// num_shards`), which spreads a uniform world evenly; an elastic
/// rebalancer may later install any other assignment — contiguous
/// Morton ranges sized by measured load — via `SetAssignment`.  Z is
/// ignored: metaverse worlds are flat relative to their horizontal
/// extent.
///
/// `ShardOf` is one clamp + interleave + table load; `ShardsCovering`
/// fills a caller-provided `common::SmallVec`, so neither allocates on
/// the hot path.
class SpatialSharder {
 public:
  /// Distinct-shard result set.  Inline capacity covers every practical
  /// shard count without touching the heap.
  using ShardList = common::SmallVec<size_t, 16>;

  /// Tile grids are capped at this many tiles per axis; finer `cell`
  /// values are coarsened so the dense assignment table stays small
  /// (≤ 128×128 → ≤ 16384 codes after rounding up to a power of two).
  static constexpr int64_t kMaxTilesPerAxis = 128;

  SpatialSharder(const geo::AABB& world, double cell, size_t num_shards);

  /// The shard owning the tile containing `p` (clamped into the world).
  size_t ShardOf(const geo::Vec3& p) const { return map_[TileCodeOf(p)]; }

  /// Fills `out` with the distinct shards owning any tile touching
  /// `box`, ascending.  Falls back to "all shards" when the box covers
  /// more tiles than is worth enumerating (or when num_shards exceeds
  /// the 64-bit seen-mask).  Allocation-free while the result fits the
  /// inline capacity.
  void ShardsCovering(const geo::AABB& box, ShardList* out) const;

  /// Morton code of the tile containing `p` (clamped into the grid);
  /// always < `tile_code_limit()`.
  uint32_t TileCodeOf(const geo::Vec3& p) const;

  /// Size of the assignment table (a power of four; includes codes for
  /// padding tiles outside the world that never receive load).
  size_t tile_code_limit() const { return map_.size(); }

  /// The current tile→shard assignment, indexed by tile Morton code.
  const std::vector<uint32_t>& assignment() const { return map_; }

  /// Installs a new assignment (must have `tile_code_limit()` entries,
  /// every value < num_shards).  Callers serialize against ShardOf /
  /// ShardsCovering readers.
  void SetAssignment(std::vector<uint32_t> assignment);

  /// Builds a load-balanced assignment: walking tiles in Morton order,
  /// contiguous code ranges are cut so each shard carries ~1/n of the
  /// total `tile_load` — hot ranges end up split across several shards,
  /// cold ranges merged onto one.  A zero total load yields an even
  /// contiguous split.
  static std::vector<uint32_t> BalancedAssignment(
      const std::vector<double>& tile_load, size_t num_shards);

  size_t num_shards() const { return num_shards_; }
  double cell() const { return cell_; }

 private:
  int64_t TileX(double x) const;
  int64_t TileY(double y) const;

  geo::AABB world_;
  double cell_;
  size_t num_shards_;
  int64_t tiles_x_ = 1;
  int64_t tiles_y_ = 1;
  std::vector<uint32_t> map_;  // tile Morton code -> shard
};

/// Load-adaptive shard rebalancing knobs (flash crowds melt a static
/// assignment's hot shard while the others idle).
///
/// The per-tile cost model charges one unit per ingested update and one
/// per fan-out delivery, and folds each pipeline run's charge into an
/// EWMA with smoothing factor `ParallelEngine::kLoadEwmaAlpha`.
struct ElasticOptions {
  /// Master switch.  Off (default) keeps the static Z-order striping
  /// and skips all load accounting — zero overhead on the E18 path.
  bool enabled = false;
  /// Rebalance when max/mean per-shard EWMA load exceeds this.
  double rebalance_threshold = 1.25;
  /// Pipeline runs between imbalance checks (amortizes the check and
  /// lets the EWMA settle after a migration).
  size_t min_batches_between_rebalances = 4;
  /// Hottest shard must carry at least this much EWMA load before a
  /// rebalance is worth its pause (filters start-up noise).
  double min_shard_load = 64.0;
};

/// Configuration of the sharded pipeline.
struct ParallelEngineOptions {
  /// Per-shard engine configuration (world bounds, default coherency
  /// contract, broker cell size).
  EngineOptions engine;
  /// Number of spatial shards (clamped to at least 1).  The
  /// shard-assignment tile gives each shard ~8 tiles along the world's
  /// X extent.
  size_t num_shards = 4;
  /// Elastic rebalancing (off by default).
  ElasticOptions elastic;
};

/// The co-space engine scaled across cores: Fig. 7's parallelized
/// serving tier for the Fig. 1 synchronization loop.
///
/// The world is partitioned into `num_shards` spatial shards, each a
/// `CoSpaceEngine` with its own spaces, coherency filter, broker, and
/// watch registry.  Each entity is owned by the shard of its home tile
/// — its spawn position initially, re-anchored to its current position
/// when the elastic rebalancer migrates it.  Ownership only changes
/// between pipeline runs, so per-entity update order — and therefore
/// every coherency decision — is identical to a single-threaded run.
/// `IngestBatch` drives a two-phase pipeline over the shared
/// `ThreadPool`:
///
///   1. ingest: each shard applies its entities' updates
///      (`CoSpaceEngine::ApplyPhysicalPosition`) and stages emitted
///      events into a per-destination outbox;
///   2. fan-out: each shard publishes the events whose *position* maps
///      to it on its own broker, so subscriber matching and delivery
///      run shard-local and in parallel.
///
/// A one-shard engine has no cross-shard exchange, so it skips the
/// barrier: phase 1 publishes each refresh as soon as it passes
/// coherency, and its watchers see it before the next update of the
/// batch is ingested — in the order `CoSpaceEngine` would deliver.
///
/// Regional watches are registered as one leg on every shard engine
/// overlapping the region, which together with position-routed fan-out
/// makes delivery exact even when entities roam off their home shard.
/// Summed `EngineStats` are byte-identical to `CoSpaceEngine` fed the
/// same per-entity update sequences.
///
/// Each shard times its phase-1 loop once per pipeline run and records
/// the mean nanoseconds per update into `engine.ingest_ns{qos=...}`,
/// one sample per update of that class (with one shard the loop also
/// covers the fan-out it streams).
///
/// With `ElasticOptions.enabled`, every pipeline run charges each
/// update and each delivery to its position tile; the per-tile EWMA
/// feeds a rebalancer that runs between pipeline runs.  When per-shard
/// load skews past the threshold it computes a new
/// contiguous-Morton-range assignment
/// sized by load (splitting hot ranges, merging cold ones) and
/// executes the handoff protocol: entity state (`WorldSpace` entries
/// in both spaces plus `CoherencyFilter` mirror state) moves to the
/// new owner, staged updates follow in order, regional watch legs are
/// re-registered to the shards now covering their region, and the tile
/// map is swapped — all before the next event is published, so no
/// delivery is dropped, duplicated, or reordered (DESIGN.md §7).
///
/// Thread-safety: spawn/watch/contract registration is a single-threaded
/// setup phase.  After setup, `Enqueue` may be called from any number of
/// threads concurrently (per-entity order is preserved per caller);
/// `IngestBatch`/`Flush`/`IssueVirtualCommand`/`Rebalance` serialize
/// against each other internally.  Watcher callbacks fire concurrently
/// from shard tasks and must be thread-safe.
class ParallelEngine {
 public:
  /// `pool` drives the shard tasks; null (or 1 shard) runs the same
  /// pipeline serially on the calling thread.  The pool is borrowed and
  /// must outlive the engine.  `clock` is not read; it stays for the
  /// callers that pass one.
  explicit ParallelEngine(ParallelEngineOptions options,
                          ThreadPool* pool = nullptr,
                          Clock* clock = nullptr);

  // ------------------------------------------------ setup (not thread-safe)

  /// Registers an entity in the physical space of its home shard and
  /// (immediately) its virtual mirror.
  void SpawnPhysical(const Entity& entity);

  /// Registers a purely virtual entity on the shard of its position.
  void SpawnVirtual(const Entity& entity);

  /// Installs a per-entity coherency contract (on every shard, so the
  /// call is valid before or after the entity spawns).
  void SetContract(EntityId id, const consistency::CoherencyContract& c);

  /// Subscribes `subscriber` to mirror updates inside `region`.  The
  /// watch is registered on every shard overlapping the region (and
  /// follows the region across rebalances); returns one watch id
  /// covering all of them.
  uint64_t WatchRegion(net::NodeId subscriber, const geo::AABB& region,
                       pubsub::Broker::Deliver deliver);

  /// Removes a watch registered via `WatchRegion`; false when unknown.
  /// As with `CoSpaceEngine::Unwatch`, matches a queued shard broker
  /// already holds still reach the callback at `Drain`.
  bool Unwatch(uint64_t watch_id);

  /// Registers the physical-side command channel (ground relays).
  void OnPhysicalCommand(CoSpaceEngine::CommandHandler handler);

  // ------------------------------------------------ ingest (thread-safe)

  /// Ingests a batch of sensed updates through the two-phase pipeline.
  /// Updates are routed to home shards in order, so one batch may carry
  /// several updates per entity.  Returns the number of mirror
  /// refreshes.
  size_t IngestBatch(std::span<const SensedUpdate> updates);

  /// Stages one update on its home shard's ingest queue (callable from
  /// any thread; a per-shard mutex makes this an amortized few-ns
  /// append).  Staged updates are processed by the next `Flush` — and
  /// follow their entity if a rebalance migrates it first.
  void Enqueue(const SensedUpdate& update);

  /// Runs the pipeline over everything staged by `Enqueue`.  Returns
  /// the number of mirror refreshes.
  size_t Flush();

  /// An action taken in the virtual space targeted at physical entities
  /// inside `region`; affected entities are resolved against every
  /// shard's virtual space in parallel, then relayed to handlers in
  /// deterministic shard order.  Returns affected entity count.
  size_t IssueVirtualCommand(const geo::AABB& region,
                             const stream::Tuple& command);

  // ------------------------------------------------ elastic rebalancing

  /// EWMA smoothing factor folded once per elastic pipeline run:
  /// ewma = (1-alpha)*ewma + alpha*run_load.  See EXPERIMENTS.md E23 for
  /// the drift adaptation it trades against rebalancing on noise.
  static constexpr double kLoadEwmaAlpha = 0.3;

  /// Forces a rebalance pass now, bypassing the cadence and imbalance
  /// gates (the accounting itself still requires
  /// `ElasticOptions.enabled`).  Returns true when the assignment
  /// changed and a migration ran.  Serializes with the pipeline.
  bool Rebalance();

  /// Per-shard EWMA load under the current assignment (empty-world
  /// zeros before any elastic pipeline run).
  std::vector<double> ShardLoads() const;

  /// max/mean of `ShardLoads` (1.0 when unloaded).
  double LoadImbalance() const;

  uint64_t rebalance_count() const { return rebalances_->Value(); }
  uint64_t entities_migrated() const { return entities_migrated_->Value(); }
  uint64_t tiles_moved() const { return tiles_moved_->Value(); }
  /// Wall-clock cost of each completed migration pause, µs.
  const obs::ConcurrentHistogram* migration_histogram() const {
    return migration_us_;
  }

  // ------------------------------------------------ introspection

  /// Folds per-shard stats (deterministic for equal inputs).
  EngineStats TotalStats() const;
  pubsub::BrokerStats TotalBrokerStats() const;

  EngineStats shard_stats(size_t shard) const {
    return shards_[shard]->engine.stats();
  }
  pubsub::Broker& shard_broker(size_t shard) {
    return shards_[shard]->engine.broker();
  }

  /// Installs `clock` as the QoS delivery-latency clock on every shard
  /// broker (see `Broker::SetClock`).  Pass the workload's virtual-time
  /// clock so `broker.delivery_us{qos=...}` measures publish→deliver in
  /// the same timebase as `Event::published_at`.  Null disables.
  void SetQosClock(const Clock* clock);

  /// Looks up an entity in its home shard's spaces; nullptr if absent.
  const Entity* FindPhysical(EntityId id) const;
  const Entity* FindVirtual(EntityId id) const;

  size_t num_shards() const { return shards_.size(); }
  const SpatialSharder& sharder() const { return sharder_; }

 private:
  struct Shard {
    Shard(const EngineOptions& opts, size_t num_shards, size_t index,
          size_t tile_code_limit);

    /// This partition's Fig. 1 state, metrics labelled {shard=<index>}.
    /// Each shard is written by exactly one pool worker per pipeline
    /// phase, so summed stats stay byte-identical to the serial engine.
    CoSpaceEngine engine;
    /// Phase-1 cost per update, ns, per QoS class
    /// (engine.ingest_ns{qos=...}).
    obs::ConcurrentHistogram* ingest_ns[kQosClassCount];
    std::mutex staged_mu;
    std::vector<SensedUpdate> staged;
    /// Events emitted in phase 1, bucketed by destination shard (unused
    /// with one shard, which publishes as it ingests).
    std::vector<std::vector<pubsub::Event>> outbox;
    /// Per-tile load charged this pipeline run (elastic mode only).
    /// Only this shard's task writes it (each task charges its own
    /// array, whatever the tile), so the accounting is race-free
    /// without atomics; the fold sums the arrays under pipeline_mu_.
    std::vector<double> tile_load;
    std::vector<uint32_t> touched;  ///< indices of nonzero tile_load
  };

  /// Entity → owning shard + home tile.  The shard is re-read on every
  /// route; the tile is re-anchored to the entity's current position at
  /// each rebalance so load attribution follows roaming entities.
  struct HomeRef {
    uint32_t shard = 0;
    uint32_t tile = 0;
  };

  size_t HomeOf(EntityId id, const geo::Vec3& fallback_pos) const;
  /// Records `entity`'s home tile and shard; returns that shard's engine.
  CoSpaceEngine& AssignHome(const Entity& entity);
  bool IngestOnShard(Shard& shard, const SensedUpdate& u);
  /// Publishes `event` on `dest`'s broker and, in elastic mode, charges
  /// the deliveries to the event's position tile.
  void PublishOnShard(Shard& dest, const pubsub::Event& event);
  static void ChargeTile(Shard& shard, uint32_t tile, double amount);
  /// Routes + runs the two-phase pipeline under `pipeline_mu_`.  When
  /// `flush_staged` is set, each shard's staged queue is drained ahead
  /// of `direct`.  Folds elastic load accounting and may rebalance.
  size_t RunPipeline(std::span<const SensedUpdate> direct,
                     bool flush_staged);
  /// Folds the shards' per-run tile loads into the EWMA (elastic only;
  /// pipeline_mu_ held).
  void FoldTileLoadsLocked();
  /// Cadence + threshold gate in front of RebalanceLocked.
  void MaybeRebalanceLocked();
  /// The handoff protocol; pipeline_mu_ held, outboxes empty.  Returns
  /// true when the assignment changed.
  bool RebalanceLocked();
  std::vector<double> ShardLoadsLocked() const;

  ParallelEngineOptions options_;
  ThreadPool* pool_;
  SpatialSharder sharder_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Entity -> owning shard + home tile.  Read-only during a pipeline
  /// run; mutated only by spawns (setup) and RebalanceLocked (which
  /// holds both pipeline_mu_ and route_mu_ exclusively).
  std::unordered_map<EntityId, HomeRef> home_;
  /// Guards routing state (home_, the sharder assignment, staged
  /// queues' shard choice) against migration: Enqueue takes it shared,
  /// RebalanceLocked takes it exclusive.  Pipeline-side readers are
  /// already excluded via pipeline_mu_.
  mutable std::shared_mutex route_mu_;
  uint64_t next_watch_id_ = 1;
  /// One regional watch: its definition plus the shard-engine watches
  /// ("legs") currently carrying it (re-registered on rebalance).  Every
  /// leg forwards to this watch's one `deliver` and shares it, so a
  /// match queued by a leg a rebalance has since dropped still reaches
  /// it.
  struct Watch {
    net::NodeId subscriber = 0;
    geo::AABB region;
    std::shared_ptr<const pubsub::Broker::Deliver> deliver;
    std::vector<std::pair<size_t, uint64_t>> legs;  // (shard, leg id)
  };
  /// Registers a leg of `watch` on shard `s`.
  void AddLeg(Watch& watch, size_t s);
  std::unordered_map<uint64_t, Watch> watches_;
  /// Serializes pipeline runs, rebalances, and stats reads against
  /// each other.
  mutable std::mutex pipeline_mu_;

  // Elastic state (pipeline_mu_ held for all access).
  std::vector<double> tile_ewma_;
  std::vector<double> tile_batch_;  // fold scratch, zeroed after use
  size_t batches_since_rebalance_check_ = 0;

  obs::StatsScope elastic_obs_{"elastic"};
  obs::Counter* rebalances_ = elastic_obs_.counter("rebalances");
  obs::Counter* entities_migrated_ =
      elastic_obs_.counter("entities_migrated");
  obs::Counter* tiles_moved_ = elastic_obs_.counter("tiles_moved");
  obs::Counter* staged_moved_ = elastic_obs_.counter("staged_moved");
  obs::Counter* watch_legs_added_ = elastic_obs_.counter("watch_legs_added");
  obs::Counter* watch_legs_removed_ =
      elastic_obs_.counter("watch_legs_removed");
  obs::Gauge* load_imbalance_ =
      elastic_obs_.gauge("load_imbalance", obs::Gauge::Agg::kLast);
  obs::ConcurrentHistogram* migration_us_ =
      elastic_obs_.histogram("migration_us");
};

}  // namespace deluge::core

#endif  // DELUGE_CORE_PARALLEL_ENGINE_H_
