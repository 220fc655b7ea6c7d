#include "core/parallel_engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/parallel_for.h"
#include "geo/morton.h"
#include "obs/trace.h"

namespace deluge::core {

// ---------------------------------------------------------- SpatialSharder

SpatialSharder::SpatialSharder(const geo::AABB& world, double cell,
                               size_t num_shards)
    : world_(world),
      cell_(cell > 0 ? cell : 1.0),
      num_shards_(num_shards == 0 ? 1 : num_shards) {
  const double ext_x = std::max(0.0, world_.max.x - world_.min.x);
  const double ext_y = std::max(0.0, world_.max.y - world_.min.y);
  // Coarsen the cell if the requested granularity would overflow the
  // dense assignment table.
  const double min_cell =
      std::max(ext_x, ext_y) / double(kMaxTilesPerAxis);
  cell_ = std::max(cell_, min_cell);
  tiles_x_ = std::clamp<int64_t>(int64_t(std::ceil(ext_x / cell_)), 1,
                                 kMaxTilesPerAxis);
  tiles_y_ = std::clamp<int64_t>(int64_t(std::ceil(ext_y / cell_)), 1,
                                 kMaxTilesPerAxis);
  // The Morton code space is square: round the longer axis up to a
  // power of two and allocate codes for the full square (padding tiles
  // outside the world never receive load; they ride along in the map).
  uint32_t bits = 0;
  while ((int64_t(1) << bits) < std::max(tiles_x_, tiles_y_)) ++bits;
  map_.resize(size_t(1) << (2 * bits));
  for (size_t code = 0; code < map_.size(); ++code) {
    map_[code] = uint32_t(code % num_shards_);
  }
}

int64_t SpatialSharder::TileX(double x) const {
  return std::clamp<int64_t>(int64_t(std::floor((x - world_.min.x) / cell_)),
                             0, tiles_x_ - 1);
}

int64_t SpatialSharder::TileY(double y) const {
  return std::clamp<int64_t>(int64_t(std::floor((y - world_.min.y) / cell_)),
                             0, tiles_y_ - 1);
}

uint32_t SpatialSharder::TileCodeOf(const geo::Vec3& p) const {
  return uint32_t(geo::MortonCodec::Interleave2D(uint32_t(TileX(p.x)),
                                                 uint32_t(TileY(p.y))));
}

void SpatialSharder::ShardsCovering(const geo::AABB& box,
                                    ShardList* out) const {
  out->clear();
  if (num_shards_ == 1) {
    out->push_back(0);
    return;
  }
  const int64_t lox = TileX(box.min.x), hix = TileX(box.max.x);
  const int64_t loy = TileY(box.min.y), hiy = TileY(box.max.y);
  const uint64_t tiles = uint64_t(hix - lox + 1) * uint64_t(hiy - loy + 1);
  // Walk the tile rectangle only when it is small enough to be worth it
  // (and the shard count fits the 64-bit seen-mask); otherwise answer
  // conservatively with every shard.
  const bool enumerate =
      num_shards_ <= 64 && tiles <= 64 * uint64_t(num_shards_);
  uint64_t seen = 0;
  size_t distinct = 0;
  if (enumerate) {
    for (int64_t x = lox; x <= hix && distinct < num_shards_; ++x) {
      for (int64_t y = loy; y <= hiy && distinct < num_shards_; ++y) {
        size_t s = map_[size_t(
            geo::MortonCodec::Interleave2D(uint32_t(x), uint32_t(y)))];
        if ((seen >> s & 1) == 0) {
          seen |= uint64_t(1) << s;
          ++distinct;
        }
      }
    }
  }
  if (!enumerate || distinct == num_shards_) {
    for (size_t s = 0; s < num_shards_; ++s) out->push_back(s);
    return;
  }
  for (size_t s = 0; s < num_shards_; ++s) {
    if (seen >> s & 1) out->push_back(s);
  }
}

void SpatialSharder::SetAssignment(std::vector<uint32_t> assignment) {
  if (assignment.size() != map_.size()) return;  // contract violation
  for (uint32_t& s : assignment) {
    if (s >= num_shards_) s = uint32_t(s % num_shards_);
  }
  map_ = std::move(assignment);
}

std::vector<uint32_t> SpatialSharder::BalancedAssignment(
    const std::vector<double>& tile_load, size_t num_shards) {
  const size_t n = std::max<size_t>(1, num_shards);
  std::vector<uint32_t> out(tile_load.size(), 0);
  if (n == 1 || out.empty()) return out;
  double total = 0.0;
  for (double v : tile_load) total += v;
  if (total <= 0.0) {
    const size_t chunk = (out.size() + n - 1) / n;
    for (size_t t = 0; t < out.size(); ++t) {
      out[t] = uint32_t(std::min(t / chunk, n - 1));
    }
    return out;
  }
  // Greedy contiguous cut: close the current shard once it carries its
  // fair share of what is left.  A tile hotter than the fair share gets
  // a shard to itself (tile granularity is the split floor), and the
  // remainder rebalances across the shards still open.
  double remaining = total;
  double acc = 0.0;
  size_t shard = 0;
  for (size_t t = 0; t < out.size(); ++t) {
    out[t] = uint32_t(shard);
    acc += tile_load[t];
    if (shard + 1 < n && acc >= remaining / double(n - shard)) {
      remaining -= acc;
      acc = 0.0;
      ++shard;
    }
  }
  return out;
}

// ---------------------------------------------------------- ParallelEngine

ParallelEngine::Shard::Shard(const EngineOptions& opts, size_t num_shards,
                             size_t index, size_t tile_code_limit)
    : engine(opts, nullptr, {{"shard", std::to_string(index)}}),
      outbox(num_shards),
      tile_load(tile_code_limit, 0.0) {
  for (QosClass q : kAllQosClasses) {
    ingest_ns[uint8_t(q)] =
        engine.stats_scope().histogram("ingest_ns", {{"qos", QosClassName(q)}});
  }
}

ParallelEngine::ParallelEngine(ParallelEngineOptions options,
                               ThreadPool* pool, Clock* /*clock*/)
    : options_(options),
      pool_(pool),
      sharder_(options.engine.world_bounds,
               (options.engine.world_bounds.max.x -
                options.engine.world_bounds.min.x) /
                   (8.0 * double(std::max<size_t>(1, options.num_shards))),
               options.num_shards) {
  const size_t n = sharder_.num_shards();
  const size_t accounting_tiles =
      options_.elastic.enabled ? sharder_.tile_code_limit() : 0;
  tile_ewma_.assign(accounting_tiles, 0.0);
  tile_batch_.assign(accounting_tiles, 0.0);
  shards_.reserve(n);
  for (size_t s = 0; s < n; ++s) {
    shards_.push_back(
        std::make_unique<Shard>(options_.engine, n, s, accounting_tiles));
  }
}

size_t ParallelEngine::HomeOf(EntityId id,
                              const geo::Vec3& fallback_pos) const {
  auto it = home_.find(id);
  if (it != home_.end()) return it->second.shard;
  // Unspawned entities are routed by position; spawn first for stable
  // ownership (and stats parity with the single-threaded engine).
  return sharder_.ShardOf(fallback_pos);
}

CoSpaceEngine& ParallelEngine::AssignHome(const Entity& entity) {
  const uint32_t tile = sharder_.TileCodeOf(entity.position);
  const uint32_t s = sharder_.assignment()[tile];
  home_[entity.id] = HomeRef{s, tile};
  return shards_[s]->engine;
}

void ParallelEngine::SpawnPhysical(const Entity& entity) {
  AssignHome(entity).SpawnPhysical(entity);
}

void ParallelEngine::SpawnVirtual(const Entity& entity) {
  AssignHome(entity).SpawnVirtual(entity);
}

void ParallelEngine::SetContract(EntityId id,
                                 const consistency::CoherencyContract& c) {
  // Installed everywhere: only the home shard consults it, this keeps
  // SetContract valid before the entity spawns — and migration never
  // has to move contracts, only per-entity mirror state.
  for (auto& shard : shards_) shard->engine.SetContract(id, c);
}

uint64_t ParallelEngine::WatchRegion(net::NodeId subscriber,
                                     const geo::AABB& region,
                                     pubsub::Broker::Deliver deliver) {
  uint64_t id = next_watch_id_++;
  Watch& watch = watches_[id];
  watch.subscriber = subscriber;
  watch.region = region;
  watch.deliver =
      std::make_shared<const pubsub::Broker::Deliver>(std::move(deliver));
  SpatialSharder::ShardList cover;
  sharder_.ShardsCovering(region, &cover);
  for (size_t s : cover) AddLeg(watch, s);
  return id;
}

void ParallelEngine::AddLeg(Watch& watch, size_t s) {
  watch.legs.emplace_back(
      s, shards_[s]->engine.WatchRegion(
             watch.subscriber, watch.region,
             [deliver = watch.deliver](net::NodeId subscriber,
                                       const pubsub::Event& event) {
               if (*deliver) (*deliver)(subscriber, event);
             }));
}

bool ParallelEngine::Unwatch(uint64_t watch_id) {
  auto it = watches_.find(watch_id);
  if (it == watches_.end()) return false;
  for (auto& [shard, leg] : it->second.legs) {
    shards_[shard]->engine.Unwatch(leg);
  }
  watches_.erase(it);
  return true;
}

void ParallelEngine::OnPhysicalCommand(CoSpaceEngine::CommandHandler handler) {
  // Shard 0's engine relays every command (see IssueVirtualCommand).
  shards_[0]->engine.OnPhysicalCommand(std::move(handler));
}

void ParallelEngine::ChargeTile(Shard& shard, uint32_t tile, double amount) {
  if (amount <= 0.0) return;
  double& slot = shard.tile_load[tile];
  if (slot == 0.0) shard.touched.push_back(tile);
  slot += amount;
}

bool ParallelEngine::IngestOnShard(Shard& shard, const SensedUpdate& u) {
  const uint32_t pos_tile = sharder_.TileCodeOf(u.position);
  if (options_.elastic.enabled) {
    // Ingest cost lands on the update's position tile — where the
    // entity's home will be re-anchored at the next rebalance, and
    // where its fan-out publishes.  Charging into this shard's own
    // tile_load array is race-free for any tile.
    ChargeTile(shard, pos_tile, 1.0);
  }
  if (!shard.engine.ApplyPhysicalPosition(u.id, u.position, u.t, u.qos)) {
    return false;
  }
  pubsub::Event event = MakeMirrorPositionEvent(u.id, u.position, u.t, u.qos);
  if (shards_.size() == 1) {
    // Nothing to exchange between shards: publish now, so the refresh
    // reaches its watchers before the next update is ingested.
    PublishOnShard(shard, event);
  } else {
    // Stage the event for phase 2 on the shard owning its *position* —
    // regional watches live on the shards their region overlaps, so
    // position-routing makes cross-shard delivery exact.
    shard.outbox[sharder_.assignment()[pos_tile]].push_back(std::move(event));
  }
  return true;
}

void ParallelEngine::PublishOnShard(Shard& dest, const pubsub::Event& event) {
  const size_t deliveries = dest.engine.broker().Publish(event);
  if (options_.elastic.enabled && deliveries > 0 &&
      event.position.has_value()) {
    // Fan-out cost lands on the event's position tile, which this
    // destination shard owns (events are position-routed).
    ChargeTile(dest, sharder_.TileCodeOf(*event.position), double(deliveries));
  }
}

size_t ParallelEngine::RunPipeline(std::span<const SensedUpdate> direct,
                                   bool flush_staged) {
  obs::Span span("ingest.batch");
  std::lock_guard<std::mutex> lock(pipeline_mu_);
  const size_t n = shards_.size();
  // Routing runs under pipeline_mu_: the assignment and home_ only
  // change inside a rebalance, which also holds pipeline_mu_ — so a
  // batch can never be bucketed against a map that migrates before the
  // pipeline consumes it.
  std::vector<std::vector<SensedUpdate>> batches(n);
  if (flush_staged) {
    for (size_t s = 0; s < n; ++s) {
      std::lock_guard<std::mutex> staged_lock(shards_[s]->staged_mu);
      batches[s].swap(shards_[s]->staged);
    }
  }
  for (const SensedUpdate& u : direct) {
    batches[HomeOf(u.id, u.position)].push_back(u);
  }

  std::vector<size_t> mirrored(n, 0);
  // Phase 1 — ingest: every shard applies its own entities' updates,
  // timed once per run (a per-update timer would cost about as much as
  // the update).
  ParallelFor(pool_, n, [&](size_t s) {
    Shard& shard = *shards_[s];
    const std::vector<SensedUpdate>& batch = batches[s];
    if (batch.empty()) return;
    uint64_t per_class[kQosClassCount] = {};
    size_t m = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (const SensedUpdate& u : batch) {
      ++per_class[uint8_t(u.qos)];
      if (IngestOnShard(shard, u)) ++m;
    }
    const int64_t ns_per_update =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count() /
        int64_t(batch.size());
    for (int q = 0; q < kQosClassCount; ++q) {
      if (per_class[q] > 0) {
        shard.ingest_ns[q]->RecordMany(ns_per_update, per_class[q]);
      }
    }
    mirrored[s] = m;
  });
  // Phase 2 — fan-out: every shard publishes the events routed to it,
  // draining outboxes in shard order so publish order is deterministic.
  // One shard published its events during phase 1.
  if (n > 1) {
    ParallelFor(pool_, n, [&](size_t d) {
      Shard& dest = *shards_[d];
      for (size_t s = 0; s < n; ++s) {
        std::vector<pubsub::Event>& out = shards_[s]->outbox[d];
        for (const pubsub::Event& event : out) PublishOnShard(dest, event);
        out.clear();
      }
    });
  }
  if (options_.elastic.enabled) {
    FoldTileLoadsLocked();
    MaybeRebalanceLocked();
  }
  size_t total = 0;
  for (size_t m : mirrored) total += m;
  return total;
}

size_t ParallelEngine::IngestBatch(std::span<const SensedUpdate> updates) {
  return RunPipeline(updates, /*flush_staged=*/false);
}

void ParallelEngine::Enqueue(const SensedUpdate& update) {
  // Shared routing lock: a concurrent rebalance (exclusive holder) may
  // be rewriting home_ and re-routing staged queues.
  std::shared_lock<std::shared_mutex> route(route_mu_);
  Shard& shard = *shards_[HomeOf(update.id, update.position)];
  std::lock_guard<std::mutex> lock(shard.staged_mu);
  shard.staged.push_back(update);
}

size_t ParallelEngine::Flush() {
  return RunPipeline({}, /*flush_staged=*/true);
}

void ParallelEngine::FoldTileLoadsLocked() {
  for (auto& shard : shards_) {
    for (uint32_t t : shard->touched) {
      tile_batch_[t] += shard->tile_load[t];
      shard->tile_load[t] = 0.0;
    }
    shard->touched.clear();
  }
  const size_t limit = tile_batch_.size();
  for (size_t t = 0; t < limit; ++t) {
    tile_ewma_[t] = (1.0 - kLoadEwmaAlpha) * tile_ewma_[t] +
                    kLoadEwmaAlpha * tile_batch_[t];
    tile_batch_[t] = 0.0;
  }
}

std::vector<double> ParallelEngine::ShardLoadsLocked() const {
  std::vector<double> loads(shards_.size(), 0.0);
  const std::vector<uint32_t>& map = sharder_.assignment();
  for (size_t t = 0; t < tile_ewma_.size(); ++t) {
    loads[map[t]] += tile_ewma_[t];
  }
  return loads;
}

void ParallelEngine::MaybeRebalanceLocked() {
  if (++batches_since_rebalance_check_ <
      options_.elastic.min_batches_between_rebalances) {
    return;
  }
  batches_since_rebalance_check_ = 0;
  std::vector<double> loads = ShardLoadsLocked();
  double total = 0.0, max_load = 0.0;
  for (double v : loads) {
    total += v;
    max_load = std::max(max_load, v);
  }
  const double mean = total / double(std::max<size_t>(1, loads.size()));
  const double imbalance = mean > 0.0 ? max_load / mean : 1.0;
  load_imbalance_->Set(imbalance);
  if (max_load < options_.elastic.min_shard_load) return;
  if (imbalance < options_.elastic.rebalance_threshold) return;
  RebalanceLocked();
}

bool ParallelEngine::RebalanceLocked() {
  const size_t n = shards_.size();
  if (n <= 1 || tile_ewma_.empty()) return false;
  double total = 0.0;
  for (double v : tile_ewma_) total += v;
  if (total <= 0.0) return false;

  std::vector<uint32_t> next =
      SpatialSharder::BalancedAssignment(tile_ewma_, n);
  const std::vector<uint32_t>& cur = sharder_.assignment();

  // BalancedAssignment numbers its ranges 0..n-1 in Morton order; the
  // labels themselves are arbitrary.  Relabel each new range as the old
  // shard owning the most load inside it (greedy max-overlap matching),
  // so a rebalance moves only the load that must move.
  std::vector<std::vector<double>> overlap(n, std::vector<double>(n, 0.0));
  for (size_t t = 0; t < next.size(); ++t) {
    overlap[next[t]][cur[t]] += tile_ewma_[t];
  }
  std::vector<uint32_t> relabel(n, UINT32_MAX);
  std::vector<bool> label_taken(n, false);
  for (size_t round = 0; round < n; ++round) {
    size_t best_range = n, best_old = n;
    double best = -1.0;
    for (size_t r = 0; r < n; ++r) {
      if (relabel[r] != UINT32_MAX) continue;
      for (size_t o = 0; o < n; ++o) {
        if (label_taken[o] || overlap[r][o] < best) continue;
        best = overlap[r][o];
        best_range = r;
        best_old = o;
      }
    }
    relabel[best_range] = uint32_t(best_old);
    label_taken[best_old] = true;
  }
  for (uint32_t& s : next) s = relabel[s];

  size_t tiles_changed = 0;
  for (size_t t = 0; t < next.size(); ++t) {
    tiles_changed += size_t(next[t] != cur[t]);
  }
  if (tiles_changed == 0) return false;

  // The migration pause: everything below happens between pipeline
  // runs with all outboxes drained (phase 2 cleared them), so no
  // published event is in flight — handoff can neither drop nor
  // duplicate a delivery.
  obs::ScopedTimer timer(migration_us_);
  // Exclusive routing lock: Enqueue callers wait out the swap.
  std::unique_lock<std::shared_mutex> route(route_mu_);
  sharder_.SetAssignment(std::move(next));

  // Re-anchor each entity's home tile to its current position and move
  // WorldSpace entries + coherency mirror state to the new owner, so
  // suppression decisions after the handoff are identical to a run that
  // never migrated.
  uint64_t moved = 0;
  for (auto& [id, home] : home_) {
    CoSpaceEngine& owner = shards_[home.shard]->engine;
    const Entity* e = owner.physical().Get(id);
    if (e == nullptr) e = owner.virtual_space().Get(id);
    if (e != nullptr) home.tile = sharder_.TileCodeOf(e->position);
    uint32_t dst = sharder_.assignment()[home.tile];
    if (dst == home.shard) continue;
    owner.MigrateEntity(id, shards_[dst]->engine);
    home.shard = dst;
    ++moved;
  }

  // Staged updates follow their entity.  In-place compaction keeps the
  // survivors' order; movers append to their new shard in source order,
  // so per-entity order is preserved across the handoff.
  uint64_t staged_moved = 0;
  std::vector<std::vector<SensedUpdate>> inbound(n);
  for (size_t s = 0; s < n; ++s) {
    Shard& shard = *shards_[s];
    std::lock_guard<std::mutex> staged_lock(shard.staged_mu);
    size_t kept = 0;
    for (SensedUpdate& u : shard.staged) {
      size_t h = HomeOf(u.id, u.position);
      if (h == s) {
        shard.staged[kept++] = u;
      } else {
        inbound[h].push_back(u);
        ++staged_moved;
      }
    }
    shard.staged.resize(kept);
  }
  for (size_t s = 0; s < n; ++s) {
    if (inbound[s].empty()) continue;
    Shard& shard = *shards_[s];
    std::lock_guard<std::mutex> staged_lock(shard.staged_mu);
    shard.staged.insert(shard.staged.end(), inbound[s].begin(),
                        inbound[s].end());
  }

  // Regional watch legs follow the tiles covering their region: drop
  // legs on shards that no longer own any overlapping tile, subscribe
  // on shards that now do.  Done before the next publish, so delivery
  // stays exact across the swap; what a dropped leg already matched
  // into a queued broker holds the watch's callback and still arrives.
  SpatialSharder::ShardList cover;
  for (auto& [wid, watch] : watches_) {
    sharder_.ShardsCovering(watch.region, &cover);
    size_t kept = 0;
    for (auto& [shard, leg] : watch.legs) {
      if (std::find(cover.begin(), cover.end(), shard) != cover.end()) {
        watch.legs[kept++] = {shard, leg};
      } else {
        shards_[shard]->engine.Unwatch(leg);
        watch_legs_removed_->Add(1);
      }
    }
    watch.legs.resize(kept);
    for (size_t s : cover) {
      if (std::any_of(watch.legs.begin(), watch.legs.end(),
                      [s](const auto& leg) { return leg.first == s; })) {
        continue;
      }
      AddLeg(watch, s);
      watch_legs_added_->Add(1);
    }
  }

  rebalances_->Add(1);
  tiles_moved_->Add(tiles_changed);
  entities_migrated_->Add(moved);
  staged_moved_->Add(staged_moved);
  return true;
}

bool ParallelEngine::Rebalance() {
  std::lock_guard<std::mutex> lock(pipeline_mu_);
  return RebalanceLocked();
}

std::vector<double> ParallelEngine::ShardLoads() const {
  std::lock_guard<std::mutex> lock(pipeline_mu_);
  return ShardLoadsLocked();
}

double ParallelEngine::LoadImbalance() const {
  std::lock_guard<std::mutex> lock(pipeline_mu_);
  std::vector<double> loads = ShardLoadsLocked();
  double total = 0.0, max_load = 0.0;
  for (double v : loads) {
    total += v;
    max_load = std::max(max_load, v);
  }
  const double mean = total / double(std::max<size_t>(1, loads.size()));
  return mean > 0.0 ? max_load / mean : 1.0;
}

size_t ParallelEngine::IssueVirtualCommand(const geo::AABB& region,
                                           const stream::Tuple& command) {
  std::lock_guard<std::mutex> lock(pipeline_mu_);
  // Affected entities are resolved against the VIRTUAL model, across
  // every shard in parallel (an entity may have roamed anywhere).
  const size_t n = shards_.size();
  std::vector<std::vector<const Entity*>> affected(n);
  ParallelFor(pool_, n, [&](size_t s) {
    affected[s] = shards_[s]->engine.virtual_space().Range(region);
  });
  // Relay serially in shard order, from shard 0's engine: handlers need
  // not be thread-safe and the relay order stays deterministic.
  for (size_t s = 1; s < n; ++s) {
    affected[0].insert(affected[0].end(), affected[s].begin(),
                       affected[s].end());
  }
  return shards_[0]->engine.RelayVirtualCommand(affected[0], command);
}

EngineStats ParallelEngine::TotalStats() const {
  std::lock_guard<std::mutex> lock(pipeline_mu_);
  EngineStats total;
  for (const auto& shard : shards_) shard->engine.stats_view().AddTo(&total);
  return total;
}

pubsub::BrokerStats ParallelEngine::TotalBrokerStats() const {
  std::lock_guard<std::mutex> lock(pipeline_mu_);
  pubsub::BrokerStats total;
  for (const auto& shard : shards_) {
    shard->engine.broker().stats_view().AddTo(&total);
  }
  return total;
}

void ParallelEngine::SetQosClock(const Clock* clock) {
  std::lock_guard<std::mutex> lock(pipeline_mu_);
  for (auto& shard : shards_) shard->engine.broker().SetClock(clock);
}

const Entity* ParallelEngine::FindPhysical(EntityId id) const {
  auto it = home_.find(id);
  return it == home_.end()
             ? nullptr
             : shards_[it->second.shard]->engine.physical().Get(id);
}

const Entity* ParallelEngine::FindVirtual(EntityId id) const {
  auto it = home_.find(id);
  return it == home_.end()
             ? nullptr
             : shards_[it->second.shard]->engine.virtual_space().Get(id);
}

}  // namespace deluge::core
