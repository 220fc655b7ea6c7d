#include "core/parallel_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "core/engine.h"
#include "core/sensors.h"

namespace deluge::core {
namespace {

const geo::AABB kWorld({0, 0, 0}, {1000, 1000, 100});

EngineOptions BaseOptions() {
  EngineOptions opts;
  opts.world_bounds = kWorld;
  opts.default_contract = {2.0, kMicrosPerSecond};
  return opts;
}

Entity At(EntityId id, const geo::Vec3& position) {
  Entity e;
  e.id = id;
  e.position = position;
  return e;
}

ParallelEngineOptions ShardedOptions(size_t shards) {
  ParallelEngineOptions opts;
  opts.engine = BaseOptions();
  opts.num_shards = shards;
  return opts;
}

void ExpectStatsEqual(const EngineStats& a, const EngineStats& b) {
  EXPECT_EQ(a.physical_updates, b.physical_updates);
  EXPECT_EQ(a.mirrored_updates, b.mirrored_updates);
  EXPECT_EQ(a.suppressed_updates, b.suppressed_updates);
  EXPECT_EQ(a.virtual_commands, b.virtual_commands);
  EXPECT_EQ(a.relayed_commands, b.relayed_commands);
  EXPECT_EQ(a.events_published, b.events_published);
}

// ------------------------------------------------------------ sharder

TEST(SpatialSharderTest, AssignsEveryPointToAValidShard) {
  SpatialSharder sharder(kWorld, 50.0, 4);
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    geo::Vec3 p{rng.UniformDouble(0, 1000), rng.UniformDouble(0, 1000),
                rng.UniformDouble(0, 100)};
    EXPECT_LT(sharder.ShardOf(p), 4u);
  }
}

TEST(SpatialSharderTest, CoveringShardsContainEveryInteriorPoint) {
  SpatialSharder sharder(kWorld, 50.0, 4);
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    geo::Vec3 c{rng.UniformDouble(100, 900), rng.UniformDouble(100, 900), 50};
    geo::AABB box = geo::AABB::Cube(c, rng.UniformDouble(10, 150));
    SpatialSharder::ShardList shards;
    sharder.ShardsCovering(box, &shards);
    for (int j = 0; j < 20; ++j) {
      geo::Vec3 p{rng.UniformDouble(box.min.x, box.max.x),
                  rng.UniformDouble(box.min.y, box.max.y), 50};
      size_t s = sharder.ShardOf(p);
      EXPECT_TRUE(std::find(shards.begin(), shards.end(), s) != shards.end())
          << "point shard " << s << " missing from covering set";
    }
  }
}

TEST(SpatialSharderTest, WorldSpanningBoxCoversAllShards) {
  SpatialSharder sharder(kWorld, 50.0, 8);
  SpatialSharder::ShardList shards;
  sharder.ShardsCovering(kWorld, &shards);
  EXPECT_EQ(shards.size(), 8u);
}

TEST(SpatialSharderTest, PositionsOutsideWorldClampToBoundaryTiles) {
  SpatialSharder sharder(kWorld, 50.0, 4);
  // Below the min corner and beyond the max corner land on the same
  // tiles as the corners themselves — no out-of-range table reads.
  EXPECT_EQ(sharder.ShardOf({-500, -500, -50}), sharder.ShardOf(kWorld.min));
  EXPECT_EQ(sharder.ShardOf({5000, 5000, 500}), sharder.ShardOf(kWorld.max));
  // Mixed: one axis out, the other in.
  EXPECT_EQ(sharder.ShardOf({-1, 475, 50}), sharder.ShardOf({0, 475, 50}));
  EXPECT_EQ(sharder.ShardOf({475, 1e9, 50}),
            sharder.ShardOf({475, kWorld.max.y, 50}));
  // Exactly on the max boundary is a valid shard (not one past the end).
  EXPECT_LT(sharder.ShardOf(kWorld.max), 4u);
  EXPECT_LT(sharder.TileCodeOf(kWorld.max), sharder.tile_code_limit());
}

TEST(SpatialSharderTest, CoveringFallsBackToAllShardsPastThreshold) {
  // 20x20 tile grid, 2 shards: the enumeration budget is 64*2 = 128
  // tiles, so the 400-tile world box takes the all-shards fallback and
  // a one-tile box still enumerates exactly one shard.
  SpatialSharder sharder(kWorld, 50.0, 2);
  SpatialSharder::ShardList shards;
  sharder.ShardsCovering(kWorld, &shards);
  EXPECT_EQ(shards.size(), 2u);

  geo::AABB one_tile({10, 10, 0}, {20, 20, 100});
  shards.clear();
  sharder.ShardsCovering(one_tile, &shards);
  ASSERT_EQ(shards.size(), 1u);
  EXPECT_EQ(shards[0], sharder.ShardOf({15, 15, 50}));

  // Shard counts past the 64-bit seen-mask always answer all-shards,
  // even for a one-tile box.
  SpatialSharder wide(kWorld, 50.0, 65);
  shards.clear();
  wide.ShardsCovering(one_tile, &shards);
  EXPECT_EQ(shards.size(), 65u);
}

TEST(SpatialSharderTest, SingleShardConfigOwnsEverything) {
  SpatialSharder sharder(kWorld, 50.0, 1);
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    geo::Vec3 p{rng.UniformDouble(-100, 1100), rng.UniformDouble(-100, 1100),
                50};
    EXPECT_EQ(sharder.ShardOf(p), 0u);
  }
  SpatialSharder::ShardList shards;
  sharder.ShardsCovering(kWorld, &shards);
  ASSERT_EQ(shards.size(), 1u);
  EXPECT_EQ(shards[0], 0u);
}

TEST(SpatialSharderTest, BalancedAssignmentSplitsHotRangeAcrossShards) {
  // All load on the first quarter of the code space: the balanced cut
  // must spread that hot prefix over all shards instead of handing it
  // to whoever owned it under striping.
  std::vector<double> load(256, 0.0);
  for (size_t t = 0; t < 64; ++t) load[t] = 1.0;
  auto next = SpatialSharder::BalancedAssignment(load, 4);
  ASSERT_EQ(next.size(), 256u);
  // Per-shard load within the fair share of 16.
  std::vector<double> per_shard(4, 0.0);
  for (size_t t = 0; t < 256; ++t) {
    ASSERT_LT(next[t], 4u);
    per_shard[next[t]] += load[t];
  }
  for (double l : per_shard) EXPECT_NEAR(l, 16.0, 1.0);
  // Contiguous ranges: shard ids never revisit an earlier range.
  for (size_t t = 1; t < 256; ++t) EXPECT_GE(next[t], next[t - 1]);
}

// ------------------------------------------------- single-thread parity

TEST(ParallelEngineTest, MatchesSingleThreadedEngine) {
  SimClock clock;
  CoSpaceEngine serial(BaseOptions(), &clock);
  ThreadPool pool(4);
  ParallelEngine sharded(ShardedOptions(4), &pool, &clock);

  SensorFleetOptions fleet_opts;
  fleet_opts.num_entities = 500;
  SensorFleet fleet(kWorld, fleet_opts);
  for (EntityId id = 1; id <= 500; ++id) {
    const Entity e = At(id, fleet.TruePosition(id));
    serial.SpawnPhysical(e);
    sharded.SpawnPhysical(e);
  }

  // Identical regional watchers on both engines; the parallel side
  // counts atomically because shard tasks deliver concurrently.
  uint64_t serial_deliveries = 0;
  std::atomic<uint64_t> sharded_deliveries{0};
  geo::AABB region({200, 200, 0}, {800, 800, 100});
  serial.WatchRegion(1, region, [&](net::NodeId, const pubsub::Event&) {
    ++serial_deliveries;
  });
  sharded.WatchRegion(1, region, [&](net::NodeId, const pubsub::Event&) {
    sharded_deliveries.fetch_add(1, std::memory_order_relaxed);
  });

  Micros now = 0;
  for (int tick = 0; tick < 40; ++tick) {
    now += 100 * kMicrosPerMilli;
    std::vector<SensedUpdate> batch;
    for (const auto& r : fleet.Tick(100 * kMicrosPerMilli, now)) {
      batch.push_back({r.entity, r.position, r.t});
    }
    for (const SensedUpdate& u : batch) {
      serial.IngestPhysicalPosition(u.id, u.position, u.t);
    }
    sharded.IngestBatch(batch);
  }

  ExpectStatsEqual(serial.stats(), sharded.TotalStats());
  EXPECT_GT(sharded.TotalStats().physical_updates, 0u);
  EXPECT_EQ(serial_deliveries, sharded_deliveries.load());

  // Mirror state converged identically.
  for (EntityId id = 1; id <= 500; ++id) {
    const Entity* a = serial.virtual_space().Get(id);
    const Entity* b = sharded.FindVirtual(id);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(a->position.x, b->position.x);
    EXPECT_EQ(a->position.y, b->position.y);
    EXPECT_EQ(a->updated_at, b->updated_at);
  }
}

TEST(ParallelEngineTest, PerShardStatsSumToTotals) {
  ThreadPool pool(4);
  ParallelEngine engine(ShardedOptions(4), &pool);
  Rng rng(3);
  for (EntityId id = 1; id <= 200; ++id) {
    engine.SpawnPhysical(
        At(id, {rng.UniformDouble(0, 1000), rng.UniformDouble(0, 1000), 50}));
  }
  std::vector<SensedUpdate> batch;
  for (EntityId id = 1; id <= 200; ++id) {
    batch.push_back({id,
                     {rng.UniformDouble(0, 1000), rng.UniformDouble(0, 1000),
                      50},
                     kMicrosPerSecond});
  }
  engine.IngestBatch(batch);

  EngineStats sum;
  for (size_t s = 0; s < engine.num_shards(); ++s) {
    sum.physical_updates += engine.shard_stats(s).physical_updates;
    sum.mirrored_updates += engine.shard_stats(s).mirrored_updates;
    sum.suppressed_updates += engine.shard_stats(s).suppressed_updates;
    sum.virtual_commands += engine.shard_stats(s).virtual_commands;
    sum.relayed_commands += engine.shard_stats(s).relayed_commands;
    sum.events_published += engine.shard_stats(s).events_published;
  }
  ExpectStatsEqual(sum, engine.TotalStats());
  EXPECT_EQ(sum.physical_updates, 200u);
}

// `shard_stats` takes no lock and `TotalStats` holds the pipeline
// mutex, so neither may write state the other reads (TSan runs this in
// CI).
TEST(ParallelEngineTest, ConcurrentStatsReadersDoNotRace) {
  ThreadPool pool(2);
  ParallelEngine engine(ShardedOptions(2), &pool);
  engine.SpawnPhysical(At(1, {10, 10, 50}));
  std::vector<SensedUpdate> batch{{1, {20, 20, 50}, kMicrosPerSecond}};
  engine.IngestBatch(batch);

  std::thread shard_reader([&engine] {
    for (int i = 0; i < 2000; ++i) {
      uint64_t sum = 0;
      for (size_t s = 0; s < engine.num_shards(); ++s) {
        sum += engine.shard_stats(s).physical_updates;
      }
      EXPECT_EQ(sum, 1u);
    }
  });
  for (int i = 0; i < 2000; ++i) {
    EXPECT_EQ(engine.TotalStats().physical_updates, 1u);
  }
  shard_reader.join();
}

// ------------------------------------------------- concurrent ingest

// The satellite stress test: 8 producer threads hammer a 4-shard
// engine through the thread-safe Enqueue/Flush path.  Each producer
// owns a disjoint entity set, so per-entity update order is preserved
// no matter how the threads interleave — and the summed stats must
// equal a single-threaded engine fed the same updates.  Run under
// ThreadSanitizer in CI (DELUGE_SANITIZE=thread).
TEST(ParallelEngineTest, ConcurrentEnqueueMatchesSerialTotals) {
  constexpr size_t kThreads = 8;
  constexpr size_t kEntitiesPerThread = 40;
  constexpr size_t kRounds = 50;
  constexpr size_t kEntities = kThreads * kEntitiesPerThread;

  // Pre-generate each entity's walk so both engines see the same input.
  std::vector<std::vector<SensedUpdate>> walks(kEntities + 1);
  std::vector<Entity> spawns;
  Rng rng(99);
  for (EntityId id = 1; id <= kEntities; ++id) {
    geo::Vec3 pos{rng.UniformDouble(0, 1000), rng.UniformDouble(0, 1000), 50};
    spawns.push_back(At(id, pos));
    for (size_t r = 0; r < kRounds; ++r) {
      pos.x = std::clamp(pos.x + rng.UniformDouble(-3, 3), 0.0, 1000.0);
      pos.y = std::clamp(pos.y + rng.UniformDouble(-3, 3), 0.0, 1000.0);
      walks[id].push_back({id, pos, Micros(r + 1) * 50 * kMicrosPerMilli});
    }
  }

  ThreadPool pool(4);
  ParallelEngine sharded(ShardedOptions(4), &pool);
  SimClock clock;
  CoSpaceEngine serial(BaseOptions(), &clock);
  for (const Entity& e : spawns) {
    sharded.SpawnPhysical(e);
    serial.SpawnPhysical(e);
  }

  std::atomic<bool> stop_flusher{false};
  std::thread flusher([&] {
    // Concurrent flushes race the producers on the staging queues —
    // exactly the surface TSan needs to see.
    while (!stop_flusher.load()) sharded.Flush();
  });
  std::vector<std::thread> producers;
  for (size_t t = 0; t < kThreads; ++t) {
    producers.emplace_back([&, t] {
      for (size_t r = 0; r < kRounds; ++r) {
        for (size_t i = 0; i < kEntitiesPerThread; ++i) {
          EntityId id = EntityId(t * kEntitiesPerThread + i + 1);
          sharded.Enqueue(walks[id][r]);
        }
      }
    });
  }
  for (auto& p : producers) p.join();
  stop_flusher.store(true);
  flusher.join();
  sharded.Flush();

  // Serial reference: same updates, per-entity order preserved.
  for (EntityId id = 1; id <= kEntities; ++id) {
    for (const SensedUpdate& u : walks[id]) {
      serial.IngestPhysicalPosition(u.id, u.position, u.t);
    }
  }

  ExpectStatsEqual(serial.stats(), sharded.TotalStats());
  EXPECT_EQ(sharded.TotalStats().physical_updates, kEntities * kRounds);

  // Final mirror positions converge to the serial run's.
  for (EntityId id = 1; id <= kEntities; ++id) {
    const Entity* a = serial.virtual_space().Get(id);
    const Entity* b = sharded.FindVirtual(id);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(a->position.x, b->position.x);
    EXPECT_EQ(a->position.y, b->position.y);
  }
}

// ------------------------------------------------- cross-shard fan-out

TEST(ParallelEngineTest, CrossShardRoamingStillDeliversToRegionWatch) {
  ThreadPool pool(4);
  ParallelEngineOptions opts = ShardedOptions(4);
  opts.engine.default_contract = {0.0, 0};  // every update mirrors
  ParallelEngine engine(opts, &pool);

  // Entity homed near the origin corner...
  engine.SpawnPhysical(At(1, {10, 10, 50}));

  // ...watched in the far corner, which (with a 4-shard Morton grid)
  // need not include the home shard.
  geo::AABB region({900, 900, 0}, {1000, 1000, 100});
  std::atomic<int> delivered{0};
  engine.WatchRegion(7, region, [&](net::NodeId, const pubsub::Event& ev) {
    EXPECT_TRUE(ev.position.has_value());
    delivered.fetch_add(1);
  });

  // Roam into the watched region: fan-out is routed by event position,
  // so delivery must happen even though the entity's state lives on its
  // spawn shard.
  std::vector<SensedUpdate> batch{{1, {950, 950, 50}, kMicrosPerSecond}};
  EXPECT_EQ(engine.IngestBatch(batch), 1u);
  EXPECT_EQ(delivered.load(), 1);

  // And updates outside the region do not deliver.
  batch = {{1, {500, 500, 50}, 2 * kMicrosPerSecond}};
  engine.IngestBatch(batch);
  EXPECT_EQ(delivered.load(), 1);

  EXPECT_TRUE(engine.Unwatch(1));
  batch = {{1, {955, 955, 50}, 3 * kMicrosPerSecond}};
  engine.IngestBatch(batch);
  EXPECT_EQ(delivered.load(), 1);

  // A re-watch by the same subscriber reaches only the new callback.
  std::atomic<int> rewatched{0};
  engine.WatchRegion(7, region, [&](net::NodeId, const pubsub::Event&) {
    rewatched.fetch_add(1);
  });
  batch = {{1, {960, 960, 50}, 4 * kMicrosPerSecond}};
  engine.IngestBatch(batch);
  EXPECT_EQ(rewatched.load(), 1);
  EXPECT_EQ(delivered.load(), 1);
}

TEST(ParallelEngineTest, IssueVirtualCommandSpansShards) {
  ThreadPool pool(2);
  ParallelEngine engine(ShardedOptions(4), &pool);
  // One physical entity per world quadrant + one pure-virtual one.
  std::vector<geo::Vec3> corners = {
      {100, 100, 50}, {900, 100, 50}, {100, 900, 50}, {900, 900, 50}};
  for (size_t i = 0; i < corners.size(); ++i) {
    engine.SpawnPhysical(At(EntityId(i + 1), corners[i]));
  }
  engine.SpawnVirtual(At(99, {500, 500, 50}));

  std::vector<EntityId> relayed;
  engine.OnPhysicalCommand(
      [&](EntityId id, const stream::Tuple&) { relayed.push_back(id); });

  stream::Tuple cmd;
  cmd.Set("type", std::string("air-raid"));
  size_t affected = engine.IssueVirtualCommand(kWorld, cmd);

  EXPECT_EQ(affected, 5u);  // all four physical + the virtual one
  EXPECT_EQ(relayed.size(), 4u);  // only physical-origin entities relay
  std::sort(relayed.begin(), relayed.end());
  EXPECT_EQ(relayed, (std::vector<EntityId>{1, 2, 3, 4}));
  EXPECT_EQ(engine.TotalStats().virtual_commands, 1u);
  EXPECT_EQ(engine.TotalStats().relayed_commands, 4u);
}

// ------------------------------------------------- elastic rebalancing
//
// The Elastic* tests below also run under ThreadSanitizer in CI
// (DELUGE_SANITIZE=thread) — the handoff path takes route_mu_
// exclusively against concurrent Enqueue readers.

ParallelEngineOptions ElasticOptionsFor(size_t shards) {
  ParallelEngineOptions opts = ShardedOptions(shards);
  opts.elastic.enabled = true;
  opts.elastic.min_batches_between_rebalances = 1;
  opts.elastic.rebalance_threshold = 1.2;
  opts.elastic.min_shard_load = 1.0;
  return opts;
}

/// A band-hotspot walk: entity `id`'s tick-`r` position.  The band is
/// thin enough to pin a single y tile (the 4-shard engine derives a
/// 31.25 m cell for kWorld, and [490, 499] sits inside tile row 15),
/// which collapses Morton codes mod a power-of-two shard count onto
/// half the shards — the shape a static striping cannot balance.
SensedUpdate BandWalk(EntityId id, size_t r) {
  double x = 100.0 + double((id * 37 + r * 11) % 800);
  double y = 490.0 + double((id + r) % 20) * 0.45;
  return {id, {x, y, 50}, Micros(r + 1) * 100 * kMicrosPerMilli};
}

TEST(ParallelEngineTest, ElasticRebalanceTriggersAndMatchesSerial) {
  constexpr size_t kEntities = 300;
  constexpr size_t kRounds = 30;
  SimClock clock;
  CoSpaceEngine serial(BaseOptions(), &clock);
  ThreadPool pool(4);
  ParallelEngine sharded(ElasticOptionsFor(4), &pool, &clock);

  for (EntityId id = 1; id <= kEntities; ++id) {
    const Entity e = At(id, BandWalk(id, 0).position);
    serial.SpawnPhysical(e);
    sharded.SpawnPhysical(e);
  }
  uint64_t serial_deliveries = 0;
  std::atomic<uint64_t> sharded_deliveries{0};
  geo::AABB region({0, 400, 0}, {1000, 600, 100});
  serial.WatchRegion(1, region, [&](net::NodeId, const pubsub::Event&) {
    ++serial_deliveries;
  });
  sharded.WatchRegion(1, region, [&](net::NodeId, const pubsub::Event&) {
    sharded_deliveries.fetch_add(1, std::memory_order_relaxed);
  });

  for (size_t r = 0; r < kRounds; ++r) {
    std::vector<SensedUpdate> batch;
    for (EntityId id = 1; id <= kEntities; ++id) {
      batch.push_back(BandWalk(id, r + 1));
      serial.IngestPhysicalPosition(batch.back().id, batch.back().position,
                                    batch.back().t);
    }
    sharded.IngestBatch(batch);
  }

  // The banded load must trip the natural cadence/threshold gate (no
  // forced Rebalance() here) and migrate the crowd...
  EXPECT_GE(sharded.rebalance_count(), 1u);
  EXPECT_GT(sharded.entities_migrated(), 0u);
  EXPECT_GT(sharded.tiles_moved(), 0u);
  EXPECT_LT(sharded.LoadImbalance(), 2.0);
  // ...without perturbing a single statistic or delivery.
  ExpectStatsEqual(serial.stats(), sharded.TotalStats());
  EXPECT_EQ(serial_deliveries, sharded_deliveries.load());
  EXPECT_GT(serial_deliveries, 0u);
  for (EntityId id = 1; id <= kEntities; ++id) {
    const Entity* a = serial.virtual_space().Get(id);
    const Entity* b = sharded.FindVirtual(id);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(a->position.x, b->position.x);
    EXPECT_EQ(a->updated_at, b->updated_at);
  }
}

TEST(ParallelEngineTest, ElasticStagedUpdatesFollowMigratedEntities) {
  ThreadPool pool(4);
  ParallelEngineOptions elastic_opts = ElasticOptionsFor(4);
  // Accounting on, automatic trigger off: the one Rebalance() below
  // must be the first to touch the assignment, while updates are
  // parked in the staging queues.
  elastic_opts.elastic.rebalance_threshold = 1e9;
  ParallelEngine engine(elastic_opts, &pool);
  constexpr size_t kEntities = 64;
  for (EntityId id = 1; id <= kEntities; ++id) {
    engine.SpawnPhysical(At(id, BandWalk(id, 0).position));
  }
  // One ingested batch seeds the EWMA with the banded load (a forced
  // rebalance on a zero ledger is a deliberate no-op).
  std::vector<SensedUpdate> prime;
  for (EntityId id = 1; id <= kEntities; ++id) prime.push_back(BandWalk(id, 1));
  EXPECT_EQ(engine.IngestBatch(prime), kEntities);

  // Stage two updates per entity, then force a migration while they
  // sit in the staging queues: the handoff must re-route them to the
  // new owners without dropping one or flipping their order.
  for (EntityId id = 1; id <= kEntities; ++id) engine.Enqueue(BandWalk(id, 2));
  for (EntityId id = 1; id <= kEntities; ++id) engine.Enqueue(BandWalk(id, 3));
  EXPECT_TRUE(engine.Rebalance());
  EXPECT_GT(engine.entities_migrated(), 0u);
  EXPECT_EQ(engine.Flush(), 2 * kEntities);

  EXPECT_EQ(engine.TotalStats().physical_updates, 3 * kEntities);
  for (EntityId id = 1; id <= kEntities; ++id) {
    const Entity* m = engine.FindVirtual(id);
    ASSERT_NE(m, nullptr);
    // The later staged update won (order preserved through migration).
    EXPECT_EQ(m->position.x, BandWalk(id, 3).position.x);
    EXPECT_EQ(m->updated_at, BandWalk(id, 3).t);
  }
}

TEST(ParallelEngineTest, ElasticWatchDeliveriesExactAcrossRebalances) {
  ThreadPool pool(4);
  ParallelEngineOptions opts = ElasticOptionsFor(4);
  opts.engine.default_contract = {0.0, 0};  // every update mirrors
  ParallelEngine engine(opts, &pool);
  engine.SpawnPhysical(At(1, {500, 495, 50}));

  std::atomic<int> delivered{0};
  geo::AABB region({0, 400, 0}, {1000, 600, 100});
  engine.WatchRegion(9, region, [&](net::NodeId, const pubsub::Event&) {
    delivered.fetch_add(1);
  });

  // Alternate in-region updates with forced handoffs: exactly one
  // delivery per update, regardless of which shard owns the watch leg
  // at the time.
  int expected = 0;
  for (size_t r = 1; r <= 10; ++r) {
    std::vector<SensedUpdate> batch{BandWalk(1, r)};
    EXPECT_EQ(engine.IngestBatch(batch), 1u);
    ++expected;
    EXPECT_EQ(delivered.load(), expected) << "round " << r;
    engine.Rebalance();
  }
  EXPECT_GT(engine.rebalance_count(), 0u);
}

TEST(ParallelEngineTest, ElasticRebalanceKeepsQueuedDeliveriesOfDroppedLegs) {
  // A rebalance drops the legs of a watch on shards that no longer
  // cover its region while their queued brokers still hold matches
  // those legs made: each must still reach the watch at Drain.
  ThreadPool pool(4);
  ParallelEngineOptions opts = ElasticOptionsFor(4);
  opts.engine.default_contract = {0.0, 0};  // every update mirrors
  opts.elastic.rebalance_threshold = 1e9;   // only the forced Rebalance()
  ParallelEngine engine(opts, &pool);
  for (size_t s = 0; s < 4; ++s) engine.shard_broker(s).SetQueueLimit(1024);
  // Entities 1-4 sit one in each tile of the corner 2x2 tile block
  // (Morton codes 0-3, striped over all four shards).  The banded crowd
  // 101-164 loads the engine so that the rebalance gives the cold
  // corner to one shard.
  auto update = [](EntityId id, size_t r) {
    if (id > 4) return BandWalk(id, r);
    const geo::Vec3 p{15.0 + double((id - 1) % 2 * 30 + r),
                      15.0 + double((id - 1) / 2 * 30), 50};
    return SensedUpdate{id, p, Micros(r + 1) * kMicrosPerSecond};
  };
  std::vector<EntityId> ids{1, 2, 3, 4};
  for (EntityId id = 101; id <= 164; ++id) ids.push_back(id);
  for (EntityId id : ids) engine.SpawnPhysical(At(id, update(id, 0).position));
  std::atomic<uint64_t> delivered{0};
  engine.WatchRegion(
      9, geo::AABB({1, 1, 0}, {60, 60, 100}),
      [&](net::NodeId, const pubsub::Event&) { delivered.fetch_add(1); });
  auto tick = [&](size_t r) {
    std::vector<SensedUpdate> batch;
    for (EntityId id : ids) batch.push_back(update(id, r));
    engine.IngestBatch(batch);
  };
  auto depths = [&] {  // queued deliveries per shard, ascending
    std::vector<size_t> d;
    for (size_t s = 0; s < 4; ++s) {
      d.push_back(engine.shard_broker(s).queue_depth());
    }
    std::sort(d.begin(), d.end());
    return d;
  };
  auto drain = [&] {
    for (size_t s = 0; s < 4; ++s) engine.shard_broker(s).Drain();
  };

  tick(1);
  EXPECT_EQ(depths(), (std::vector<size_t>{1, 1, 1, 1}));
  ASSERT_TRUE(engine.Rebalance());
  drain();
  EXPECT_EQ(delivered.load(), 4u);
  // The corner now belongs to one shard, which alone matches the watch.
  tick(2);
  EXPECT_EQ(depths(), (std::vector<size_t>{0, 0, 0, 4}));
  drain();
  EXPECT_EQ(delivered.load(), 8u);
  EXPECT_EQ(engine.TotalBrokerStats().deliveries, 8u);
}

TEST(ParallelEngineTest, ElasticConcurrentEnqueueDuringRebalance) {
  constexpr size_t kThreads = 4;
  constexpr size_t kEntitiesPerThread = 25;
  constexpr size_t kRounds = 40;
  constexpr size_t kEntities = kThreads * kEntitiesPerThread;

  ThreadPool pool(4);
  ParallelEngine engine(ElasticOptionsFor(4), &pool);
  for (EntityId id = 1; id <= kEntities; ++id) {
    engine.SpawnPhysical(At(id, BandWalk(id, 0).position));
  }

  // Producers stage through the shared-locked Enqueue path while the
  // main thread forces migrations and flushes — the exact writer/reader
  // contention on route_mu_ the handoff protocol must survive.
  std::vector<std::thread> producers;
  for (size_t t = 0; t < kThreads; ++t) {
    producers.emplace_back([&, t] {
      for (size_t r = 1; r <= kRounds; ++r) {
        for (size_t i = 0; i < kEntitiesPerThread; ++i) {
          engine.Enqueue(BandWalk(EntityId(t * kEntitiesPerThread + i + 1), r));
        }
      }
    });
  }
  for (int i = 0; i < 20; ++i) {
    engine.Rebalance();
    engine.Flush();
  }
  for (auto& p : producers) p.join();
  engine.Flush();

  EXPECT_EQ(engine.TotalStats().physical_updates, kEntities * kRounds);
  for (EntityId id = 1; id <= kEntities; ++id) {
    const Entity* m = engine.FindVirtual(id);
    ASSERT_NE(m, nullptr);
    // Per-entity order held: the final mirror is the last-round update.
    EXPECT_EQ(m->updated_at, BandWalk(id, kRounds).t);
  }
}

TEST(ParallelEngineTest, ElasticDisabledKeepsStaticStriping) {
  ThreadPool pool(2);
  ParallelEngine engine(ShardedOptions(4), &pool);  // elastic off
  engine.SpawnPhysical(At(1, {500, 495, 50}));
  for (size_t r = 1; r <= 8; ++r) {
    std::vector<SensedUpdate> batch{BandWalk(1, r)};
    engine.IngestBatch(batch);
  }
  // No accounting, no automatic rebalances, imbalance reads as flat.
  EXPECT_EQ(engine.rebalance_count(), 0u);
  EXPECT_EQ(engine.entities_migrated(), 0u);
  EXPECT_EQ(engine.LoadImbalance(), 1.0);
}

TEST(ParallelEngineTest, SingleShardNullPoolRunsSerially) {
  ParallelEngine engine(ShardedOptions(1), nullptr);
  engine.SpawnPhysical(At(1, {10, 10, 10}));
  std::vector<SensedUpdate> batch{{1, {20, 20, 10}, kMicrosPerSecond}};
  EXPECT_EQ(engine.IngestBatch(batch), 1u);
  EXPECT_EQ(engine.TotalStats().physical_updates, 1u);
  const Entity* mirrored = engine.FindVirtual(1);
  ASSERT_NE(mirrored, nullptr);
  EXPECT_EQ(mirrored->position.x, 20);
}

TEST(ParallelEngineTest, SingleShardPublishesEachRefreshBeforeTheNextUpdate) {
  // One shard has no cross-shard exchange, so a refresh is published as
  // soon as it passes coherency: its watcher runs while the batch's
  // later updates are still unapplied.
  ParallelEngineOptions opts = ShardedOptions(1);
  opts.engine.default_contract = {0.0, 0};  // every update mirrors
  ParallelEngine engine(opts, nullptr);
  SimClock clock;
  CoSpaceEngine serial(opts.engine, &clock);
  const geo::Vec3 start[2] = {{100, 100, 50}, {200, 200, 50}};
  for (EntityId id = 1; id <= 2; ++id) {
    const Entity e = At(id, start[id - 1]);
    engine.SpawnPhysical(e);
    serial.SpawnPhysical(e);
  }

  using Delivery = std::tuple<std::string, double, double, Micros>;
  auto record = [](std::vector<Delivery>* out, const pubsub::Event& ev) {
    ASSERT_TRUE(ev.position.has_value());
    out->emplace_back(ev.payload.key, ev.position->x, ev.position->y,
                      ev.published_at);
  };
  std::vector<Delivery> streamed, reference;
  bool checked_first = false;
  engine.WatchRegion(1, kWorld, [&](net::NodeId, const pubsub::Event& ev) {
    if (ev.payload.key == "1") {
      const Entity* second = engine.FindVirtual(2);
      ASSERT_NE(second, nullptr);
      EXPECT_EQ(second->position.x, start[1].x)
          << "entity 2 was mirrored before entity 1's refresh went out";
      checked_first = true;
    }
    record(&streamed, ev);
  });
  serial.WatchRegion(1, kWorld, [&](net::NodeId, const pubsub::Event& ev) {
    record(&reference, ev);
  });

  const std::vector<SensedUpdate> batch{{1, {110, 110, 50}, kMicrosPerSecond},
                                        {2, {210, 210, 50}, kMicrosPerSecond}};
  EXPECT_EQ(engine.IngestBatch(batch), 2u);
  for (const SensedUpdate& u : batch) {
    serial.IngestPhysicalPosition(u.id, u.position, u.t, u.qos);
  }
  EXPECT_TRUE(checked_first);
  EXPECT_EQ(engine.FindVirtual(2)->position.x, 210);
  ASSERT_EQ(streamed.size(), 2u);
  EXPECT_EQ(streamed, reference);
  ExpectStatsEqual(serial.stats(), engine.TotalStats());
}

TEST(ParallelEngineTest, SingleShardStreamingKeepsQueueModeAndElasticCharge) {
  // Streaming publishes through the same call as phase 2: a queued
  // broker still holds every delivery until Drain, in publish order,
  // and elastic accounting still charges each delivery to its tile.
  ParallelEngineOptions opts = ShardedOptions(1);
  opts.engine.default_contract = {0.0, 0};  // every update mirrors
  opts.elastic.enabled = true;
  ParallelEngine engine(opts, nullptr);
  engine.shard_broker(0).SetQueueLimit(1024);
  constexpr EntityId kEntities = 8;
  constexpr net::NodeId kWatchers = 3;
  std::vector<SensedUpdate> batch;
  for (EntityId id = 1; id <= kEntities; ++id) {
    engine.SpawnPhysical(At(id, {double(id) * 100, 100, 50}));
    batch.push_back({id, {double(id) * 100 + 5, 105, 50}, kMicrosPerSecond});
  }
  std::vector<std::string> delivered;  // entity keys, in delivery order
  for (net::NodeId w = 1; w <= kWatchers; ++w) {
    engine.WatchRegion(w, kWorld, [&](net::NodeId, const pubsub::Event& ev) {
      delivered.push_back(ev.payload.key);
    });
  }

  EXPECT_EQ(engine.IngestBatch(batch), kEntities);
  EXPECT_TRUE(delivered.empty()) << "a queued broker delivered inline";
  EXPECT_EQ(engine.shard_broker(0).Drain(), kEntities * kWatchers);
  ASSERT_EQ(delivered.size(), kEntities * kWatchers);
  for (size_t i = 0; i < delivered.size(); ++i) {
    EXPECT_EQ(delivered[i], std::to_string(i / kWatchers + 1)) << i;
  }
  // One unit per ingested update plus one per (queued) delivery, folded
  // once into an EWMA that started at zero.
  const double charged = double(kEntities * (1 + kWatchers));
  EXPECT_DOUBLE_EQ(engine.ShardLoads()[0],
                   ParallelEngine::kLoadEwmaAlpha * charged);
}

}  // namespace
}  // namespace deluge::core
