#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "core/engine.h"
#include "core/sensors.h"
#include "core/world_space.h"

namespace deluge::core {
namespace {

const geo::AABB kWorld({0, 0, 0}, {1000, 1000, 100});

Entity MakeAvatar(EntityId id, geo::Vec3 pos) {
  Entity e;
  e.id = id;
  e.kind = EntityKind::kAvatar;
  e.position = pos;
  return e;
}

// -------------------------------------------------------------- WorldSpace

TEST(WorldSpaceTest, UpsertGetRemove) {
  WorldSpace space(stream::Space::kPhysical, kWorld);
  space.Upsert(MakeAvatar(1, {10, 10, 0}));
  ASSERT_NE(space.Get(1), nullptr);
  EXPECT_EQ(space.Get(1)->position, (geo::Vec3{10, 10, 0}));
  ASSERT_TRUE(space.Remove(1).ok());
  EXPECT_EQ(space.Get(1), nullptr);
  EXPECT_TRUE(space.Remove(1).IsNotFound());
}

TEST(WorldSpaceTest, MoveReindexes) {
  WorldSpace space(stream::Space::kPhysical, kWorld);
  space.Upsert(MakeAvatar(1, {10, 10, 0}));
  ASSERT_TRUE(space.Move(1, {900, 900, 0}, 100).ok());
  auto near_new = space.Range(geo::AABB::Cube({900, 900, 0}, 5));
  ASSERT_EQ(near_new.size(), 1u);
  EXPECT_EQ(near_new[0]->updated_at, 100);
  EXPECT_TRUE(space.Range(geo::AABB::Cube({10, 10, 0}, 5)).empty());
  EXPECT_TRUE(space.Move(42, {0, 0, 0}, 0).IsNotFound());
}

TEST(WorldSpaceTest, AttributesAndTypedAccess) {
  WorldSpace space(stream::Space::kVirtual, kWorld);
  space.Upsert(MakeAvatar(1, {1, 1, 0}));
  ASSERT_TRUE(space.SetAttribute(1, "hp", int64_t{90}).ok());
  ASSERT_TRUE(space.SetAttribute(1, "name", std::string("alpha")).ok());
  const Entity* e = space.Get(1);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->Attr<int64_t>("hp"), 90);
  EXPECT_EQ(e->Attr<std::string>("name"), "alpha");
  EXPECT_FALSE(e->Attr<double>("hp").has_value());  // wrong type
  EXPECT_TRUE(space.SetAttribute(9, "x", 1.0).IsNotFound());
}

TEST(WorldSpaceTest, NearestReturnsClosest) {
  WorldSpace space(stream::Space::kPhysical, kWorld);
  space.Upsert(MakeAvatar(1, {100, 100, 0}));
  space.Upsert(MakeAvatar(2, {110, 100, 0}));
  space.Upsert(MakeAvatar(3, {500, 500, 0}));
  auto nearest = space.Nearest({101, 100, 0}, 2);
  ASSERT_EQ(nearest.size(), 2u);
  EXPECT_EQ(nearest[0]->id, 1u);
  EXPECT_EQ(nearest[1]->id, 2u);
}

// ------------------------------------------------------------ CoSpaceEngine

class EngineTest : public ::testing::Test {
 protected:
  EngineOptions DefaultOptions() {
    EngineOptions opts;
    opts.world_bounds = kWorld;
    opts.default_contract = {5.0, 10 * kMicrosPerSecond};
    return opts;
  }
  SimClock clock_;
};

TEST_F(EngineTest, SpawnMirrorsImmediately) {
  CoSpaceEngine engine(DefaultOptions(), &clock_);
  engine.SpawnPhysical(MakeAvatar(1, {100, 100, 0}));
  ASSERT_NE(engine.physical().Get(1), nullptr);
  ASSERT_NE(engine.virtual_space().Get(1), nullptr);
  EXPECT_EQ(engine.virtual_space().Get(1)->position, (geo::Vec3{100, 100, 0}));
}

TEST_F(EngineTest, CoherencySuppressesSmallMoves) {
  CoSpaceEngine engine(DefaultOptions(), &clock_);
  engine.SpawnPhysical(MakeAvatar(1, {100, 100, 0}));
  // 1 m move: physical tracks, mirror lags (bound is 5 m).
  EXPECT_FALSE(engine.IngestPhysicalPosition(1, {101, 100, 0}, 1000));
  EXPECT_EQ(engine.physical().Get(1)->position.x, 101);
  EXPECT_EQ(engine.virtual_space().Get(1)->position.x, 100);
  // 10 m total drift: mirror refreshes.
  EXPECT_TRUE(engine.IngestPhysicalPosition(1, {110, 100, 0}, 2000));
  EXPECT_EQ(engine.virtual_space().Get(1)->position.x, 110);
  EXPECT_EQ(engine.stats().suppressed_updates, 1u);
  EXPECT_EQ(engine.stats().mirrored_updates, 1u);
}

TEST_F(EngineTest, PerEntityContract) {
  CoSpaceEngine engine(DefaultOptions(), &clock_);
  engine.SpawnPhysical(MakeAvatar(1, {100, 100, 0}));
  engine.SpawnPhysical(MakeAvatar(2, {100, 100, 0}));
  engine.SetContract(2, {0.1, 10 * kMicrosPerSecond});  // VIP: tight
  EXPECT_FALSE(engine.IngestPhysicalPosition(1, {101, 100, 0}, 1000));
  EXPECT_TRUE(engine.IngestPhysicalPosition(2, {101, 100, 0}, 1000));
}

TEST_F(EngineTest, MirrorUpdatesReachRegionalWatchers) {
  CoSpaceEngine engine(DefaultOptions(), &clock_);
  engine.SpawnPhysical(MakeAvatar(1, {100, 100, 0}));
  std::vector<pubsub::Event> seen;
  const uint64_t near = engine.WatchRegion(
      7, geo::AABB({0, 0, 0}, {200, 200, 100}),
      [&](net::NodeId, const pubsub::Event& e) { seen.push_back(e); });
  // A second watch by the same subscriber sees only its own region.
  size_t far_seen = 0;
  engine.WatchRegion(7, geo::AABB({400, 400, 0}, {600, 600, 100}),
                     [&](net::NodeId subscriber, const pubsub::Event&) {
                       EXPECT_EQ(subscriber, 7u);
                       ++far_seen;
                     });
  engine.IngestPhysicalPosition(1, {150, 150, 0}, 1000);  // big move: mirrors
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].topic, "mirror.position");
  EXPECT_EQ(far_seen, 0u);
  // Moves outside the watched region do not notify this watcher.
  engine.IngestPhysicalPosition(1, {500, 500, 0}, 2000);
  EXPECT_EQ(seen.size(), 1u);
  EXPECT_EQ(far_seen, 1u);
  // A subscription added on the broker directly is matched and counted
  // but reaches no watch, not even one whose id is its subscriber.
  pubsub::Subscription direct;
  direct.subscriber = net::NodeId(near);
  direct.region = geo::AABB({0, 0, 0}, {1000, 1000, 100});
  engine.broker().Subscribe(std::move(direct));
  engine.IngestPhysicalPosition(1, {100, 100, 0}, 3000);
  EXPECT_EQ(engine.broker().stats().deliveries, 4u);
  EXPECT_EQ(seen.size(), 2u);
  EXPECT_EQ(far_seen, 1u);
}

TEST_F(EngineTest, AttributesMirrorAndPublish) {
  CoSpaceEngine engine(DefaultOptions(), &clock_);
  engine.SpawnPhysical(MakeAvatar(1, {100, 100, 0}));
  ASSERT_TRUE(
      engine.IngestPhysicalAttribute(1, "casualties", int64_t{3}, 100).ok());
  EXPECT_EQ(engine.virtual_space().Get(1)->Attr<int64_t>("casualties"), 3);
  EXPECT_TRUE(engine.IngestPhysicalAttribute(9, "x", 1.0, 0).IsNotFound());
}

TEST_F(EngineTest, VirtualCommandReachesPhysicalEntities) {
  CoSpaceEngine engine(DefaultOptions(), &clock_);
  engine.SpawnPhysical(MakeAvatar(1, {100, 100, 0}));
  engine.SpawnPhysical(MakeAvatar(2, {500, 500, 0}));
  engine.SpawnVirtual(MakeAvatar(100, {110, 110, 0}));  // cyber user nearby

  std::vector<EntityId> hit;
  engine.OnPhysicalCommand(
      [&](EntityId target, const stream::Tuple& cmd) {
        if (cmd.Get<std::string>("type") == "air-raid") hit.push_back(target);
      });
  stream::Tuple raid;
  raid.Set("type", std::string("air-raid"));
  size_t affected =
      engine.IssueVirtualCommand(geo::AABB({0, 0, 0}, {200, 200, 100}), raid);
  // Both the soldier and the cyber avatar are in the region, but only
  // the physical-origin entity receives the relayed command.
  EXPECT_EQ(affected, 2u);
  ASSERT_EQ(hit.size(), 1u);
  EXPECT_EQ(hit[0], 1u);
  EXPECT_EQ(engine.stats().relayed_commands, 1u);
}

TEST_F(EngineTest, CommandTargetsResolvedAgainstStaleMirror) {
  // The commander sees the VIRTUAL model; a soldier who physically left
  // the region but whose mirror is stale still gets hit — exactly the
  // consistency tension of Section IV-C.
  EngineOptions opts = DefaultOptions();
  opts.default_contract = {50.0, 100 * kMicrosPerSecond};  // very loose
  CoSpaceEngine engine(opts, &clock_);
  engine.SpawnPhysical(MakeAvatar(1, {100, 100, 0}));
  // Soldier moves 30 m: physical truth changes, mirror stays (bound 50).
  engine.IngestPhysicalPosition(1, {130, 100, 0}, 1000);
  ASSERT_EQ(engine.virtual_space().Get(1)->position.x, 100);

  int commands = 0;
  engine.OnPhysicalCommand(
      [&](EntityId, const stream::Tuple&) { ++commands; });
  stream::Tuple cmd;
  // Region covering the STALE mirror position only.
  engine.IssueVirtualCommand(geo::AABB({90, 90, 0}, {110, 110, 100}), cmd);
  EXPECT_EQ(commands, 1);  // mirror says they're there
}

// --------------------------------------------------------------- SensorFleet

TEST(SensorFleetTest, ProducesReadingsForAllEntities) {
  SensorFleetOptions opts;
  opts.num_entities = 50;
  opts.drop_probability = 0.0;
  opts.gps_noise_stddev = 0.0;
  SensorFleet fleet(kWorld, opts);
  auto readings = fleet.Tick(kMicrosPerSecond, kMicrosPerSecond);
  EXPECT_EQ(readings.size(), 50u);
  std::set<EntityId> ids;
  for (const auto& r : readings) {
    ids.insert(r.entity);
    EXPECT_TRUE(kWorld.Contains(r.position));
    EXPECT_EQ(r.t, kMicrosPerSecond);
  }
  EXPECT_EQ(ids.size(), 50u);
}

TEST(SensorFleetTest, DropsConfiguredFraction) {
  SensorFleetOptions opts;
  opts.num_entities = 1000;
  opts.drop_probability = 0.3;
  SensorFleet fleet(kWorld, opts);
  auto readings = fleet.Tick(kMicrosPerSecond, 0);
  EXPECT_GT(readings.size(), 600u);
  EXPECT_LT(readings.size(), 800u);
}

TEST(SensorFleetTest, NoiseBoundedAroundTruth) {
  SensorFleetOptions opts;
  opts.num_entities = 100;
  opts.gps_noise_stddev = 1.0;
  SensorFleet fleet(kWorld, opts);
  auto readings = fleet.Tick(kMicrosPerSecond, 0);
  double total_err = 0;
  for (const auto& r : readings) {
    total_err += geo::Distance(r.position, fleet.TruePosition(r.entity));
  }
  double mean_err = total_err / double(readings.size());
  EXPECT_GT(mean_err, 0.3);
  EXPECT_LT(mean_err, 3.0);
}

TEST(SensorFleetTest, EntitiesStayInWorld) {
  SensorFleetOptions opts;
  opts.num_entities = 20;
  opts.max_speed = 50.0;  // fast: exercise bouncing
  opts.gps_noise_stddev = 0.0;
  SensorFleet fleet(kWorld, opts);
  for (int tick = 0; tick < 200; ++tick) {
    fleet.Tick(kMicrosPerSecond, tick * kMicrosPerSecond);
  }
  for (EntityId id = 1; id <= 20; ++id) {
    EXPECT_TRUE(kWorld.Contains(fleet.TruePosition(id))) << id;
  }
}

TEST(SensorFleetTest, DeterministicGivenSeed) {
  SensorFleetOptions opts;
  opts.num_entities = 10;
  SensorFleet a(kWorld, opts), b(kWorld, opts);
  auto ra = a.Tick(kMicrosPerSecond, 0);
  auto rb = b.Tick(kMicrosPerSecond, 0);
  ASSERT_EQ(ra.size(), rb.size());
  for (size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].position, rb[i].position);
  }
}

// ------------------------------------------------- End-to-end ingest loop

TEST(EndToEndTest, FleetThroughEngineKeepsMirrorWithinBound) {
  EngineOptions opts;
  opts.world_bounds = kWorld;
  const double kBound = 5.0;
  opts.default_contract = {kBound, 3600 * kMicrosPerSecond};
  SimClock clock;
  CoSpaceEngine engine(opts, &clock);

  SensorFleetOptions fleet_opts;
  fleet_opts.num_entities = 100;
  fleet_opts.gps_noise_stddev = 0.0;
  fleet_opts.max_speed = 3.0;
  SensorFleet fleet(kWorld, fleet_opts);
  for (EntityId id = 1; id <= 100; ++id) {
    engine.SpawnPhysical(MakeAvatar(id, fleet.TruePosition(id)));
  }
  Micros now = 0;
  for (int tick = 0; tick < 100; ++tick) {
    now += 100 * kMicrosPerMilli;
    for (const auto& r : fleet.Tick(100 * kMicrosPerMilli, now)) {
      engine.IngestPhysicalPosition(r.entity, r.position, r.t);
    }
  }
  // Invariant: every mirror within the coherency bound of ground truth.
  for (EntityId id = 1; id <= 100; ++id) {
    double err = geo::Distance(engine.virtual_space().Get(id)->position,
                               engine.physical().Get(id)->position);
    EXPECT_LE(err, kBound + 1e-9) << id;
  }
  // And plenty of updates were suppressed (that's the point).
  EXPECT_GT(engine.stats().suppressed_updates,
            engine.stats().mirrored_updates);
}

}  // namespace
}  // namespace deluge::core
