#include "core/scenarios.h"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <utility>

#include "obs/metrics.h"

namespace deluge::core {

namespace {

/// One instrumented hop and the policy target it is graded against
/// (nullptr = informational leg, reported but never gated).
struct LegSpec {
  const char* name;
  Micros QosTarget::*target;
};

const LegSpec kLegSpecs[] = {
    {"engine.ingest_ns", nullptr},
    {"coherency.refresh_gap_us", &QosTarget::freshness_us},
    {"broker.delivery_us", &QosTarget::delivery_p99_us},
    {"net.send_us", &QosTarget::delivery_p99_us},
    {"storage.commit_us", &QosTarget::commit_p99_us},
};

/// The class index of a sample's {qos=...} label; -1 when untagged.
int QosIndexOf(const obs::Labels& labels) {
  for (const auto& [k, v] : labels) {
    if (k != "qos") continue;
    for (QosClass c : kAllQosClasses) {
      if (v == QosClassName(c)) return int(uint8_t(c));
    }
  }
  return -1;
}

}  // namespace

// ---------------------------------------------------------------------
// MixedScenario

MixedScenario::MixedScenario(ScenarioOptions options)
    : options_(std::move(options)),
      pool_(std::max<size_t>(1, options_.num_shards)),
      runtime_(&sim_, /*keep_alive=*/500 * kMicrosPerMilli),
      net_(&sim_, options_.seed),
      deliverer_(&net_, RetryPolicy{}, options_.seed) {
  // --- Live event streaming: crowd + swarms on the sharded engine. ----
  ParallelEngineOptions peo;
  peo.num_shards = options_.num_shards;
  peo.elastic.enabled = true;
  const geo::AABB world = peo.engine.world_bounds;
  engine_ = std::make_unique<ParallelEngine>(peo, &pool_, &clock_);
  engine_->SetQosClock(&clock_);
  for (size_t i = 0; i < engine_->num_shards(); ++i) {
    engine_->shard_broker(i).SetQueueLimit(options_.broker_queue_limit);
  }

  WorkloadOptions crowd_opts;
  crowd_opts.num_entities = options_.crowd_entities;
  crowd_opts.seed = options_.seed;
  crowd_ = std::make_unique<FlashCrowdWorkload>(world, crowd_opts,
                                                options_.crowd_skew);
  WorkloadOptions swarm_opts;
  swarm_opts.num_entities = options_.ar_entities;
  swarm_opts.seed = options_.seed + 1;
  swarms_ = std::make_unique<RoamingSwarmWorkload>(
      world, swarm_opts, options_.num_swarms, options_.swarm_spread);
  swarm_id_offset_ = EntityId(options_.crowd_entities);

  // Crowd mirrors are the kRealtime tier: refresh on any movement, cap
  // staleness inside the freshness target.  Swarm (kInteractive) trades
  // precision for bandwidth with a looser bound.
  const consistency::CoherencyContract realtime_contract{
      0.0, 50 * kMicrosPerMilli};
  const consistency::CoherencyContract interactive_contract{
      0.5, 60 * kMicrosPerMilli};
  for (EntityId id = FlashCrowdWorkload::first_id();
       id < FlashCrowdWorkload::first_id() + EntityId(crowd_->size());
       ++id) {
    Entity e;
    e.id = id;
    e.position = crowd_->Position(id);
    engine_->SpawnPhysical(e);
    engine_->SetContract(id, realtime_contract);
  }
  for (EntityId id = RoamingSwarmWorkload::first_id();
       id < RoamingSwarmWorkload::first_id() + EntityId(swarms_->size());
       ++id) {
    Entity e;
    e.id = id + swarm_id_offset_;
    e.position = swarms_->Position(id);
    engine_->SpawnPhysical(e);
    engine_->SetContract(e.id, interactive_contract);
  }

  // Four quadrant audiences plus one world-wide feed that samples
  // events toward the remote mirror site.
  const geo::Vec3 mid{(world.min.x + world.max.x) / 2,
                      (world.min.y + world.max.y) / 2, world.max.z};
  const geo::AABB quadrants[4] = {
      {world.min, mid},
      {{mid.x, world.min.y, world.min.z}, {world.max.x, mid.y, world.max.z}},
      {{world.min.x, mid.y, world.min.z}, {mid.x, world.max.y, world.max.z}},
      {{mid.x, mid.y, world.min.z}, world.max},
  };
  for (int q = 0; q < 4; ++q) {
    engine_->WatchRegion(net::NodeId(q), quadrants[q],
                         [](net::NodeId, const pubsub::Event&) {});
  }
  engine_->WatchRegion(
      net::NodeId(4), world,
      [this](net::NodeId, const pubsub::Event& event) {
        if (++backlog_sampler_ % 8 == 0 && remote_backlog_.size() < 4096) {
          remote_backlog_.push_back(event);
        }
      });

  // --- Hospital twin: kTelemetry vitals on a serial engine. -----------
  EngineOptions hopts;
  hopts.world_bounds = geo::AABB{{0, 0, 0}, {100, 100, 20}};
  hopts.default_contract = {0.0, 200 * kMicrosPerMilli};
  hopts.broker_cell = 10.0;
  hospital_ = std::make_unique<CoSpaceEngine>(hopts, &clock_);
  hospital_->broker().SetClock(&clock_);
  hospital_->broker().SetQueueLimit(options_.broker_queue_limit);
  for (size_t p = 0; p < options_.patients; ++p) {
    Entity bed;
    bed.id = EntityId(p + 1);
    bed.kind = EntityKind::kSensor;
    bed.position = {5.0 + double(p % 10) * 8.0, 5.0 + double(p / 10) * 8.0,
                    1.0};
    hospital_->SpawnPhysical(bed);
  }
  hospital_->WatchRegion(
      net::NodeId(0), hopts.world_bounds,
      [this](net::NodeId, const pubsub::Event& event) {
        if (++backlog_sampler_ % 4 == 0 && remote_backlog_.size() < 4096) {
          remote_backlog_.push_back(event);
        }
      });

  // --- AR navigation: serverless functions under a concurrency cap. --
  runtime_.Register({"nav.route", /*cold_start=*/30 * kMicrosPerMilli,
                     /*exec_time=*/5 * kMicrosPerMilli, /*memory_mb=*/128});
  runtime_.Register({"map.tile", /*cold_start=*/50 * kMicrosPerMilli,
                     /*exec_time=*/10 * kMicrosPerMilli, /*memory_mb=*/256});
  runtime_.SetConcurrencyLimit(options_.nav_concurrency,
                               options_.nav_queue_limit);

  // --- Remote mirror site across the simulated WAN. -------------------
  local_site_ = net_.AddNode([](const net::Message&) {});
  remote_site_ = net_.AddNode(
      [this](const net::Message&) { ++totals_.remote_received; });
  net::LinkOptions wan;
  wan.latency = 3 * kMicrosPerMilli;
  wan.bandwidth_bytes_per_sec = 12.5e6;  // 100 Mbps site uplink
  wan.jitter = 500;
  net_.SetBidirectional(local_site_, remote_site_, wan);

  // --- Durable telemetry store (optional). ----------------------------
  if (!options_.storage_dir.empty()) {
    storage::KVStoreOptions sopts;
    sopts.dir = options_.storage_dir;
    auto opened = storage::KVStore::Open(sopts);
    if (opened.ok()) store_ = std::move(opened).value();
  }
}

MixedScenario::~MixedScenario() = default;

void MixedScenario::DrainBrokers() {
  // Best-class-first chunked draining: advancing the virtual clock by
  // the chunk's service time between chunks converts drain *order* into
  // per-class delivery *latency* — kRealtime leaves in the first
  // chunks, kBulk pays for everything queued ahead of it.
  auto drain = [this](pubsub::Broker& broker) {
    while (broker.queue_depth() > 0) {
      const size_t chunk =
          std::min(options_.drain_chunk, broker.queue_depth());
      clock_.Advance(Micros(chunk) * options_.delivery_service_us);
      if (broker.Drain(chunk) == 0) break;
    }
  };
  for (size_t i = 0; i < engine_->num_shards(); ++i) {
    drain(engine_->shard_broker(i));
  }
  drain(hospital_->broker());
}

void MixedScenario::TickHospital(int tick, Micros now) {
  for (size_t p = 0; p < options_.patients; ++p) {
    const EntityId id = EntityId(p + 1);
    // Bed-level jitter keeps the mirror refreshing every tick (vitals
    // monitors report continuously even for a stationary patient).
    geo::Vec3 pos = hospital_->physical().Get(id)->position;
    pos.x += ((size_t(tick) + p) % 2 == 0) ? 0.05 : -0.05;
    hospital_->IngestPhysicalPosition(id, pos, now, QosClass::kTelemetry);
    ++totals_.updates_ingested;
    if ((size_t(tick) + p) % 5 == 0) {
      const double bpm = 60.0 + double((tick * 7 + int(p) * 13) % 40);
      (void)hospital_->IngestPhysicalAttribute(id, "heart_rate", bpm, now);
    }
  }
  if (store_ == nullptr) return;
  // Vitals of the whole ward commit as one durable batch (kTelemetry
  // forces the group's WAL sync even though the store runs async).
  storage::WriteBatch vitals;
  for (size_t p = 0; p < options_.patients; ++p) {
    vitals.Put("vitals/" + std::to_string(p) + "/" + std::to_string(tick),
               std::to_string(now));
  }
  if (store_->Write(vitals, {QosClass::kTelemetry}).ok()) {
    ++totals_.telemetry_commits;
  }
  if (options_.archive_every > 0 && tick % options_.archive_every == 0) {
    storage::WriteBatch archive;
    for (size_t p = 0; p < options_.patients; ++p) {
      archive.Put("archive/" + std::to_string(tick / options_.archive_every) +
                      "/" + std::to_string(p),
                  std::string(256, 'a'));
    }
    if (store_->Write(archive, {QosClass::kBulk}).ok()) {
      ++totals_.archive_commits;
    }
  }
}

void MixedScenario::TickNavigation() {
  for (size_t i = 0; i < options_.nav_invokes_per_tick; ++i) {
    runtime_.Invoke(
        "nav.route", [this]() { ++totals_.nav_completed; },
        QosClass::kInteractive);
  }
  for (size_t i = 0; i < options_.tile_prefetch_per_tick; ++i) {
    runtime_.Invoke("map.tile", nullptr, QosClass::kBulk);
  }
}

void MixedScenario::TickRemoteSite(int tick) {
  if (options_.partition_every > 0) {
    const int phase = tick % options_.partition_every;
    if (phase == 0 && tick > 0) {
      net_.Partition(local_site_, remote_site_);
    } else if (phase == options_.partition_ticks) {
      net_.Heal(local_site_, remote_site_);
    }
  }
  // A steady kBulk trickle (map-tile sync) rides along with the sampled
  // mirror/telemetry events, so every class crosses the WAN.
  pubsub::Event tile;
  tile.topic = "map.tile.sync";
  tile.qos = QosClass::kBulk;
  tile.published_at = clock_.NowMicros();
  tile.bytes = 16 * 1024;
  remote_backlog_.push_back(tile);

  size_t budget = options_.remote_forward_per_tick;
  while (budget-- > 0 && !remote_backlog_.empty()) {
    deliverer_.Deliver(local_site_, remote_site_, remote_backlog_.back());
    remote_backlog_.pop_back();
    ++totals_.remote_forwarded;
  }
}

ScenarioTotals MixedScenario::Run() {
  for (int tick = 0; tick < options_.ticks; ++tick) {
    clock_.Advance(options_.tick_dt);
    const Micros now = clock_.NowMicros();

    auto batch = crowd_->Tick(options_.tick_dt, now);
    auto swarm_updates = swarms_->Tick(options_.tick_dt, now);
    batch.reserve(batch.size() + swarm_updates.size());
    for (SensedUpdate u : swarm_updates) {
      u.id += swarm_id_offset_;
      u.qos = QosClass::kInteractive;
      batch.push_back(u);
    }
    totals_.updates_ingested += batch.size();
    engine_->IngestBatch(batch);

    TickHospital(tick, now);
    DrainBrokers();
    TickNavigation();
    TickRemoteSite(tick);
    sim_.RunUntil(sim_.Now() + options_.tick_dt);
  }
  // Let in-flight retries, queued invocations, and keep-alive reclaims
  // finish before reading the counters.
  DrainBrokers();
  sim_.RunUntil(sim_.Now() + kMicrosPerSecond);

  const EngineStats streaming = engine_->TotalStats();
  const EngineStats& hospital = hospital_->stats();
  totals_.mirror_refreshes =
      streaming.mirrored_updates + hospital.mirrored_updates;
  const pubsub::BrokerStats streaming_broker = engine_->TotalBrokerStats();
  const pubsub::BrokerStats& ward_broker = hospital_->broker().stats();
  totals_.broker_deliveries =
      streaming_broker.deliveries + ward_broker.deliveries;
  totals_.broker_shed =
      streaming_broker.deliveries_shed + ward_broker.deliveries_shed;
  totals_.rebalances = engine_->rebalance_count();
  totals_.serverless_shed = runtime_.shed();
  if (store_ != nullptr) totals_.wal_syncs = store_->stats().wal_syncs;
  totals_.remote_gave_up = deliverer_.stats().gave_up;
  return totals_;
}

// ---------------------------------------------------------------------
// SLO accounting

const LegSlo* SloReport::leg(QosClass c, std::string_view name) const {
  for (const LegSlo& l : classes[uint8_t(c)].legs) {
    if (l.leg == name) return &l;
  }
  return nullptr;
}

std::string SloReport::ToString() const {
  std::string out =
      "class        leg                         samples        p99  "
      "target_us  attain   min  status\n";
  char line[160];
  for (const ClassSlo& cls : classes) {
    for (const LegSlo& l : cls.legs) {
      std::snprintf(
          line, sizeof(line),
          "%-12s %-26s %9llu %10.0f %10lld  %5.1f%% %5.0f%%  %s\n",
          QosClassName(cls.cls), l.leg.c_str(),
          static_cast<unsigned long long>(l.samples), l.p99,
          static_cast<long long>(l.target_us), 100.0 * l.attainment,
          100.0 * l.min_attainment,
          l.target_us == 0 ? "info" : (l.met ? "ok" : "VIOLATED"));
      out += line;
    }
  }
  return out;
}

SloReport ComputeSloReport(const QosPolicy& policy) {
  // Merge every {qos=...} histogram of each instrumented hop across
  // subsystem instances.  Retired scopes fold into one instance="all"
  // aggregate (and drop their per-instance entries), so summing every
  // sample of a (name, class) pair never double-counts.
  constexpr size_t kNumLegs = std::size(kLegSpecs);
  Histogram merged[kNumLegs][kQosClassCount];
  const auto snapshot = obs::MetricsRegistry::Global().Snapshot();
  for (const auto& sample : snapshot) {
    if (sample.kind != obs::MetricKind::kHistogram) continue;
    for (size_t leg = 0; leg < kNumLegs; ++leg) {
      if (sample.name != kLegSpecs[leg].name) continue;
      const int cls = QosIndexOf(sample.labels);
      if (cls >= 0) merged[leg][cls].Merge(sample.hist);
      break;
    }
  }

  SloReport report;
  for (QosClass c : kAllQosClasses) {
    ClassSlo& cls = report.classes[uint8_t(c)];
    cls.cls = c;
    const QosTarget& target = policy.target(c);
    for (size_t leg = 0; leg < kNumLegs; ++leg) {
      const Histogram& hist = merged[leg][uint8_t(c)];
      LegSlo slo;
      slo.leg = kLegSpecs[leg].name;
      slo.samples = hist.count();
      slo.p99 = hist.P99();
      slo.target_us =
          kLegSpecs[leg].target != nullptr ? target.*kLegSpecs[leg].target : 0;
      slo.min_attainment = target.min_attainment;
      if (slo.target_us > 0 && slo.samples > 0) {
        slo.attainment = hist.FractionBelow(slo.target_us);
        slo.met = slo.attainment >= slo.min_attainment;
      }
      cls.met = cls.met && slo.met;
      cls.legs.push_back(std::move(slo));
    }
    report.all_met = report.all_met && cls.met;
  }
  return report;
}

}  // namespace deluge::core
