#include "core/engine.h"

#include "obs/trace.h"

namespace deluge::core {

namespace {

/// Hot-path field ids, interned once per process: ingest then writes
/// tuple slots by id without touching the name table.
const stream::FieldId kFieldEntity = stream::FieldTable::Intern("entity");
const stream::FieldId kFieldAttribute = stream::FieldTable::Intern("attribute");
const stream::FieldId kFieldValue = stream::FieldTable::Intern("value");

}  // namespace

pubsub::Event MakeMirrorPositionEvent(EntityId id, const geo::Vec3& pos,
                                      Micros t, QosClass qos) {
  pubsub::Event event;
  event.topic = "mirror.position";
  event.position = pos;
  event.qos = qos;
  event.published_at = t;
  event.payload.event_time = t;
  event.payload.space = stream::Space::kPhysical;
  event.payload.qos = qos;
  event.payload.key = std::to_string(id);
  event.payload.Set(kFieldEntity, int64_t(id));
  return event;
}

CoSpaceEngine::CoSpaceEngine(EngineOptions options, Clock* /*clock*/,
                             obs::Labels labels)
    : physical_(stream::Space::kPhysical, options.world_bounds),
      virtual_(stream::Space::kVirtual, options.world_bounds),
      coherency_(options.default_contract),
      obs_("engine", labels) {
  // Every watch brings its own callback (see WatchRegion).
  broker_ = std::make_unique<pubsub::Broker>(
      options.world_bounds, options.broker_cell, nullptr, std::move(labels));
}

void CoSpaceEngine::SpawnPhysical(const Entity& entity) {
  Entity phys = entity;
  phys.origin = stream::Space::kPhysical;
  physical_.Upsert(phys);
  // Mirror immediately so the virtual model starts complete.
  Entity mirror = phys;
  virtual_.Upsert(mirror);
  coherency_.Offer(entity.id, entity.position, entity.updated_at);
}

void CoSpaceEngine::SpawnVirtual(const Entity& entity) {
  Entity virt = entity;
  virt.origin = stream::Space::kVirtual;
  virtual_.Upsert(virt);
}

void CoSpaceEngine::SetContract(EntityId id,
                                const consistency::CoherencyContract& c) {
  coherency_.SetContract(id, c);
}

bool CoSpaceEngine::IngestPhysicalPosition(EntityId id, const geo::Vec3& pos,
                                           Micros t, QosClass qos) {
  obs::Span span("ingest.position");
  if (!ApplyPhysicalPosition(id, pos, t, qos)) return false;
  // Tell interested cyber users.
  broker_->Publish(MakeMirrorPositionEvent(id, pos, t, qos));
  return true;
}

bool CoSpaceEngine::ApplyPhysicalPosition(EntityId id, const geo::Vec3& pos,
                                          Micros t, QosClass qos) {
  physical_updates_->Add(1);
  // The physical space always tracks ground truth.
  physical_.Move(id, pos, t);

  if (!coherency_.Offer(id, pos, t, /*bytes=*/64, qos)) {
    suppressed_updates_->Add(1);
    return false;
  }
  mirrored_updates_->Add(1);
  virtual_.Move(id, pos, t);
  events_published_->Add(1);
  return true;
}

Status CoSpaceEngine::IngestPhysicalAttribute(EntityId id,
                                              const std::string& name,
                                              stream::Value value, Micros t,
                                              QosClass qos) {
  Status s = physical_.SetAttribute(id, name, value);
  if (!s.ok()) return s;
  s = virtual_.SetAttribute(id, name, value);
  if (!s.ok()) return s;
  pubsub::Event event;
  event.topic = "mirror.attribute";
  event.qos = qos;
  event.published_at = t;
  event.payload.event_time = t;
  event.payload.qos = qos;
  event.payload.key = std::to_string(id);
  event.payload.Set(kFieldEntity, int64_t(id));
  event.payload.Set(kFieldAttribute, name);
  event.payload.Set(kFieldValue, std::move(value));
  const Entity* e = physical_.Get(id);
  if (e != nullptr) event.position = e->position;
  events_published_->Add(1);
  broker_->Publish(event);
  return Status::OK();
}

size_t CoSpaceEngine::IssueVirtualCommand(const geo::AABB& region,
                                          const stream::Tuple& command) {
  // Affected entities are resolved against the VIRTUAL model — the
  // commander acts on what the virtual world shows (Fig. 1's
  // virtual->physical arrow), which is only coherency-bound accurate.
  return RelayVirtualCommand(virtual_.Range(region), command);
}

size_t CoSpaceEngine::RelayVirtualCommand(
    std::span<const Entity* const> affected, const stream::Tuple& command) {
  virtual_commands_->Add(1);
  size_t relayed = 0;
  for (const Entity* e : affected) {
    if (e->origin != stream::Space::kPhysical) continue;  // pure-virtual
    for (const auto& handler : command_handlers_) {
      handler(e->id, command);
      ++relayed;
    }
  }
  relayed_commands_->Add(relayed);
  return affected.size();
}

void CoSpaceEngine::OnPhysicalCommand(CommandHandler handler) {
  command_handlers_.push_back(std::move(handler));
}

uint64_t CoSpaceEngine::WatchRegion(net::NodeId subscriber,
                                    const geo::AABB& region,
                                    pubsub::Broker::Deliver deliver) {
  pubsub::Subscription sub;
  sub.subscriber = subscriber;
  sub.region = region;
  sub.deliver = std::make_shared<const pubsub::Broker::Deliver>(
      std::move(deliver));
  return broker_->Subscribe(std::move(sub));
}

bool CoSpaceEngine::Unwatch(uint64_t watch_id) {
  return broker_->Unsubscribe(watch_id);
}

void CoSpaceEngine::MigrateEntity(EntityId id, CoSpaceEngine& to) {
  if (const Entity* e = physical_.Get(id)) {
    to.physical_.Upsert(*e);  // copies before the erase below
    physical_.Remove(id);
  }
  if (const Entity* e = virtual_.Get(id)) {
    to.virtual_.Upsert(*e);
    virtual_.Remove(id);
  }
  consistency::MirrorState state;
  if (coherency_.ExtractEntity(id, &state)) {
    to.coherency_.RestoreEntity(id, state);
  }
}

}  // namespace deluge::core
