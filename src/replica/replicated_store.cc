#include "replica/replicated_store.h"

#include <algorithm>

#include "common/hash.h"
#include "storage/format.h"

namespace deluge::replica {

namespace {

using storage::GetFixed32;
using storage::GetFixed64;
using storage::GetLengthPrefixed;
using storage::PutFixed32;
using storage::PutFixed64;
using storage::PutLengthPrefixed;

}  // namespace

void TuneTimeoutsFromRtt(ReplicaOptions* options, Micros floor, Micros cap) {
  Histogram rtt;
  for (const auto& sample : obs::MetricsRegistry::Global().Snapshot()) {
    if (sample.kind == obs::MetricKind::kHistogram &&
        sample.name == "transport.rtt_us") {
      rtt.Merge(sample.hist);
    }
  }
  if (rtt.count() == 0) return;
  const Micros timeout =
      std::clamp(Micros(4.0 * rtt.P99()), floor, std::max(floor, cap));
  options->write_timeout = timeout;
  options->read_timeout = timeout;
}

ReplicatedStore::ReplicatedStore(net::Transport* net, p2p::ChordRing* ring,
                                 ReplicaOptions options)
    : net_(net),
      ring_(ring),
      options_(options),
      rng_(options.seed) {
  FailureDetectorOptions fd;
  fd.phi_threshold = options_.phi_threshold;
  fd.bootstrap_interval = std::max<Micros>(1, options_.heartbeat_period);
  detector_ = PhiAccrualDetector(fd);
  coordinator_node_ =
      net_->AddNode([this](const net::Message& m) { OnMessage(m); });
}

ReplicatedStore::~ReplicatedStore() { Stop(); }

uint64_t ReplicatedStore::RingIdFor(const std::string& name) const {
  // Must agree with ChordRing::AddPeer and the remote hosts, which
  // derive their ring ids from the same names.
  uint64_t id = ReplicaNode::RingIdFor(name);
  while (peer_nodes_.count(id) > 0) id = Mix64(id);  // collision: re-derive
  return id;
}

void ReplicatedStore::RegisterPeer(uint64_t rid, net::NodeId node) {
  peer_nodes_[rid] = node;
  detector_.Register(rid, net_->Now());
  last_alive_[rid] = true;
}

uint64_t ReplicatedStore::AddReplica(const std::string& name,
                                     std::unique_ptr<Backing> backing) {
  const uint64_t rid =
      ring_ != nullptr ? ring_->AddPeer(name) : RingIdFor(name);
  replicas_[rid] =
      std::make_unique<ReplicaNode>(rid, net_, std::move(backing));
  RegisterPeer(rid, replicas_[rid]->node_id());
  return rid;
}

uint64_t ReplicatedStore::AddRemoteReplica(const std::string& name,
                                           net::NodeId node) {
  const uint64_t rid = RingIdFor(name);
  RegisterPeer(rid, node);
  return rid;
}

void ReplicatedStore::Start() {
  if (started_) return;
  started_ = true;
  if (options_.heartbeat_period > 0) {
    net_->After(options_.heartbeat_period, [this] { HeartbeatTick(); });
  }
  if (options_.anti_entropy_period > 0) {
    net_->After(options_.anti_entropy_period, [this] { AntiEntropyTick(); });
  }
}

void ReplicatedStore::Stop() { started_ = false; }

CircuitBreaker& ReplicatedStore::BreakerFor(uint64_t ring) {
  auto& slot = breakers_[ring];
  if (slot == nullptr) slot = std::make_unique<CircuitBreaker>(options_.breaker);
  return *slot;
}

bool ReplicatedStore::PeerUsable(uint64_t ring, Micros now) {
  // The φ detector only has data while heartbeats run; without them
  // every peer is presumed alive and strict timeouts do the policing.
  if (started_ && options_.heartbeat_period > 0 &&
      !detector_.IsAlive(ring, now)) {
    return false;
  }
  return BreakerFor(ring).Allow(now);
}

ReplicaNode* ReplicatedStore::node(uint64_t ring_id) {
  auto it = replicas_.find(ring_id);
  return it == replicas_.end() ? nullptr : it->second.get();
}

std::vector<uint64_t> ReplicatedStore::replica_rings() const {
  std::vector<uint64_t> out;
  out.reserve(replicas_.size());
  for (const auto& [rid, _] : replicas_) out.push_back(rid);
  return out;
}

Version ReplicatedStore::AckedVersion(const std::string& key) const {
  auto it = acked_.find(key);
  return it == acked_.end() ? Version{} : it->second;
}

std::vector<uint64_t> ReplicatedStore::PreferenceList(
    const std::string& key) const {
  return SuccessorsOf(p2p::ChordRing::KeyId(key), options_.n);
}

std::vector<uint64_t> ReplicatedStore::SuccessorsOf(uint64_t id,
                                                    int n) const {
  if (ring_ != nullptr) return ring_->SuccessorsOf(id, n);
  std::vector<uint64_t> out;
  if (peer_nodes_.empty() || n <= 0) return out;
  out.reserve(static_cast<size_t>(n));
  auto it = peer_nodes_.lower_bound(id);
  while (static_cast<int>(out.size()) < n &&
         out.size() < peer_nodes_.size()) {
    if (it == peer_nodes_.end()) it = peer_nodes_.begin();
    out.push_back(it->first);
    ++it;
  }
  return out;
}

void ReplicatedStore::SendTo(const Target& t, uint32_t type,
                             std::string payload) {
  net::Message msg;
  msg.from = coordinator_node_;
  msg.to = t.node;
  msg.type = type;
  msg.payload = std::move(payload);
  net_->Send(std::move(msg));  // sync Unavailable == no ack will come
}

void ReplicatedStore::PushRecord(net::NodeId to, const std::string& key,
                                 const Record& record) {
  std::string out;
  PutFixed64(&out, next_request_++);
  PutLengthPrefixed(&out, key);
  AppendRecord(&out, record);
  Target t;
  t.node = to;
  SendTo(t, kMsgSyncWrite, std::move(out));
}

std::vector<ReplicatedStore::Target> ReplicatedStore::PickTargets(
    const std::string& key, bool for_write) {
  const Micros now = net_->Now();
  const p2p::RingId kid = p2p::ChordRing::KeyId(key);
  const std::vector<uint64_t> preferred = SuccessorsOf(kid, options_.n);
  // Fallback candidates beyond the preference list, in ring order.
  const std::vector<uint64_t> extended = SuccessorsOf(kid, 2 * options_.n);
  std::unordered_set<uint64_t> used(preferred.begin(), preferred.end());

  std::vector<Target> out;
  out.reserve(preferred.size());
  size_t next_sub = 0;
  bool substituted = false;
  for (uint64_t p : preferred) {
    auto rep = peer_nodes_.find(p);
    if (rep == peer_nodes_.end()) continue;  // chord-only peer: no storage
    Target t;
    t.ring = p;
    t.node = rep->second;
    if (PeerUsable(p, now) || !options_.sloppy_quorum) {
      out.push_back(t);
      continue;
    }
    // Preferred peer suspected down: divert to the next live successor
    // outside the preference list (a sloppy-quorum substitute).
    uint64_t sub = 0;
    while (next_sub < extended.size()) {
      const uint64_t c = extended[next_sub++];
      if (used.count(c) || !peer_nodes_.count(c)) continue;
      if (!PeerUsable(c, now)) continue;
      sub = c;
      break;
    }
    if (sub == 0) {
      out.push_back(t);  // nobody live to divert to; try the peer anyway
      continue;
    }
    used.insert(sub);
    substituted = true;
    Target s;
    s.ring = sub;
    s.node = peer_nodes_[sub];
    if (for_write) {
      s.hint_for = p;  // substitute queues a durable handoff hint
      hinted_handoffs_->Increment();
    }
    out.push_back(s);
  }
  if (substituted && for_write) sloppy_writes_->Increment();
  return out;
}

// --- Writes ----------------------------------------------------------

void ReplicatedStore::Put(const std::string& key, std::string value,
                          WriteOptions options, WriteCallback done) {
  Record rec;
  rec.version = Version{++clocks_[key], options_.writer_id};
  rec.value = std::move(value);
  DoWrite(key, std::move(rec), options, std::move(done));
}

void ReplicatedStore::Delete(const std::string& key, WriteOptions options,
                             WriteCallback done) {
  Record rec;
  rec.version = Version{++clocks_[key], options_.writer_id};
  rec.tombstone = true;
  DoWrite(key, std::move(rec), options, std::move(done));
}

void ReplicatedStore::DoWrite(const std::string& key, Record record,
                              WriteOptions options, WriteCallback done) {
  quorum_writes_->Increment();
  const Version version = record.version;
  std::vector<Target> targets = PickTargets(key, /*for_write=*/true);
  if (targets.empty()) {
    write_failures_->Increment();
    if (done) done(Status::Unavailable("no replicas"), version);
    return;
  }
  const uint64_t id = next_request_++;
  PendingWrite& pw = writes_[id];
  pw.key = key;
  pw.record = std::move(record);
  pw.need = options.w > 0 ? options.w : options_.w;
  pw.need = std::min<int>(pw.need, static_cast<int>(targets.size()));
  pw.need = std::max(pw.need, 1);
  pw.targets = std::move(targets);
  pw.session = options.session;
  pw.done = std::move(done);
  pw.retry = RetryState(options_.retry, net_->Now());
  pw.started_at = net_->Now();
  SendWrites(id, pw, /*only_unacked=*/false);
  ArmWriteTimer(id, pw.attempt);
}

void ReplicatedStore::SendWrites(uint64_t id, PendingWrite& pw,
                                 bool only_unacked) {
  for (const Target& t : pw.targets) {
    if (only_unacked && pw.acked.count(t.ring)) continue;
    std::string out;
    PutFixed64(&out, id);
    PutFixed64(&out, t.hint_for);
    PutFixed32(&out, coordinator_node_);
    PutLengthPrefixed(&out, pw.key);
    AppendRecord(&out, pw.record);
    SendTo(t, kMsgWriteReq, std::move(out));
  }
}

void ReplicatedStore::ArmWriteTimer(uint64_t id, int attempt) {
  net_->After(options_.write_timeout,
              [this, id, attempt] { OnWriteTimeout(id, attempt); });
}

void ReplicatedStore::OnWriteTimeout(uint64_t id, int attempt) {
  auto it = writes_.find(id);
  if (it == writes_.end()) return;
  PendingWrite& pw = it->second;
  if (pw.attempt != attempt) return;  // superseded by a retry
  const Micros now = net_->Now();
  for (const Target& t : pw.targets) {
    if (!pw.acked.count(t.ring)) BreakerFor(t.ring).RecordFailure(now);
  }
  if (pw.completed) {  // quorum met earlier; this was just the cleanup
    writes_.erase(it);
    return;
  }
  const Micros backoff = pw.retry.NextBackoff(now, &rng_);
  if (backoff < 0) {
    write_failures_->Increment();
    const Version version = pw.record.version;
    WriteCallback done = std::move(pw.done);
    writes_.erase(it);
    if (done) done(Status::Unavailable("write quorum not reached"), version);
    return;
  }
  write_retries_->Increment();
  const int expected = ++pw.attempt;
  net_->After(backoff, [this, id, expected] {
    auto it2 = writes_.find(id);
    if (it2 == writes_.end() || it2->second.attempt != expected) return;
    SendWrites(id, it2->second, /*only_unacked=*/true);
    ArmWriteTimer(id, expected);
  });
}

void ReplicatedStore::FinishWrite(uint64_t id, PendingWrite& pw) {
  (void)pw;
  writes_.erase(id);
}

void ReplicatedStore::OnWriteAck(std::string_view payload) {
  uint64_t id = 0, ring = 0;
  Version applied;
  if (!GetFixed64(&payload, &id) || !GetFixed64(&payload, &ring) ||
      !GetFixed64(&payload, &applied.counter) ||
      !GetFixed64(&payload, &applied.writer)) {
    return;
  }
  auto it = writes_.find(id);
  if (it == writes_.end()) return;  // late ack after cleanup
  PendingWrite& pw = it->second;
  BreakerFor(ring).RecordSuccess();
  pw.acked.insert(ring);

  WriteCallback done;
  Version version = pw.record.version;
  if (!pw.completed && static_cast<int>(pw.acked.size()) >= pw.need) {
    pw.completed = true;
    Version& acked = acked_[pw.key];
    if (acked < version) acked = version;
    if (pw.session) pw.session->ObserveWrite(pw.key, version);
    write_us_->Record(net_->Now() - pw.started_at);
    done = std::move(pw.done);
  }
  if (pw.acked.size() == pw.targets.size()) FinishWrite(id, pw);
  // Callback last: it may issue new operations that mutate the maps.
  if (done) done(Status::OK(), version);
}

// --- Reads -----------------------------------------------------------

void ReplicatedStore::Get(const std::string& key, ReadOptions options,
                          ReadCallback done) {
  quorum_reads_->Increment();
  std::vector<Target> targets = PickTargets(key, /*for_write=*/false);
  if (targets.empty()) {
    read_failures_->Increment();
    if (done) done(Status::Unavailable("no replicas"), "", Version{});
    return;
  }
  const uint64_t id = next_request_++;
  PendingRead& pr = reads_[id];
  pr.key = key;
  pr.need = options.r > 0 ? options.r : options_.r;
  pr.need = std::min<int>(pr.need, static_cast<int>(targets.size()));
  pr.need = std::max(pr.need, 1);
  pr.mode = options.mode;
  pr.session = options.session;
  pr.targets = std::move(targets);
  pr.done = std::move(done);
  pr.retry = RetryState(options_.retry, net_->Now());
  pr.started_at = net_->Now();
  SendReads(id, pr, /*only_unanswered=*/false);
  ArmReadTimer(id, pr.attempt);
}

void ReplicatedStore::SendReads(uint64_t id, PendingRead& pr,
                                bool only_unanswered) {
  for (const Target& t : pr.targets) {
    if (only_unanswered && pr.responses.count(t.ring)) continue;
    std::string out;
    PutFixed64(&out, id);
    PutLengthPrefixed(&out, pr.key);
    SendTo(t, kMsgReadReq, std::move(out));
  }
}

void ReplicatedStore::ArmReadTimer(uint64_t id, int attempt) {
  net_->After(options_.read_timeout,
              [this, id, attempt] { OnReadTimeout(id, attempt); });
}

ReplicatedStore::ReadResponse ReplicatedStore::MergeResponses(
    const PendingRead& pr) const {
  ReadResponse merged;
  for (const auto& [ring, resp] : pr.responses) {
    if (!resp.found) continue;
    if (!merged.found || Newer(resp.record.version, merged.record.version)) {
      merged = resp;
    }
  }
  return merged;
}

void ReplicatedStore::MaybeCompleteRead(uint64_t id, PendingRead& pr) {
  Status status = Status::OK();
  std::string value;
  Version version;
  ReadCallback done;

  if (!pr.completed &&
      static_cast<int>(pr.responses.size()) >= pr.need) {
    const ReadResponse merged = MergeResponses(pr);
    const bool floor_ok =
        pr.mode != consistency::ReadMode::kReadYourWrites ||
        pr.session == nullptr ||
        pr.session->Satisfies(pr.key, merged.record.version);
    if (floor_ok) {
      pr.completed = true;
      version = merged.record.version;
      if (pr.session) pr.session->ObserveRead(pr.key, version);
      read_us_->Record(net_->Now() - pr.started_at);
      if (pr.mode == consistency::ReadMode::kEventual) {
        auto a = acked_.find(pr.key);
        if (a != acked_.end() && version < a->second) {
          stale_reads_->Increment();
          staleness_versions_->Record(
              static_cast<int64_t>(a->second.counter - version.counter));
        }
      }
      if (merged.found && !merged.record.tombstone) {
        value = merged.record.value;
      } else {
        status = Status::NotFound("no value");
      }
      done = std::move(pr.done);
    } else if (pr.responses.size() == pr.targets.size()) {
      // Every replica answered and none is new enough: the freshest
      // copy is unreachable, so the session guarantee cannot be met.
      pr.completed = true;
      read_failures_->Increment();
      status = Status::Unavailable("read-your-writes floor unsatisfied");
      done = std::move(pr.done);
    }
  }
  if (pr.responses.size() == pr.targets.size()) FinishRead(id, pr);
  if (done) done(status, value, version);
}

void ReplicatedStore::FinishRead(uint64_t id, PendingRead& pr) {
  if (options_.read_repair) {
    const ReadResponse merged = MergeResponses(pr);
    if (merged.found) {
      for (const auto& [ring, resp] : pr.responses) {
        if (resp.found && !Newer(merged.record.version, resp.record.version)) {
          continue;
        }
        auto rep = peer_nodes_.find(ring);
        if (rep == peer_nodes_.end()) continue;
        PushRecord(rep->second, pr.key, merged.record);
        read_repairs_->Increment();
      }
    }
  }
  reads_.erase(id);
}

void ReplicatedStore::OnReadTimeout(uint64_t id, int attempt) {
  auto it = reads_.find(id);
  if (it == reads_.end()) return;
  PendingRead& pr = it->second;
  if (pr.attempt != attempt) return;
  const Micros now = net_->Now();
  for (const Target& t : pr.targets) {
    if (!pr.responses.count(t.ring)) BreakerFor(t.ring).RecordFailure(now);
  }
  if (pr.completed) {
    FinishRead(id, pr);
    return;
  }
  const Micros backoff = pr.retry.NextBackoff(now, &rng_);
  if (backoff < 0) {
    read_failures_->Increment();
    const Status status =
        static_cast<int>(pr.responses.size()) >= pr.need
            ? Status::Unavailable("read-your-writes floor unsatisfied")
            : Status::Unavailable("read quorum not reached");
    pr.completed = true;
    ReadCallback done = std::move(pr.done);
    FinishRead(id, pr);  // repair whatever did respond, then erase
    if (done) done(status, "", Version{});
    return;
  }
  read_retries_->Increment();
  const int expected = ++pr.attempt;
  net_->After(backoff, [this, id, expected] {
    auto it2 = reads_.find(id);
    if (it2 == reads_.end() || it2->second.attempt != expected) return;
    SendReads(id, it2->second, /*only_unanswered=*/true);
    ArmReadTimer(id, expected);
  });
}

void ReplicatedStore::OnReadResp(std::string_view payload) {
  uint64_t id = 0, ring = 0;
  if (!GetFixed64(&payload, &id) || !GetFixed64(&payload, &ring)) return;
  if (payload.empty()) return;
  const bool found = payload.front() != 0;
  payload.remove_prefix(1);
  ReadResponse resp;
  resp.found = found;
  if (found && !DecodeRecord(&payload, &resp.record)) return;
  auto it = reads_.find(id);
  if (it == reads_.end()) return;
  BreakerFor(ring).RecordSuccess();
  it->second.responses[ring] = std::move(resp);
  MaybeCompleteRead(id, it->second);
}

// --- Heartbeats, failure detection, hint replay ----------------------

void ReplicatedStore::HeartbeatTick() {
  if (!started_) return;
  const Micros now = net_->Now();
  for (auto& [rid, nid] : peer_nodes_) {
    const bool alive = detector_.IsAlive(rid, now);
    bool& was = last_alive_[rid];
    if (alive && !was) TriggerHintReplay(rid);  // peer came back
    was = alive;
    net::Message ping;
    ping.from = coordinator_node_;
    ping.to = nid;
    ping.type = kMsgPing;
    net_->Send(std::move(ping));  // bypasses breakers on purpose
  }
  net_->After(options_.heartbeat_period, [this] { HeartbeatTick(); });
}

void ReplicatedStore::OnPong(std::string_view payload) {
  uint64_t ring = 0;
  if (!GetFixed64(&payload, &ring)) return;
  detector_.Heartbeat(ring, net_->Now());
}

void ReplicatedStore::TriggerHintReplay(uint64_t target_ring) {
  auto target = peer_nodes_.find(target_ring);
  if (target == peer_nodes_.end()) return;
  const net::NodeId target_node = target->second;
  for (auto& [rid, nid] : peer_nodes_) {
    if (rid == target_ring) continue;
    std::string out;
    PutFixed64(&out, target_ring);
    PutFixed32(&out, target_node);
    PutFixed32(&out, coordinator_node_);
    Target t;
    t.node = nid;
    SendTo(t, kMsgHintReplay, std::move(out));
  }
}

void ReplicatedStore::OnHintDelivered(std::string_view payload) {
  uint32_t count = 0;
  if (!GetFixed32(&payload, &count)) return;
  hints_replayed_->Add(count);
}

// --- Anti-entropy ----------------------------------------------------

void ReplicatedStore::AntiEntropyTick() {
  if (!started_) return;
  if (ae_run_ == nullptr) {
    RunAntiEntropy([](const AntiEntropyReport&) {});
  }
  net_->After(options_.anti_entropy_period, [this] { AntiEntropyTick(); });
}

void ReplicatedStore::RunAntiEntropy(AntiEntropyCallback done) {
  if (ae_run_ != nullptr) {  // one round at a time
    if (done) done(AntiEntropyReport{});
    return;
  }
  anti_entropy_rounds_->Increment();
  ae_run_ = std::make_unique<AntiEntropyRun>();
  ae_run_->done = std::move(done);

  std::vector<uint64_t> rings;
  rings.reserve(peer_nodes_.size());
  for (const auto& [rid, _] : peer_nodes_) rings.push_back(rid);
  if (rings.size() < 2) {
    FinishAntiEntropyRun();
    return;
  }
  for (size_t i = 0; i < rings.size(); ++i) {
    const uint64_t owner = rings[i];
    const uint64_t pred = rings[(i + rings.size() - 1) % rings.size()];
    const std::vector<uint64_t> owners = SuccessorsOf(owner, options_.n);
    if (owners.size() < 2) continue;  // nothing to compare against

    const uint64_t id = next_request_++;
    SegmentState& st = ae_run_->segments[id];
    st.lo = pred;
    st.hi = owner;
    for (uint64_t o : owners) {
      auto rep = peer_nodes_.find(o);
      if (rep == peer_nodes_.end()) continue;
      Target t;
      t.ring = o;
      t.node = rep->second;
      st.owners.push_back(t);
    }
    ae_run_->outstanding++;
    ae_run_->report.segments++;
    for (const Target& t : st.owners) {
      std::string out;
      PutFixed64(&out, id);
      PutFixed64(&out, st.lo);
      PutFixed64(&out, st.hi);
      SendTo(t, kMsgDigestReq, std::move(out));
    }
    net_->After(options_.read_timeout,
                [this, id] { ResolveSegmentDigests(id); });
  }
  if (ae_run_->outstanding == 0) FinishAntiEntropyRun();
}

void ReplicatedStore::OnDigestResp(std::string_view payload) {
  uint64_t id = 0, ring = 0, digest = 0;
  uint32_t count = 0;
  if (!GetFixed64(&payload, &id) || !GetFixed64(&payload, &ring) ||
      !GetFixed64(&payload, &digest) || !GetFixed32(&payload, &count)) {
    return;
  }
  if (ae_run_ == nullptr) return;
  auto it = ae_run_->segments.find(id);
  if (it == ae_run_->segments.end() || it->second.listing) return;
  it->second.digests[ring] = {digest, count};
  if (it->second.digests.size() == it->second.owners.size()) {
    ResolveSegmentDigests(id);
  }
}

void ReplicatedStore::ResolveSegmentDigests(uint64_t digest_id) {
  if (ae_run_ == nullptr) return;
  auto it = ae_run_->segments.find(digest_id);
  if (it == ae_run_->segments.end() || it->second.listing) return;
  SegmentState& st = it->second;
  st.listing = true;

  if (st.digests.size() < 2) {
    ae_run_->report.unreachable++;
    ae_run_->segments.erase(it);
    if (--ae_run_->outstanding == 0) FinishAntiEntropyRun();
    return;
  }
  bool divergent = false;
  const auto& first = st.digests.begin()->second;
  for (const auto& [ring, d] : st.digests) {
    if (d != first) divergent = true;
  }
  if (!divergent) {
    ae_run_->segments.erase(it);
    if (--ae_run_->outstanding == 0) FinishAntiEntropyRun();
    return;
  }
  ae_run_->report.divergent++;
  for (const auto& [ring, d] : st.digests) {
    auto rep = peer_nodes_.find(ring);
    if (rep == peer_nodes_.end()) continue;
    const uint64_t lid = next_request_++;
    ae_run_->list_reqs[lid] = digest_id;
    std::string out;
    PutFixed64(&out, lid);
    PutFixed64(&out, st.lo);
    PutFixed64(&out, st.hi);
    Target t;
    t.ring = ring;
    t.node = rep->second;
    SendTo(t, kMsgListReq, std::move(out));
  }
  net_->After(options_.read_timeout,
              [this, digest_id] { ReconcileSegment(digest_id); });
}

void ReplicatedStore::OnListResp(std::string_view payload) {
  uint64_t lid = 0, ring = 0;
  uint32_t count = 0;
  if (!GetFixed64(&payload, &lid) || !GetFixed64(&payload, &ring) ||
      !GetFixed32(&payload, &count)) {
    return;
  }
  if (ae_run_ == nullptr) return;
  auto req = ae_run_->list_reqs.find(lid);
  if (req == ae_run_->list_reqs.end()) return;
  const uint64_t id = req->second;
  auto it = ae_run_->segments.find(id);
  if (it == ae_run_->segments.end()) return;
  SegmentState& st = it->second;

  std::map<std::string, Record>& entries = st.listings[ring];
  for (uint32_t i = 0; i < count; ++i) {
    std::string_view key, raw;
    if (!GetLengthPrefixed(&payload, &key) ||
        !GetLengthPrefixed(&payload, &raw)) {
      return;
    }
    Record rec;
    if (!DecodeRecord(&raw, &rec)) return;
    entries[std::string(key)] = std::move(rec);
  }
  if (st.listings.size() == st.digests.size()) ReconcileSegment(id);
}

void ReplicatedStore::ReconcileSegment(uint64_t digest_id) {
  if (ae_run_ == nullptr) return;
  auto it = ae_run_->segments.find(digest_id);
  if (it == ae_run_->segments.end()) return;
  SegmentState& st = it->second;

  std::map<std::string, Record> newest;
  for (const auto& [ring, entries] : st.listings) {
    for (const auto& [key, rec] : entries) {
      auto n = newest.find(key);
      if (n == newest.end() || Newer(rec.version, n->second.version)) {
        newest[key] = rec;
      }
    }
  }
  for (const auto& [ring, entries] : st.listings) {
    auto rep = peer_nodes_.find(ring);
    if (rep == peer_nodes_.end()) continue;
    for (const auto& [key, rec] : newest) {
      auto e = entries.find(key);
      if (e != entries.end() && !Newer(rec.version, e->second.version)) {
        continue;
      }
      PushRecord(rep->second, key, rec);
      ae_run_->report.keys_synced++;
    }
  }
  ae_run_->segments.erase(it);
  if (--ae_run_->outstanding == 0) FinishAntiEntropyRun();
}

void ReplicatedStore::FinishAntiEntropyRun() {
  std::unique_ptr<AntiEntropyRun> run = std::move(ae_run_);
  anti_entropy_keys_synced_->Add(run->report.keys_synced);
  divergent_segments_->Set(static_cast<double>(run->report.divergent));
  if (run->done) run->done(run->report);
}

// --- Dispatch & stats ------------------------------------------------

void ReplicatedStore::OnMessage(const net::Message& msg) {
  std::string_view payload(msg.payload);
  switch (msg.type) {
    case kMsgWriteAck: OnWriteAck(payload); break;
    case kMsgReadResp: OnReadResp(payload); break;
    case kMsgPong: OnPong(payload); break;
    case kMsgHintDelivered: OnHintDelivered(payload); break;
    case kMsgDigestResp: OnDigestResp(payload); break;
    case kMsgListResp: OnListResp(payload); break;
    case kMsgSyncAck: break;  // repair pushes are fire-and-forget
    default: break;
  }
}

}  // namespace deluge::replica
