#ifndef DELUGE_REPLICA_REPLICATED_STORE_H_
#define DELUGE_REPLICA_REPLICATED_STORE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/retry.h"
#include "common/rng.h"
#include "common/status.h"
#include "consistency/session.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "p2p/chord.h"
#include "replica/failure_detector.h"
#include "replica/node.h"
#include "replica/wire.h"

namespace deluge::replica {

/// Tuning of the replicated store.
struct ReplicaOptions {
  /// Replication factor: each key lives on the N successor peers of its
  /// ring position (the preference list).
  int n = 3;
  /// Default read / write quorum sizes.  R + W > N gives overlapping
  /// quorums (every read quorum intersects every write quorum); smaller
  /// values trade consistency for availability and are measured, not
  /// forbidden (E22 sweeps both regimes).
  int r = 2;
  int w = 2;
  /// Per-attempt timeouts before the retry policy kicks in.
  Micros write_timeout = 500 * kMicrosPerMilli;
  Micros read_timeout = 500 * kMicrosPerMilli;
  /// Coordinator -> replica ping period (0 disables heartbeats even
  /// after Start()).
  Micros heartbeat_period = 50 * kMicrosPerMilli;
  /// φ threshold above which a peer counts as down (see
  /// FailureDetectorOptions).
  double phi_threshold = 4.0;
  /// When the preferred replica is down, divert its write to the next
  /// live successor with a durable handoff hint (sloppy quorum).  Off =
  /// strict quorums: writes to dead peers just time out.
  bool sloppy_quorum = true;
  /// Push the merged newest record back to stale replicas after a
  /// divergent quorum read.
  bool read_repair = true;
  /// Background anti-entropy period (0 = only on explicit
  /// RunAntiEntropy calls).
  Micros anti_entropy_period = 0;
  /// Backoff between quorum attempt retries.
  RetryPolicy retry;
  /// Per-peer circuit breaker configuration.
  CircuitBreakerOptions breaker;
  /// Identity stamped into versions this coordinator issues.
  uint64_t writer_id = 1;
  uint64_t seed = 42;
};

/// Replaces the static per-attempt timeouts with ones derived from
/// measured transport round-trips: both timeouts become
/// clamp(4 × p99(transport.rtt_us), floor, cap), the TCP-RTO-style
/// envelope (cf. SRTT + 4·RTTVAR).  The RTT histograms come from the
/// socket transport's ping/pong loop (`SocketTransportOptions::
/// ping_period`), merged across every transport instance in the
/// process; with no RTT samples recorded yet `options` is left
/// untouched, so callers can apply this unconditionally at startup and
/// re-apply once pings have flowed.
void TuneTimeoutsFromRtt(ReplicaOptions* options,
                         Micros floor = 10 * kMicrosPerMilli,
                         Micros cap = 500 * kMicrosPerMilli);

/// Per-request write knobs.
struct WriteOptions {
  int w = 0;  ///< ack quorum override (0 = store default)
  consistency::Session* session = nullptr;  ///< observes the new version
};

/// Per-request read knobs.
struct ReadOptions {
  int r = 0;  ///< response quorum override (0 = store default)
  consistency::ReadMode mode = consistency::ReadMode::kEventual;
  consistency::Session* session = nullptr;  ///< floor source + observer
};

/// Registry-backed counters of the replica fabric (snapshot view; see
/// `ReplicatedStore::stats`).
struct ReplicaStats {
  uint64_t quorum_writes = 0;   ///< write operations issued
  uint64_t quorum_reads = 0;    ///< read operations issued
  uint64_t write_failures = 0;  ///< writes failed after retries
  uint64_t read_failures = 0;   ///< reads failed after retries
  uint64_t sloppy_writes = 0;   ///< writes that used any substitute
  uint64_t hinted_handoffs = 0;  ///< handoff hints created
  uint64_t hints_replayed = 0;   ///< hints delivered back to their owner
  uint64_t read_repairs = 0;     ///< stale replicas repaired after reads
  uint64_t stale_reads = 0;      ///< reads older than the last acked write
  uint64_t write_retries = 0;
  uint64_t read_retries = 0;
  uint64_t anti_entropy_rounds = 0;
  uint64_t anti_entropy_keys_synced = 0;
  double divergent_segments = 0;  ///< divergent segments, last round
};

/// Outcome of one anti-entropy round.
struct AntiEntropyReport {
  uint64_t segments = 0;     ///< ring segments compared
  uint64_t divergent = 0;    ///< segments whose replica digests differed
  uint64_t keys_synced = 0;  ///< records pushed to stale replicas
  uint64_t unreachable = 0;  ///< segments with fewer than 2 reachable copies
};

/// The replicated quorum storage fabric over the Chord overlay
/// (DESIGN.md §11, ROADMAP open item 2).
///
/// Each object is placed on the N successor peers of its key's ring
/// position (`ChordRing::SuccessorsOf`) and written / read with tunable
/// quorums.  The coordinator runs a φ-accrual failure detector off its
/// heartbeats; writes divert around suspected-down peers via sloppy
/// quorums with durable hinted handoff, divergent quorum reads trigger
/// read repair, and a background anti-entropy pass reconciles replicas
/// through key-range digests — so a single replica crash or a healed
/// partition converges back to full redundancy without operator action.
///
/// All replica traffic flows over a `net::Transport`, so every
/// chaos-layer fault (crashes, partitions, latency spikes, burst loss)
/// applies to it; E22 measures the resulting availability / staleness
/// trade-off across quorum configurations.  Under `SocketTransport` the
/// replicas may live in other OS processes: register them with
/// `AddRemoteReplica` and the coordinator quorums over the wire (E24).
///
/// Single-threaded: driven entirely from the transport's event strand.
class ReplicatedStore {
 public:
  using WriteCallback = std::function<void(const Status&, Version)>;
  using ReadCallback =
      std::function<void(const Status&, const std::string&, Version)>;
  using AntiEntropyCallback = std::function<void(const AntiEntropyReport&)>;

  /// `net` (and `ring` when given) must outlive the store.  With a
  /// ring, peers added to the store are also added to it (the ring
  /// supplies placement); `ring` may be nullptr, in which case the
  /// store keeps its own successor map over the registered replicas —
  /// the multi-process configuration, where no in-process ChordRing
  /// spans the cluster.
  ReplicatedStore(net::Transport* net, p2p::ChordRing* ring,
                  ReplicaOptions options = {});
  ~ReplicatedStore();

  /// True when R + W > N: every read quorum overlaps every write
  /// quorum, so a read is guaranteed to see the newest acked write.
  static bool QuorumSound(int n, int r, int w) { return r + w > n; }

  /// Adds a replica peer named `name`; null `backing` = in-memory.
  /// Returns its ring id.
  uint64_t AddReplica(const std::string& name,
                      std::unique_ptr<Backing> backing = nullptr);

  /// Registers a replica that lives in another process: `node` is its
  /// cluster-global transport node id, `name` must be the name its
  /// hosting process used to construct it (ring ids are derived from
  /// the name on both sides, so placement agrees).  Returns its ring id.
  uint64_t AddRemoteReplica(const std::string& name, net::NodeId node);

  /// Starts heartbeats (failure detection, hint replay on recovery) and
  /// periodic anti-entropy when configured.
  void Start();
  void Stop();

  /// Writes `value` under `key` with a fresh version; `done` fires once
  /// W replicas acked (OK) or the retry budget is exhausted
  /// (Unavailable).
  void Put(const std::string& key, std::string value, WriteOptions options,
           WriteCallback done);

  /// Writes a tombstone (replicated delete; the key cannot resurrect
  /// from a stale replica).
  void Delete(const std::string& key, WriteOptions options,
              WriteCallback done);

  /// Reads `key` from R replicas, merging last-writer-wins.  Eventual
  /// mode answers from the first quorum; read-your-writes mode keeps
  /// widening past the quorum until the session floor is met, else
  /// fails Unavailable.
  void Get(const std::string& key, ReadOptions options, ReadCallback done);

  /// One anti-entropy round: per ring segment, compare the range
  /// digests of its N owners and push newest records to divergent
  /// copies.
  void RunAntiEntropy(AntiEntropyCallback done);

  /// Asks every peer to replay the handoff hints it queued for
  /// `target_ring` (normally triggered automatically when the detector
  /// sees the peer come back).
  void TriggerHintReplay(uint64_t target_ring);

  // --- Introspection (tests, audits, benches) ------------------------
  ReplicaNode* node(uint64_t ring_id);
  std::vector<uint64_t> replica_rings() const;
  net::NodeId coordinator_node() const { return coordinator_node_; }
  const PhiAccrualDetector& detector() const { return detector_; }
  /// The newest version this coordinator has acked for `key` (zero
  /// stamp if never acked) — the ground truth for write-loss audits.
  Version AckedVersion(const std::string& key) const;
  /// The preference list (N owner ring ids) for `key`.
  std::vector<uint64_t> PreferenceList(const std::string& key) const;
  const ReplicaOptions& options() const { return options_; }
  ReplicaStats stats() const { return view_.Read(); }

 private:
  struct Target {
    uint64_t ring = 0;
    net::NodeId node = 0;
    uint64_t hint_for = 0;  ///< ring id of the down peer, 0 = primary
  };

  struct PendingWrite {
    std::string key;
    Record record;
    int need = 0;  ///< W
    std::vector<Target> targets;
    std::unordered_set<uint64_t> acked;  ///< ring ids
    consistency::Session* session = nullptr;
    WriteCallback done;
    RetryState retry;
    Micros started_at = 0;
    int attempt = 0;
    bool completed = false;
  };

  struct ReadResponse {
    bool found = false;
    Record record;
  };

  struct PendingRead {
    std::string key;
    int need = 0;  ///< R
    consistency::ReadMode mode = consistency::ReadMode::kEventual;
    consistency::Session* session = nullptr;
    std::vector<Target> targets;
    std::map<uint64_t, ReadResponse> responses;  ///< by ring id
    ReadCallback done;
    RetryState retry;
    Micros started_at = 0;
    int attempt = 0;
    bool completed = false;
  };

  /// One ring segment being reconciled by anti-entropy.
  struct SegmentState {
    uint64_t lo = 0, hi = 0;  ///< keys with Hash64(key) in (lo, hi]
    std::vector<Target> owners;
    /// Digest stage: ring -> (digest, count).
    std::map<uint64_t, std::pair<uint64_t, uint32_t>> digests;
    /// List stage: ring -> full range contents.
    std::map<uint64_t, std::map<std::string, Record>> listings;
    bool listing = false;  ///< digest stage done, lists outstanding
  };

  struct AntiEntropyRun {
    AntiEntropyReport report;
    AntiEntropyCallback done;
    std::map<uint64_t, SegmentState> segments;  ///< by digest req id
    std::map<uint64_t, uint64_t> list_reqs;  ///< list req id -> digest id
    size_t outstanding = 0;  ///< segments not yet resolved
  };

  void OnMessage(const net::Message& msg);
  void OnWriteAck(std::string_view payload);
  void OnReadResp(std::string_view payload);
  void OnPong(std::string_view payload);
  void OnHintDelivered(std::string_view payload);
  void OnDigestResp(std::string_view payload);
  void OnListResp(std::string_view payload);

  void DoWrite(const std::string& key, Record record, WriteOptions options,
               WriteCallback done);
  void SendWrites(uint64_t id, PendingWrite& pw, bool only_unacked);
  void ArmWriteTimer(uint64_t id, int attempt);
  void OnWriteTimeout(uint64_t id, int attempt);
  void FinishWrite(uint64_t id, PendingWrite& pw);

  void SendReads(uint64_t id, PendingRead& pr, bool only_unanswered);
  void ArmReadTimer(uint64_t id, int attempt);
  void OnReadTimeout(uint64_t id, int attempt);
  void MaybeCompleteRead(uint64_t id, PendingRead& pr);
  void FinishRead(uint64_t id, PendingRead& pr);
  /// LWW merge over the responses received so far.
  ReadResponse MergeResponses(const PendingRead& pr) const;

  void HeartbeatTick();
  void AntiEntropyTick();
  void ResolveSegmentDigests(uint64_t digest_id);
  void ReconcileSegment(uint64_t digest_id);
  void FinishAntiEntropyRun();

  /// Picks the N delivery targets for `key`: the preference list, with
  /// suspected-down peers replaced by their next live successor (when
  /// sloppy quorums are on).  `for_write` attaches handoff hints to
  /// substitutes.
  std::vector<Target> PickTargets(const std::string& key, bool for_write);
  bool PeerUsable(uint64_t ring, Micros now);
  CircuitBreaker& BreakerFor(uint64_t ring);
  void SendTo(const Target& t, uint32_t type, std::string payload);
  void PushRecord(net::NodeId to, const std::string& key,
                  const Record& record);
  /// Ring id for a replica name: the ChordRing's derivation when a ring
  /// is attached, the identical hash chain otherwise.
  uint64_t RingIdFor(const std::string& name) const;
  /// The first `n` distinct storage peers at or after `id` in ring
  /// order (wrapping).  Uses `ring_` when present — which may include
  /// chord-only peers the caller must skip — and `peer_nodes_`
  /// otherwise.
  std::vector<uint64_t> SuccessorsOf(uint64_t id, int n) const;
  /// Registers `rid` in the peer map, detector, and liveness cache.
  void RegisterPeer(uint64_t rid, net::NodeId node);

  net::Transport* net_;
  p2p::ChordRing* ring_;  ///< nullptr in multi-process mode
  ReplicaOptions options_;
  Rng rng_;
  net::NodeId coordinator_node_ = 0;

  std::map<uint64_t, std::unique_ptr<ReplicaNode>> replicas_;  // by ring
  /// Every storage peer — local and remote — by ring id (ring order),
  /// mapped to its transport node.  The delivery-target source of
  /// truth; `replicas_` holds only the locally-hosted subset.
  std::map<uint64_t, net::NodeId> peer_nodes_;
  std::unordered_map<uint64_t, std::unique_ptr<CircuitBreaker>> breakers_;
  PhiAccrualDetector detector_;
  std::unordered_map<uint64_t, bool> last_alive_;
  bool started_ = false;

  uint64_t next_request_ = 1;
  std::unordered_map<uint64_t, PendingWrite> writes_;
  std::unordered_map<uint64_t, PendingRead> reads_;
  std::unique_ptr<AntiEntropyRun> ae_run_;

  std::unordered_map<std::string, uint64_t> clocks_;  ///< per-key counter
  std::unordered_map<std::string, Version> acked_;    ///< write-loss audit

  obs::StatsScope obs_{"replica"};
  obs::StatsView<ReplicaStats> view_{obs_};
  obs::Counter* quorum_writes_ =
      view_.counter("quorum_writes", &ReplicaStats::quorum_writes);
  obs::Counter* quorum_reads_ =
      view_.counter("quorum_reads", &ReplicaStats::quorum_reads);
  obs::Counter* write_failures_ =
      view_.counter("write_failures", &ReplicaStats::write_failures);
  obs::Counter* read_failures_ =
      view_.counter("read_failures", &ReplicaStats::read_failures);
  obs::Counter* sloppy_writes_ =
      view_.counter("sloppy_writes", &ReplicaStats::sloppy_writes);
  obs::Counter* hinted_handoffs_ =
      view_.counter("hinted_handoffs", &ReplicaStats::hinted_handoffs);
  obs::Counter* hints_replayed_ =
      view_.counter("hints_replayed", &ReplicaStats::hints_replayed);
  obs::Counter* read_repairs_ =
      view_.counter("read_repairs", &ReplicaStats::read_repairs);
  obs::Counter* stale_reads_ =
      view_.counter("stale_reads", &ReplicaStats::stale_reads);
  obs::Counter* write_retries_ =
      view_.counter("write_retries", &ReplicaStats::write_retries);
  obs::Counter* read_retries_ =
      view_.counter("read_retries", &ReplicaStats::read_retries);
  obs::Counter* anti_entropy_rounds_ =
      view_.counter("anti_entropy_rounds", &ReplicaStats::anti_entropy_rounds);
  obs::Counter* anti_entropy_keys_synced_ = view_.counter(
      "anti_entropy_keys_synced", &ReplicaStats::anti_entropy_keys_synced);
  obs::Gauge* divergent_segments_ =
      view_.gauge("divergent_segments", &ReplicaStats::divergent_segments,
                  obs::Gauge::Agg::kLast);
  obs::ConcurrentHistogram* write_us_ = obs_.histogram("write_us");
  obs::ConcurrentHistogram* read_us_ = obs_.histogram("read_us");
  obs::ConcurrentHistogram* staleness_versions_ =
      obs_.histogram("staleness_versions");
};

}  // namespace deluge::replica

#endif  // DELUGE_REPLICA_REPLICATED_STORE_H_
