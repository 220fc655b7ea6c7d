#ifndef DELUGE_TXN_DISTRIBUTED_H_
#define DELUGE_TXN_DISTRIBUTED_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include <deque>

#include "common/buffer.h"
#include "common/histogram.h"
#include "common/retry.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "txn/mvcc.h"

namespace deluge::txn {

/// Wire message types of the commit protocols.
enum class TxnMsg : uint32_t {
  kPrepare = 1,
  kVoteYes = 2,
  kVoteNo = 3,
  kCommit = 4,
  kAbort = 5,
  kAck = 6,
  kSingleRound = 7,        ///< one-shot validate+apply
  kSingleRoundOk = 8,
  kSingleRoundReject = 9,
};

/// One buffered write.
struct WriteOp {
  std::string key;
  std::string value;
};

/// Commit outcome reported to the application.
struct TxnResult {
  bool committed = false;
  Timestamp commit_ts = 0;
  Micros latency = 0;  ///< submit -> decision, virtual time
};

/// Commit protocols compared in E6.
enum class CommitProtocol {
  kTwoPhase,      ///< classic 2PC: prepare round + commit round (2 RTT)
  kSingleRound,   ///< Carousel-style one-round commit (1 RTT)
};

/// A participant shard bound to a network node.
///
/// Owns an `MvccStore` and answers protocol messages: PREPARE locks the
/// write set and votes; COMMIT applies and unlocks; SINGLE_ROUND
/// validates the read versions and applies in one step.
class ShardNode {
 public:
  /// Registers the shard on `net` and returns it; alive until the
  /// owning DistributedTxnSystem is destroyed.
  explicit ShardNode(net::Transport* net);

  net::NodeId node_id() const { return node_id_; }
  MvccStore& store() { return store_; }

  /// Processing-time model per message (CPU cost).
  Micros processing_cost = 20;

 private:
  void OnMessage(const net::Message& msg);
  void HandlePrepare(const net::Message& msg);
  void HandleCommit(const net::Message& msg, bool commit);
  void HandleSingleRound(const net::Message& msg);

  /// Remembers a decision (idempotence under retransmission) with FIFO
  /// eviction once the cache exceeds its cap.
  void RememberDecision(uint64_t txn_id, bool outcome);

  net::Transport* net_;
  net::NodeId node_id_ = 0;
  MvccStore store_;
  // txn id -> prepared writes awaiting commit.
  std::unordered_map<uint64_t, std::vector<WriteOp>> prepared_;
  // txn id -> decision outcome, so duplicate (retransmitted) messages
  // re-reply instead of re-executing.  Bounded FIFO cache.
  std::unordered_map<uint64_t, bool> decided_;
  std::deque<uint64_t> decided_order_;
};

/// The distributed transaction layer of a decentralized metaverse
/// database: keys hash-partitioned over shards, commit via 2PC or a
/// single-round protocol, all over the simulated (multi-DC) network so
/// that E6 can sweep inter-DC RTT.
class DistributedTxnSystem {
 public:
  using Callback = std::function<void(const TxnResult&)>;

  /// `shards` are created by the caller (placed into DCs as desired);
  /// the system registers one coordinator node on `net`.
  DistributedTxnSystem(net::Transport* net, std::vector<ShardNode*> shards);

  /// The shard index owning `key`.
  size_t ShardOf(const std::string& key) const;

  /// Submits a transaction writing `writes` (read-your-writes snapshot at
  /// submit time), committing via `protocol`.  The callback fires at
  /// decision time in virtual time.  Reads for validation are the
  /// latest versions of the written keys at submit (OCC-style).
  ///
  /// If the protocol does not complete within `timeout` (lost messages,
  /// partitions), the coordinator aborts: participants get an ABORT (so
  /// prepared locks release when reachable) and the callback reports
  /// `committed = false`.
  void Submit(std::vector<WriteOp> writes, CommitProtocol protocol,
              Callback cb, Micros timeout = 10 * kMicrosPerSecond);

  /// Snapshot read through the owning shard (local, no network; models a
  /// client library with a shard map).
  Status Read(const std::string& key, std::string* value) const;

  Histogram commit_latency() const { return commit_latency_->Snapshot(); }
  uint64_t committed() const { return committed_->Value(); }
  uint64_t aborted() const { return aborted_->Value(); }
  net::NodeId coordinator_node() const { return coord_node_; }

  // --- Recovery machinery (chaos-hardening) ---------------------------

  /// Per-round retransmission policy: while votes (or acks) are missing,
  /// the coordinator re-sends the round to the silent participants with
  /// backoff, deadline-capped by the transaction timeout.
  RetryPolicy& retransmit_policy() { return retransmit_policy_; }

  /// Redelivery policy for decisions left unacknowledged at timeout.
  /// A decided COMMIT whose commit message was lost to a partitioned
  /// shard is re-driven until every participant applies it — otherwise
  /// the write would be reported committed and then lost.
  RetryPolicy& redelivery_policy() { return redelivery_policy_; }

  /// Per-shard circuit breaker: repeated round failures open the breaker
  /// and later submissions touching that shard fast-fail (abort
  /// immediately) until a cooldown probe succeeds.
  CircuitBreakerOptions& breaker_options() { return breaker_options_; }
  CircuitBreaker& breaker_for_shard(size_t shard);

  uint64_t retransmits() const { return retransmits_->Value(); }
  uint64_t fast_fails() const { return fast_fails_->Value(); }
  uint64_t redeliveries() const { return redeliveries_->Value(); }
  /// Decisions abandoned with participants still unreachable after the
  /// redelivery budget (should be 0 when faults eventually heal).
  uint64_t unresolved_decisions() const {
    return unresolved_decisions_->Value();
  }

 private:
  struct InFlight {
    uint64_t txn_id;
    CommitProtocol protocol;
    std::vector<WriteOp> writes;
    std::vector<size_t> participant_shards;
    std::vector<char> voted;         ///< parallel to participant_shards
    std::vector<char> acked;         ///< parallel to participant_shards
    /// Per-participant prepare payloads, encoded once at Submit; every
    /// send and retransmit shares the refcounted Buffer.
    std::vector<common::Buffer> round_payloads;
    /// Decision payload, encoded once when the decision is reached and
    /// shared across the commit round, retransmits, and redelivery.
    common::Buffer decision_payload;
    size_t votes_pending = 0;
    bool vote_failed = false;
    bool decided = false;          ///< 2PC: decision reached (commit/abort)
    bool decision_commit = false;  ///< the decision, valid when `decided`
    size_t acks_pending = 0;
    Micros started_at = 0;
    Micros timeout = 0;
    Timestamp commit_ts = 0;
    RetryState retransmit;
    Callback cb;
  };

  /// A decision whose acks were still missing when the transaction timed
  /// out; re-driven in the background until applied everywhere.
  struct PendingDecision {
    uint64_t txn_id;
    bool commit;
    common::Buffer payload;  ///< shared with the timed-out transaction
    std::vector<size_t> shards;  ///< only the still-unacked participants
    RetryState retry;
  };

  void OnMessage(const net::Message& msg);
  void Finish(InFlight& txn, bool committed);
  void SendToShard(size_t shard, TxnMsg type, uint64_t txn_id,
                   const common::Buffer& payload);
  /// Builds (once) and returns the txn's shared decision payload.
  const common::Buffer& DecisionPayload(InFlight& txn);
  void ScheduleRetransmit(uint64_t txn_id);
  void ScheduleRedelivery(uint64_t txn_id);
  /// Index of `shard` in txn.participant_shards, or npos.
  static size_t ParticipantIndex(const InFlight& txn, size_t shard);

  net::Transport* net_;
  std::vector<ShardNode*> shards_;
  std::unordered_map<net::NodeId, size_t> node_to_shard_;
  net::NodeId coord_node_ = 0;
  uint64_t next_txn_id_ = 1;
  Timestamp next_ts_ = 1;
  std::unordered_map<uint64_t, InFlight> in_flight_;
  std::unordered_map<uint64_t, PendingDecision> pending_decisions_;
  RetryPolicy retransmit_policy_;
  RetryPolicy redelivery_policy_;
  CircuitBreakerOptions breaker_options_;
  // Deque: grows without relocating (CircuitBreaker owns a mutex and is
  // neither movable nor copyable).
  std::deque<CircuitBreaker> breakers_;
  Rng rng_{0xC4A05u};  ///< backoff jitter (seeded: runs are reproducible)
  obs::StatsScope obs_{"txn"};
  obs::ConcurrentHistogram* commit_latency_ =
      obs_.histogram("commit_latency_us");
  obs::Counter* committed_ = obs_.counter("committed");
  obs::Counter* aborted_ = obs_.counter("aborted");
  obs::Counter* retransmits_ = obs_.counter("retransmits");
  obs::Counter* fast_fails_ = obs_.counter("fast_fails");
  obs::Counter* redeliveries_ = obs_.counter("redeliveries");
  obs::Counter* unresolved_decisions_ = obs_.counter("unresolved_decisions");
};

/// Wire coding helpers (exposed for tests).
std::string EncodeWrites(uint64_t txn_id, Timestamp ts,
                         const std::vector<WriteOp>& writes);
bool DecodeWrites(std::string_view payload, uint64_t* txn_id, Timestamp* ts,
                  std::vector<WriteOp>* writes);

}  // namespace deluge::txn

#endif  // DELUGE_TXN_DISTRIBUTED_H_
