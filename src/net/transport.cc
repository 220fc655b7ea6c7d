#include "net/transport.h"

namespace deluge::net {

template <typename Fn>
void Transport::EachDirection(NodeId a, NodeId b, Fn fn) {
  std::lock_guard<std::mutex> lk(mu_);
  fn(faults_[PairKey(a, b)]);
  fn(faults_[PairKey(b, a)]);
}

Transport::LinkFault* Transport::FindFault(NodeId a, NodeId b) {
  auto it = faults_.find(PairKey(a, b));
  return it != faults_.end() ? &it->second : nullptr;
}

Status Transport::AdmitSend(const Message& msg, Rng* rng, Micros* extra,
                            bool* deliver) {
  messages_sent_->Add(1);
  bytes_sent_->Add(msg.WireSize());
  *extra = 0;
  *deliver = false;
  auto drop = [this](obs::Counter* cause, Status status) {
    messages_dropped_->Add(1);
    if (cause != nullptr) cause->Add(1);
    return status;
  };
  std::lock_guard<std::mutex> lk(mu_);
  if (down_.count(msg.from) > 0 || down_.count(msg.to) > 0) {
    return drop(drops_node_down_, Status::Unavailable("node down"));
  }
  if (partitions_.count(PairKey(msg.from, msg.to)) > 0) {
    return drop(nullptr, Status::Unavailable("partitioned"));
  }
  LinkFault* fault = FindFault(msg.from, msg.to);
  if (fault == nullptr) {
    *deliver = true;
    return Status::OK();
  }
  if (fault->down) {
    return drop(drops_link_down_, Status::Unavailable("link down"));
  }
  if (fault->has_burst) {
    // Advance the two-state Markov chain one message step, then draw the
    // state's loss rate.  Every draw comes from the backend's RNG, so a
    // seeded run replays the exact same loss pattern.
    const BurstLossModel& m = fault->burst;
    if (rng->Bernoulli(fault->burst_bad ? m.p_bad_to_good : m.p_good_to_bad)) {
      fault->burst_bad = !fault->burst_bad;
    }
    if (rng->Bernoulli(fault->burst_bad ? m.loss_bad : m.loss_good)) {
      return drop(drops_burst_loss_, Status::OK());  // silent correlated loss
    }
  }
  *extra = fault->extra_latency;
  *deliver = true;
  return Status::OK();
}

bool Transport::DropIfBlocked(const Message& msg, Micros* extra) {
  std::lock_guard<std::mutex> lk(mu_);
  const LinkFault* fault = FindFault(msg.from, msg.to);
  if (down_.count(msg.from) > 0 || down_.count(msg.to) > 0 ||
      partitions_.count(PairKey(msg.from, msg.to)) > 0 ||
      (fault != nullptr && fault->down)) {
    messages_dropped_->Add(1);
    return true;
  }
  if (extra != nullptr) *extra = fault != nullptr ? fault->extra_latency : 0;
  return false;
}

void Transport::SetNodeUp(NodeId n, bool up) {
  std::lock_guard<std::mutex> lk(mu_);
  if (up) {
    down_.erase(n);
  } else {
    down_.insert(n);
  }
}

bool Transport::IsNodeUp(NodeId n) const {
  std::lock_guard<std::mutex> lk(mu_);
  return down_.count(n) == 0;
}

void Transport::Partition(NodeId a, NodeId b) {
  std::lock_guard<std::mutex> lk(mu_);
  partitions_.insert(PairKey(a, b));
  partitions_.insert(PairKey(b, a));
}

void Transport::Heal(NodeId a, NodeId b) {
  std::lock_guard<std::mutex> lk(mu_);
  partitions_.erase(PairKey(a, b));
  partitions_.erase(PairKey(b, a));
}

bool Transport::IsPartitioned(NodeId a, NodeId b) const {
  std::lock_guard<std::mutex> lk(mu_);
  return partitions_.count(PairKey(a, b)) > 0;
}

void Transport::SetLinkDown(NodeId a, NodeId b, bool down) {
  EachDirection(a, b, [down](LinkFault& f) { f.down = down; });
}

bool Transport::IsLinkDown(NodeId a, NodeId b) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = faults_.find(PairKey(a, b));
  return it != faults_.end() && it->second.down;
}

void Transport::SetExtraLatency(NodeId a, NodeId b, Micros extra) {
  EachDirection(a, b, [extra](LinkFault& f) { f.extra_latency = extra; });
}

void Transport::SetBurstLoss(NodeId a, NodeId b, const BurstLossModel& model) {
  EachDirection(a, b, [&model](LinkFault& f) {
    f.has_burst = true;
    f.burst = model;
    f.burst_bad = false;  // bursts start in the Good state
  });
}

void Transport::ClearBurstLoss(NodeId a, NodeId b) {
  EachDirection(a, b, [](LinkFault& f) { f.has_burst = false; });
}

}  // namespace deluge::net
