#include "net/network.h"

#include <algorithm>

namespace deluge::net {

Network::Network(Simulator* sim, uint64_t seed)
    : Transport("net"), sim_(sim), rng_(seed) {
  for (QosClass c : kAllQosClasses) {
    send_us_[uint8_t(c)] =
        obs_.histogram("send_us", {{"qos", QosClassName(c)}});
  }
}

NodeId Network::AddNode(Handler handler) {
  handlers_.push_back(std::move(handler));
  return static_cast<NodeId>(handlers_.size() - 1);
}

void Network::SetLink(NodeId a, NodeId b, const LinkOptions& opts) {
  links_[PairKey(a, b)] = LinkState{opts, 0};
}

void Network::SetBidirectional(NodeId a, NodeId b, const LinkOptions& opts) {
  SetLink(a, b, opts);
  SetLink(b, a, opts);
}

Network::LinkState& Network::GetLink(NodeId a, NodeId b) {
  auto it = links_.find(PairKey(a, b));
  if (it != links_.end()) return it->second;
  auto [ins, _] = links_.emplace(PairKey(a, b), LinkState{default_link_, 0});
  return ins->second;
}

Status Network::Send(Message msg) {
  if (msg.from >= handlers_.size() || msg.to >= handlers_.size()) {
    return Status::InvalidArgument("unknown node in Send");
  }
  msg.sent_at = sim_->Now();
  Micros extra = 0;
  bool deliver = false;
  Status s = AdmitSend(msg, &rng_, &extra, &deliver);
  if (!deliver) return s;

  LinkState& link = GetLink(msg.from, msg.to);
  if (rng_.Bernoulli(link.opts.drop_probability)) {
    messages_dropped_->Add(1);
    return Status::OK();  // silent loss, like a real network
  }

  // Serialization: the link transmits messages one after another.
  const Micros now = sim_->Now();
  const Micros start = std::max(now, link.busy_until);
  Micros tx = 0;
  if (link.opts.bandwidth_bytes_per_sec > 0) {
    tx = static_cast<Micros>(double(msg.WireSize()) /
                             link.opts.bandwidth_bytes_per_sec *
                             double(kMicrosPerSecond));
  }
  link.busy_until = start + tx;

  Micros jitter = 0;
  if (link.opts.jitter > 0) {
    jitter = rng_.UniformRange(-link.opts.jitter, link.opts.jitter);
    jitter = std::max<Micros>(jitter, -(link.opts.latency));
  }
  const Micros deliver_at =
      link.busy_until + link.opts.latency + extra + jitter;

  NodeId to = msg.to;
  sim_->At(deliver_at, [this, to, m = std::move(msg)]() {
    // Packets in flight when a partition/flap/crash starts are lost,
    // matching TCP-less datagram semantics.
    if (DropIfBlocked(m)) return;
    messages_delivered_->Add(1);
    bytes_delivered_->Add(m.WireSize());
    send_us_[uint8_t(m.qos)]->Record(sim_->Now() - m.sent_at);
    handlers_[to](m);
  });
  return Status::OK();
}

}  // namespace deluge::net
