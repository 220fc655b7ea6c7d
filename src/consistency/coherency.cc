#include "consistency/coherency.h"

#include <algorithm>
#include <cmath>

namespace deluge::consistency {

CoherencyFilter::CoherencyFilter(CoherencyContract default_contract)
    : default_contract_(default_contract) {
  for (QosClass c : kAllQosClasses) {
    refresh_gap_us_[uint8_t(c)] =
        obs_.histogram("refresh_gap_us", {{"qos", QosClassName(c)}});
  }
}

void CoherencyFilter::SetContract(uint64_t entity,
                                  const CoherencyContract& contract) {
  contracts_[entity] = contract;
}

const CoherencyContract& CoherencyFilter::ContractFor(uint64_t entity) const {
  auto it = contracts_.find(entity);
  return it == contracts_.end() ? default_contract_ : it->second;
}

bool CoherencyFilter::Decide(MirrorState& st, double deviation, Micros now,
                             const CoherencyContract& contract,
                             uint64_t bytes, QosClass qos) {
  updates_offered_->Add(1);
  bool must_send = !st.ever_sent || deviation > contract.value_bound ||
                   (now - st.last_sent_at) >= contract.max_staleness;
  if (must_send) {
    updates_sent_->Add(1);
    bytes_sent_->Add(bytes);
    if (st.ever_sent && now > st.last_sent_at) {
      // The staleness window this refresh closes: how old the mirror
      // was allowed to get, in virtual time (freshness SLO source).
      refresh_gap_us_[uint8_t(qos)]->Record(now - st.last_sent_at);
    }
    st.last_sent_at = now;
    st.ever_sent = true;
    return true;
  }
  updates_suppressed_->Add(1);
  deviation_sum_->Add(deviation);
  deviation_max_->UpdateMax(deviation);
  return false;
}

bool CoherencyFilter::Offer(uint64_t entity, const geo::Vec3& value,
                            Micros now, uint64_t bytes, QosClass qos) {
  MirrorState& st = states_[entity];
  double deviation =
      st.ever_sent ? geo::Distance(st.last_sent_vec, value) : 0.0;
  bool send = Decide(st, deviation, now, ContractFor(entity), bytes, qos);
  if (send) st.last_sent_vec = value;
  return send;
}

bool CoherencyFilter::OfferScalar(uint64_t entity, double value, Micros now,
                                  uint64_t bytes, QosClass qos) {
  MirrorState& st = states_[entity];
  double deviation =
      st.ever_sent ? std::fabs(st.last_sent_scalar - value) : 0.0;
  bool send = Decide(st, deviation, now, ContractFor(entity), bytes, qos);
  if (send) st.last_sent_scalar = value;
  return send;
}

bool CoherencyFilter::MirrorValue(uint64_t entity, geo::Vec3* out) const {
  auto it = states_.find(entity);
  if (it == states_.end() || !it->second.ever_sent) return false;
  *out = it->second.last_sent_vec;
  return true;
}

bool CoherencyFilter::ExtractEntity(uint64_t entity, MirrorState* out) {
  auto it = states_.find(entity);
  if (it == states_.end()) return false;
  *out = it->second;
  states_.erase(it);
  return true;
}

void CoherencyFilter::RestoreEntity(uint64_t entity,
                                    const MirrorState& state) {
  states_[entity] = state;
}

}  // namespace deluge::consistency
