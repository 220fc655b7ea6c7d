#include "chaos/fault_schedule.h"

#include <algorithm>

#include "common/hash.h"

namespace deluge::chaos {

std::string_view FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNodeCrash: return "crash";
    case FaultKind::kNodeRestart: return "restart";
    case FaultKind::kLinkDown: return "link_down";
    case FaultKind::kLinkUp: return "link_up";
    case FaultKind::kPartition: return "partition";
    case FaultKind::kHeal: return "heal";
    case FaultKind::kLatencySpikeStart: return "spike_start";
    case FaultKind::kLatencySpikeEnd: return "spike_end";
    case FaultKind::kBurstLossStart: return "burst_start";
    case FaultKind::kBurstLossEnd: return "burst_end";
  }
  return "unknown";
}

FaultSchedule::FaultSchedule(net::Transport* net) : net_(net) {
  for (size_t k = 0; k < 10; ++k) {
    injected_[k] = obs_.counter(
        "injected",
        {{"kind", std::string(FaultKindName(FaultKind(k)))}});
  }
}

FaultSchedule& FaultSchedule::Add(const FaultEvent& event) {
  events_.push_back(event);
  return *this;
}

FaultSchedule& FaultSchedule::CrashNode(Micros at, net::NodeId n,
                                        Micros down_for) {
  FaultEvent ev;
  ev.at = at;
  ev.kind = FaultKind::kNodeCrash;
  ev.a = n;
  Add(ev);
  if (down_for > 0) {
    ev.at = at + down_for;
    ev.kind = FaultKind::kNodeRestart;
    Add(ev);
  }
  return *this;
}

FaultSchedule& FaultSchedule::FlapLink(Micros at, net::NodeId a,
                                       net::NodeId b, Micros down_for) {
  FaultEvent ev;
  ev.at = at;
  ev.kind = FaultKind::kLinkDown;
  ev.a = a;
  ev.b = b;
  Add(ev);
  ev.at = at + down_for;
  ev.kind = FaultKind::kLinkUp;
  return Add(ev);
}

FaultSchedule& FaultSchedule::PartitionWindow(Micros at, net::NodeId a,
                                              net::NodeId b,
                                              Micros heal_after) {
  FaultEvent ev;
  ev.at = at;
  ev.kind = FaultKind::kPartition;
  ev.a = a;
  ev.b = b;
  Add(ev);
  ev.at = at + heal_after;
  ev.kind = FaultKind::kHeal;
  return Add(ev);
}

FaultSchedule& FaultSchedule::PartitionAt(Micros at, net::NodeId a,
                                          net::NodeId b) {
  FaultEvent ev;
  ev.at = at;
  ev.kind = FaultKind::kPartition;
  ev.a = a;
  ev.b = b;
  return Add(ev);
}

FaultSchedule& FaultSchedule::HealAt(Micros at, net::NodeId a,
                                     net::NodeId b) {
  FaultEvent ev;
  ev.at = at;
  ev.kind = FaultKind::kHeal;
  ev.a = a;
  ev.b = b;
  return Add(ev);
}

FaultSchedule& FaultSchedule::LatencySpike(Micros at, net::NodeId a,
                                           net::NodeId b, Micros extra,
                                           Micros duration) {
  FaultEvent ev;
  ev.at = at;
  ev.kind = FaultKind::kLatencySpikeStart;
  ev.a = a;
  ev.b = b;
  ev.extra_latency = extra;
  Add(ev);
  ev.at = at + duration;
  ev.kind = FaultKind::kLatencySpikeEnd;
  ev.extra_latency = 0;
  return Add(ev);
}

FaultSchedule& FaultSchedule::BurstLossWindow(Micros at, net::NodeId a,
                                              net::NodeId b,
                                              const net::BurstLossModel& model,
                                              Micros duration) {
  FaultEvent ev;
  ev.at = at;
  ev.kind = FaultKind::kBurstLossStart;
  ev.a = a;
  ev.b = b;
  ev.burst = model;
  Add(ev);
  ev.at = at + duration;
  ev.kind = FaultKind::kBurstLossEnd;
  return Add(ev);
}

void FaultSchedule::GenerateRandom(uint64_t seed,
                                   const std::vector<net::NodeId>& nodes,
                                   const RandomScheduleOptions& options) {
  Rng rng(seed);
  const double horizon_sec =
      double(options.horizon) / double(kMicrosPerSecond);

  // Poisson arrivals per node / per pair via exponential inter-arrival
  // times; each window's duration is exponential around its mean.
  auto windows = [&](double rate_per_sec, auto&& emit) {
    if (rate_per_sec <= 0) return;
    double t_sec = rng.Exponential(rate_per_sec);
    while (t_sec < horizon_sec) {
      emit(Micros(t_sec * double(kMicrosPerSecond)));
      t_sec += rng.Exponential(rate_per_sec);
    }
  };
  auto duration = [&](Micros mean) {
    return std::max<Micros>(
        kMicrosPerMilli,
        Micros(rng.Exponential(1.0 / std::max<double>(1.0, double(mean)))));
  };
  auto pick_pair = [&](net::NodeId* a, net::NodeId* b) {
    uint64_t i = rng.Uniform(nodes.size());
    uint64_t j = rng.Uniform(nodes.size() - 1);
    if (j >= i) ++j;
    *a = nodes[i];
    *b = nodes[j];
  };

  for (net::NodeId n : nodes) {
    windows(options.crash_rate_per_node_sec, [&](Micros at) {
      CrashNode(at, n, duration(options.mean_outage));
    });
  }
  const size_t pair_count = nodes.size() * (nodes.size() - 1) / 2;
  if (pair_count == 0) return;
  net::NodeId a = 0, b = 0;
  windows(options.flap_rate_per_pair_sec * double(pair_count),
          [&](Micros at) {
            pick_pair(&a, &b);
            FlapLink(at, a, b, duration(options.mean_flap));
          });
  windows(options.partition_rate_per_pair_sec * double(pair_count),
          [&](Micros at) {
            pick_pair(&a, &b);
            PartitionWindow(at, a, b, duration(options.mean_partition));
          });
  windows(options.spike_rate_per_pair_sec * double(pair_count),
          [&](Micros at) {
            pick_pair(&a, &b);
            LatencySpike(at, a, b, options.spike_extra_latency,
                         duration(options.mean_spike));
          });
  windows(options.burst_rate_per_pair_sec * double(pair_count),
          [&](Micros at) {
            pick_pair(&a, &b);
            BurstLossWindow(at, a, b, options.burst,
                            duration(options.mean_burst_window));
          });
}

void FaultSchedule::Arm() {
  if (armed_) return;
  armed_ = true;
  // Stable sort keeps insertion order for simultaneous events, so the
  // trace (and therefore the whole simulation) is deterministic.
  std::stable_sort(events_.begin(), events_.end(),
                   [](const FaultEvent& x, const FaultEvent& y) {
                     return x.at < y.at;
                   });
  // Event times are relative to the clock at arming (zero on a fresh
  // simulator, so existing schedules are unchanged; on wall-clock
  // transports "t=0" naturally means "now").
  for (const FaultEvent& ev : events_) {
    net_->After(ev.at, [this, ev]() { Apply(ev); });
  }
}

void FaultSchedule::Apply(const FaultEvent& ev) {
  switch (ev.kind) {
    case FaultKind::kNodeCrash:
      net_->SetNodeUp(ev.a, false);
      break;
    case FaultKind::kNodeRestart:
      net_->SetNodeUp(ev.a, true);
      break;
    case FaultKind::kLinkDown:
      net_->SetLinkDown(ev.a, ev.b, true);
      break;
    case FaultKind::kLinkUp:
      net_->SetLinkDown(ev.a, ev.b, false);
      break;
    case FaultKind::kPartition:
      net_->Partition(ev.a, ev.b);
      break;
    case FaultKind::kHeal:
      net_->Heal(ev.a, ev.b);
      break;
    case FaultKind::kLatencySpikeStart:
      net_->SetExtraLatency(ev.a, ev.b, ev.extra_latency);
      break;
    case FaultKind::kLatencySpikeEnd:
      net_->SetExtraLatency(ev.a, ev.b, 0);
      break;
    case FaultKind::kBurstLossStart:
      net_->SetBurstLoss(ev.a, ev.b, ev.burst);
      break;
    case FaultKind::kBurstLossEnd:
      net_->ClearBurstLoss(ev.a, ev.b);
      break;
  }
  injected_[size_t(ev.kind)]->Add(1);
  total_->Add(1);
  std::string line = "t=" + std::to_string(ev.at) + " " +
                     std::string(FaultKindName(ev.kind)) +
                     " a=" + std::to_string(ev.a);
  switch (ev.kind) {
    case FaultKind::kNodeCrash:
    case FaultKind::kNodeRestart:
      break;
    default:
      line += " b=" + std::to_string(ev.b);
      break;
  }
  if (ev.kind == FaultKind::kLatencySpikeStart) {
    line += " extra=" + std::to_string(ev.extra_latency);
  }
  trace_.push_back(std::move(line));
  if (observer_) observer_(ev);
}

uint64_t FaultSchedule::TraceHash() const {
  uint64_t h = 0xC4405E17;  // arbitrary nonzero seed for the chain
  for (const std::string& line : trace_) {
    h = Hash64(line) ^ (h * 0x9E3779B97F4A7C15ULL);
  }
  return h;
}

}  // namespace deluge::chaos
