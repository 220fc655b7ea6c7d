// Location-Based Gaming & Social Networking (paper Section II, Fig. 4):
// a Pokémon-GO-style game where physical players, virtual players, and
// tradeable items share one world.
//
// Demonstrates:
//  - continuous moving k-NN ("detect a friend at the same location")
//    and moving range queries with safe-region caching (Section IV-G);
//  - the TPR-style motion index: players report velocity, not ticks;
//  - item trades recorded on the P2P overlay (decentralized, Web3-ish)
//    and the transparency ledger (Section IV-D).
//
// Run: ./build/examples/lbg_game

#include <cstdio>
#include <memory>

#include "common/rng.h"
#include "index/moving_index.h"
#include "ledger/ledger.h"
#include "net/network.h"
#include "p2p/chord.h"
#include "query/moving_query.h"

using namespace deluge;  // NOLINT: example brevity

int main() {
  const geo::AABB city({0, 0, 0}, {5000, 5000, 50});
  Rng rng(4242);

  // ---- 1. Players register motion states, not per-tick positions. ------
  index::MovingObjectIndex players(city, 50.0, /*max_speed=*/6.0);
  for (index::EntityId id = 1; id <= 500; ++id) {
    geo::MotionState s;
    s.position = {rng.UniformDouble(0, 5000), rng.UniformDouble(0, 5000), 0};
    s.velocity = {rng.UniformDouble(-2, 2), rng.UniformDouble(-2, 2), 0};
    s.t = 0;
    players.Upsert(id, s);
  }

  // ---- 2. Player 1 walks around hunting creatures within 100 m. --------
  geo::MotionState me;
  me.position = {2500, 2500, 0};
  me.velocity = {1.5, 0.5, 0};
  me.t = 0;

  query::ContinuousRangeQuery radar(&players, 100.0,
                                    query::MovingQueryStrategy::kIncremental,
                                    /*slack=*/80.0);
  radar.UpdateFocus(me);
  query::ContinuousKnnQuery friends(&players, 3);
  friends.UpdateFocus(me);

  size_t encounters = 0;
  for (Micros t = 0; t <= 120 * kMicrosPerSecond; t += kMicrosPerSecond) {
    encounters += radar.Evaluate(t).size();
  }
  auto best_friends = friends.Evaluate(120 * kMicrosPerSecond);
  std::printf("2-minute walk: %zu player encounters on the radar "
              "(%llu index visits for %llu radar refreshes)\n",
              encounters,
              static_cast<unsigned long long>(radar.index_queries()),
              static_cast<unsigned long long>(radar.evaluations()));
  std::printf("3 nearest players at walk's end:");
  for (const auto& f : best_friends) {
    std::printf(" #%llu", static_cast<unsigned long long>(f.id));
  }
  std::printf("\n");

  // ---- 3. Item trades: stored on a P2P overlay, audited on a ledger. ---
  net::Simulator sim;
  net::Network net(&sim);
  net.default_link() = net::LinkOptions{};  // defaults: 1 ms, 1 Gbps
  p2p::ChordRing overlay(&net);
  std::vector<p2p::RingId> guild_nodes;
  for (int i = 0; i < 32; ++i) {
    guild_nodes.push_back(overlay.AddPeer("guild-node-" + std::to_string(i)));
  }

  SimClock clock;
  ledger::TransparencyLedger trades(&clock);

  // Player 1 sells a rare sword to player 7.
  p2p::LookupResult stored;
  overlay.Put(guild_nodes[0], "item:sword-of-dawn",
              "owner=player7;price=120",
              [&](const p2p::LookupResult& r) { stored = r; });
  sim.Run();
  trades.Append("trade{item:sword-of-dawn,from:1,to:7,price:120}");

  // Any guild node can resolve the item's owner.
  p2p::LookupResult resolved;
  overlay.Get(guild_nodes[17], "item:sword-of-dawn",
              [&](const p2p::LookupResult& r) { resolved = r; });
  sim.Run();
  std::printf("item record stored at peer %016llx (%u hops), resolved "
              "from another peer in %u hops: '%s'\n",
              static_cast<unsigned long long>(stored.owner), stored.hops,
              resolved.hops, resolved.value.c_str());

  // The trade is auditable forever.
  ledger::TreeHead head = trades.PublishHead();
  ledger::Auditor auditor;
  auditor.ObserveHead(head, {});
  std::string record;
  trades.GetEntry(0, &record);
  bool ok = auditor
                .VerifyRecord(record, 0, trades.ProveInclusion(0, head.tree_size))
                .ok();
  std::printf("trade ledger: inclusion proof %s\n",
              ok ? "VERIFIED" : "REJECTED");

  // ---- 4. Social proximity alert via the motion index. -----------------
  // Two comrades fighting together virtually discover they are close
  // physically (the paper's social-networking scenario).
  players.Upsert(901, {{2600, 2560, 0}, {0, 0, 0}, 120 * kMicrosPerSecond});
  auto nearby = players.NearestAt(me.PositionAt(120 * kMicrosPerSecond), 1,
                                  120 * kMicrosPerSecond);
  if (!nearby.empty()) {
    double d = geo::Distance(me.PositionAt(120 * kMicrosPerSecond),
                             nearby[0].predicted_position);
    std::printf("proximity alert: player #%llu is %.0f m away — say hi!\n",
                static_cast<unsigned long long>(nearby[0].id), d);
  }
  return 0;
}
