// The Marketplace (paper Section II, Fig. 3): a metaverse mall where
// physical and online shoppers share one expanded shop.
//
// Demonstrates:
//  - co-space inventory under a flash sale, with physical shoppers
//    prioritized over online shoppers for the last items (Section IV-G);
//  - content+spatial pub/sub promotions ("50% off pastries, aisle 3");
//  - distributed transactions committing purchases across shards;
//  - the verifiable ledger auditing every sale (Section IV-D).
//
// Run: ./build/examples/marketplace

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "ledger/ledger.h"
#include "net/topology.h"
#include "pubsub/broker.h"
#include "txn/distributed.h"

using namespace deluge;  // NOLINT: example brevity

namespace {

struct Shopper {
  core::EntityId id;
  bool physical;  // in the mall vs online
  int bought = 0;
};

}  // namespace

int main() {
  SimClock world_clock;
  net::Simulator sim;
  auto network = std::make_unique<net::Network>(&sim);

  // ---- The mall: a 200 m x 200 m co-space world. -----------------------
  core::EngineOptions options;
  options.world_bounds = geo::AABB({0, 0, 0}, {200, 200, 20});
  core::CoSpaceEngine mall(options, &world_clock);

  // 40 shoppers: half walking the physical mall, half online avatars.
  std::vector<Shopper> shoppers;
  Rng rng(7);
  for (core::EntityId id = 1; id <= 40; ++id) {
    core::Entity e;
    e.id = id;
    e.kind = core::EntityKind::kAvatar;
    e.position = {rng.UniformDouble(0, 200), rng.UniformDouble(0, 200), 0};
    bool physical = id <= 20;
    if (physical) {
      mall.SpawnPhysical(e);
    } else {
      mall.SpawnVirtual(e);
    }
    shoppers.push_back({id, physical});
  }

  // ---- Inventory lives in a sharded transactional store. ---------------
  std::vector<std::unique_ptr<txn::ShardNode>> shards;
  std::vector<txn::ShardNode*> shard_ptrs;
  for (int i = 0; i < 2; ++i) {
    shards.push_back(std::make_unique<txn::ShardNode>(network.get()));
    shard_ptrs.push_back(shards.back().get());
  }
  txn::DistributedTxnSystem store(network.get(), shard_ptrs);
  network->default_link() = net::LinkPresets::IntraDc();

  // Stock the pastry shelf: 10 croissants left.
  int croissants = 10;

  // ---- Every sale appends to the transparency ledger. ------------------
  ledger::TransparencyLedger sales_ledger(&world_clock);

  // ---- Flash sale: publish the promotion over pub/sub. -----------------
  int promo_reached = 0;
  mall.broker().Subscribe([&] {
    pubsub::Subscription sub;
    sub.subscriber = 999;  // the mall's big screen
    sub.topic = "promo";
    return sub;
  }());
  // Shoppers near aisle 3 (the pastry corner) subscribe spatially.
  for (const Shopper& s : shoppers) {
    pubsub::Subscription sub;
    sub.subscriber = net::NodeId(s.id);
    sub.topic = "promo";
    mall.broker().Subscribe(std::move(sub));
  }
  // Count deliveries through a regional watcher on the pastry corner.
  mall.WatchRegion(1000, geo::AABB({0, 0, 0}, {50, 50, 20}),
                   [&](net::NodeId, const pubsub::Event&) {});

  pubsub::Event promo;
  promo.topic = "promo";
  promo.position = geo::Vec3{25, 25, 0};
  promo.payload.Set("text", std::string("50% off croissants, aisle 3!"));
  promo_reached = int(mall.broker().Publish(promo));
  std::printf("promotion reached %d subscribers\n", promo_reached);

  // ---- The rush: everyone tries to buy; physical shoppers first. -------
  // Space-aware policy (Section IV-G): physical shoppers' orders are
  // processed before online shoppers' when stock is contended.
  std::vector<size_t> order;
  for (size_t i = 0; i < shoppers.size(); ++i) order.push_back(i);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return shoppers[a].physical > shoppers[b].physical;
  });

  int sold = 0, physical_sales = 0, online_sales = 0, declined = 0;
  for (size_t idx : order) {
    Shopper& s = shoppers[idx];
    if (croissants == 0) {
      ++declined;
      continue;
    }
    --croissants;
    ++sold;
    (s.physical ? physical_sales : online_sales)++;
    s.bought++;

    // Commit the purchase transactionally (stock + order records).
    std::string order_key = "order:" + std::to_string(s.id);
    store.Submit({{order_key, "croissant x1"},
                  {"stock:croissant", std::to_string(croissants)}},
                 txn::CommitProtocol::kTwoPhase, [](const txn::TxnResult&) {});
    sim.Run();

    // Ledger: append the sale for later audit.
    sales_ledger.Append("sale{shopper:" + std::to_string(s.id) +
                        ",item:croissant,space:" +
                        (s.physical ? "physical" : "virtual") + "}");
  }

  std::printf("sold %d croissants: %d to physical shoppers, %d online; "
              "%d shoppers missed out\n",
              sold, physical_sales, online_sales, declined);

  // ---- Audit: a third party verifies the sales log. ---------------------
  ledger::TreeHead head = sales_ledger.PublishHead();
  ledger::Auditor auditor;
  auditor.ObserveHead(head, {});
  std::string record;
  sales_ledger.GetEntry(0, &record);
  auto proof = sales_ledger.ProveInclusion(0, head.tree_size);
  bool verified = auditor.VerifyRecord(record, 0, proof).ok();
  std::printf("ledger: %zu sales recorded, first sale inclusion-%s "
              "(proof: %zu digests)\n",
              sales_ledger.size(), verified ? "VERIFIED" : "REJECTED",
              proof.size());

  // Stock sanity check through the transactional store.
  std::string stock;
  if (store.Read("stock:croissant", &stock).ok()) {
    std::printf("final stock per the store: %s\n", stock.c_str());
  }
  return 0;
}
