#ifndef DELUGE_PUBSUB_DELIVERY_QUEUE_H_
#define DELUGE_PUBSUB_DELIVERY_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "pubsub/subscription.h"

namespace deluge::pubsub {

/// A double-ended priority queue for the broker's bounded delivery
/// queue: `Drain` pops the *best* entry (highest priority, FIFO within
/// a priority) while overload shedding evicts the *worst* (lowest
/// priority, oldest among ties).
///
/// Two binary heaps index a shared entry slab: a best-first heap
/// ordered (priority desc, seq asc) and a worst-first heap ordered
/// (priority asc, seq asc).  Removing through one heap tombstones the
/// slab slot; every pop then prunes the other heap too, which drops
/// dead tops and compacts once tombstones outnumber live entries, so a
/// slot is recycled whichever end empties the queue.  `Push`, `PopBest`,
/// and `PopWorst` are all amortized O(log n) — replacing the seed's
/// O(n) scans per pop/evict.
class DeliveryHeap {
 public:
  /// Queue slots hold a shared `EventRef`, not an Event copy: an event
  /// fanned out to N subscribers occupies N slots that all point at one
  /// immutable Event (and its one encoded payload Buffer).  Shedding or
  /// popping a slot drops only that slot's reference.
  struct Item {
    net::NodeId subscriber = 0;
    std::shared_ptr<const DeliverFn> deliver;  ///< the subscription's
    EventRef event;
    uint64_t seq = 0;  ///< FIFO order within a priority
  };

  size_t size() const { return live_; }
  bool empty() const { return live_ == 0; }
  /// Slab slots allocated, live or free: popped and shed slots are
  /// reused, so this stays near the queue's peak size.
  size_t slot_count() const { return slots_.size(); }

  void Push(Item item);

  /// Lowest priority, oldest among ties.  Precondition: !empty().
  const Item& PeekWorst();
  void PopWorst();

  /// Highest priority, oldest among ties.  Precondition: !empty().
  Item PopBest();

  /// Drops the newest entries (largest seq) until `limit` remain —
  /// mirrors the insertion-order truncation semantics of the seed's
  /// `SetQueueLimit` shrink path.
  void TruncateNewest(size_t limit);

 private:
  struct Slot {
    Item item;
    /// `QosRank(event->qos)`, cached at Push so heap comparisons never
    /// read through `item.event` — dead slots release their EventRef
    /// immediately but stay in the heaps as tombstones.
    uint8_t priority = 0;
    bool alive = false;
    uint8_t refs = 0;  ///< heaps still holding this slot's index
  };

  bool BestBefore(size_t a, size_t b) const;
  bool WorstBefore(size_t a, size_t b) const;
  void SiftUp(std::vector<size_t>* heap, size_t pos, bool best);
  void SiftDown(std::vector<size_t>* heap, size_t pos, bool best);
  /// Pops dead slot indices off `heap`'s top; compacts when stale.
  void Prune(std::vector<size_t>* heap, bool best);
  void Release(size_t slot);
  void Rebuild();

  std::vector<Slot> slots_;
  std::vector<size_t> free_;       // dead slot indices for reuse
  std::vector<size_t> best_heap_;  // slot indices, best-first order
  std::vector<size_t> worst_heap_;
  size_t live_ = 0;
};

}  // namespace deluge::pubsub

#endif  // DELUGE_PUBSUB_DELIVERY_QUEUE_H_
