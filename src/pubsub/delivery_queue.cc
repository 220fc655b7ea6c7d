#include "pubsub/delivery_queue.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace deluge::pubsub {

// Each slot is referenced by both heaps; a slot is recycled only after
// both references are gone (refs hits 0), so a stale heap index can
// never alias a newly pushed item.

// Comparators read the slot's cached priority, never through the
// EventRef: a dead slot drops its payload reference immediately (see
// PopWorst/PopBest) but keeps participating in sift comparisons until
// both heaps discard its tombstone.

bool DeliveryHeap::BestBefore(size_t a, size_t b) const {
  if (slots_[a].priority != slots_[b].priority) {
    return slots_[a].priority > slots_[b].priority;
  }
  return slots_[a].item.seq < slots_[b].item.seq;
}

bool DeliveryHeap::WorstBefore(size_t a, size_t b) const {
  if (slots_[a].priority != slots_[b].priority) {
    return slots_[a].priority < slots_[b].priority;
  }
  return slots_[a].item.seq < slots_[b].item.seq;
}

void DeliveryHeap::SiftUp(std::vector<size_t>* heap, size_t pos, bool best) {
  while (pos > 0) {
    size_t parent = (pos - 1) / 2;
    bool before = best ? BestBefore((*heap)[pos], (*heap)[parent])
                       : WorstBefore((*heap)[pos], (*heap)[parent]);
    if (!before) break;
    std::swap((*heap)[pos], (*heap)[parent]);
    pos = parent;
  }
}

void DeliveryHeap::SiftDown(std::vector<size_t>* heap, size_t pos, bool best) {
  const size_t n = heap->size();
  for (;;) {
    size_t first = pos;
    for (size_t child = 2 * pos + 1; child <= 2 * pos + 2 && child < n;
         ++child) {
      bool before = best ? BestBefore((*heap)[child], (*heap)[first])
                         : WorstBefore((*heap)[child], (*heap)[first]);
      if (before) first = child;
    }
    if (first == pos) return;
    std::swap((*heap)[pos], (*heap)[first]);
    pos = first;
  }
}

void DeliveryHeap::Release(size_t slot) {
  assert(!slots_[slot].alive);
  // The ref was dropped at shed/pop time.
  assert(slots_[slot].item.event == nullptr);
  free_.push_back(slot);
}

void DeliveryHeap::Prune(std::vector<size_t>* heap, bool best) {
  // Pop dead tops.
  while (!heap->empty() && !slots_[heap->front()].alive) {
    size_t slot = heap->front();
    heap->front() = heap->back();
    heap->pop_back();
    if (!heap->empty()) SiftDown(heap, 0, best);
    if (--slots_[slot].refs == 0) Release(slot);
  }
  // Compact when tombstones dominate: filter dead indices + heapify.
  if (heap->size() > 2 * live_ + 4) {
    size_t kept = 0;
    for (size_t i = 0; i < heap->size(); ++i) {
      size_t slot = (*heap)[i];
      if (slots_[slot].alive) {
        (*heap)[kept++] = slot;
      } else if (--slots_[slot].refs == 0) {
        Release(slot);
      }
    }
    heap->resize(kept);
    for (size_t i = kept / 2; i-- > 0;) SiftDown(heap, i, best);
  }
}

void DeliveryHeap::Push(Item item) {
  size_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slot = slots_.size();
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.item = std::move(item);
  s.priority = QosRank(s.item.event->qos);
  s.alive = true;
  s.refs = 2;
  ++live_;
  best_heap_.push_back(slot);
  SiftUp(&best_heap_, best_heap_.size() - 1, /*best=*/true);
  worst_heap_.push_back(slot);
  SiftUp(&worst_heap_, worst_heap_.size() - 1, /*best=*/false);
}

const DeliveryHeap::Item& DeliveryHeap::PeekWorst() {
  Prune(&worst_heap_, /*best=*/false);
  return slots_[worst_heap_.front()].item;
}

void DeliveryHeap::PopWorst() {
  Prune(&worst_heap_, /*best=*/false);
  size_t slot = worst_heap_.front();
  worst_heap_.front() = worst_heap_.back();
  worst_heap_.pop_back();
  if (!worst_heap_.empty()) SiftDown(&worst_heap_, 0, /*best=*/false);
  slots_[slot].alive = false;
  // Shedding releases the payload reference *now*, not when the other
  // heap eventually prunes the tombstone — a shed event's Buffer must
  // free as soon as its last live queue slot is gone (the seed instead
  // blanked the whole Event on slot reuse, pinning payloads meanwhile).
  slots_[slot].item.event.reset();
  slots_[slot].item.deliver.reset();
  --live_;
  if (--slots_[slot].refs == 0) Release(slot);
  // Frees the best heap's twin tombstone (else shed slots pile up).
  Prune(&best_heap_, /*best=*/true);
}

DeliveryHeap::Item DeliveryHeap::PopBest() {
  Prune(&best_heap_, /*best=*/true);
  size_t slot = best_heap_.front();
  best_heap_.front() = best_heap_.back();
  best_heap_.pop_back();
  if (!best_heap_.empty()) SiftDown(&best_heap_, 0, /*best=*/true);
  Item out = std::move(slots_[slot].item);
  slots_[slot].alive = false;
  --live_;
  if (--slots_[slot].refs == 0) Release(slot);
  // Frees the worst heap's twin tombstone (else drained slots pile up).
  Prune(&worst_heap_, /*best=*/false);
  return out;
}

void DeliveryHeap::TruncateNewest(size_t limit) {
  if (live_ <= limit) return;
  std::vector<Item> kept;
  kept.reserve(live_);
  for (Slot& s : slots_) {
    if (s.alive) kept.push_back(std::move(s.item));
  }
  std::sort(kept.begin(), kept.end(),
            [](const Item& a, const Item& b) { return a.seq < b.seq; });
  kept.resize(limit);
  slots_.clear();
  free_.clear();
  best_heap_.clear();
  worst_heap_.clear();
  live_ = 0;
  for (Item& item : kept) {
    Push(std::move(item));
  }
}

}  // namespace deluge::pubsub
