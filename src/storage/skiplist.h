#ifndef DELUGE_STORAGE_SKIPLIST_H_
#define DELUGE_STORAGE_SKIPLIST_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>

#include "common/rng.h"

namespace deluge::storage {

/// A sorted in-memory map implemented as a skip list — the classic
/// memtable structure (LevelDB/RocksDB lineage).
///
/// `Key` must be copyable; `Comparator` is a stateless functor returning
/// <0, 0, >0.  The list stores keys only; callers embed values inside the
/// key type (the memtable stores whole versioned entries).  Lookups are
/// templated on the probe type, so a comparator that also orders `Key`
/// against a lighter probe (the memtable's `LookupKey`) seeks without
/// building a `Key`.
///
/// Thread-safety: one writer, any number of concurrent readers.  Writers
/// must be serialized externally (the memtable's owner inserts under the
/// store mutex); readers need no lock.  A node is fully built before one
/// release store links it in at each level, and readers follow links with
/// acquire loads, so a reader sees every node either whole or not at all.
/// Nodes are never unlinked or freed before the list is destroyed.
template <typename Key, typename Comparator>
class SkipList {
 public:
  static constexpr int kMaxHeight = 12;

  explicit SkipList(Comparator cmp = Comparator(), uint64_t seed = 0xD5)
      : cmp_(cmp), rng_(seed), head_(NewNode(Key{}, kMaxHeight)) {}

  ~SkipList() {
    Node* n = head_;
    while (n != nullptr) {
      Node* next = n->Next(0);
      n->~Node();
      ::operator delete(static_cast<void*>(n));
      n = next;
    }
  }

  SkipList(const SkipList&) = delete;
  SkipList& operator=(const SkipList&) = delete;

  /// Inserts `key`.  Duplicate keys (comparator == 0) are allowed; the
  /// memtable avoids true duplicates by embedding a unique sequence
  /// number in each key.  Writers only — see the class comment.
  void Insert(Key key) {
    Node* prev[kMaxHeight];
    FindGreaterOrEqual(key, prev);
    const int height = RandomHeight();
    const int list_height = height_.load(std::memory_order_relaxed);
    if (height > list_height) {
      for (int i = list_height; i < height; ++i) prev[i] = head_;
      // Relaxed: a reader that sees the new height before the links
      // below finds null at the head and drops a level.
      height_.store(height, std::memory_order_relaxed);
    }
    Node* n = NewNode(std::move(key), height);
    for (int i = 0; i < height; ++i) {
      // The new node is unreachable until the release store into
      // prev[i] publishes it, so its own links need no ordering.
      n->SetNext(i, prev[i]->Next(i), std::memory_order_relaxed);
      prev[i]->SetNext(i, n, std::memory_order_release);
    }
    size_.store(size_.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
  }

  /// True if an exactly-equal key exists.
  bool Contains(const Key& key) const {
    Node* n = FindGreaterOrEqual(key, nullptr);
    return n != nullptr && cmp_(n->key, key) == 0;
  }

  size_t size() const { return size_.load(std::memory_order_relaxed); }

  /// Forward iterator over keys in sorted order.  Safe to use while the
  /// writer inserts; nodes linked after a step may or may not be seen.
  class Iterator {
   public:
    explicit Iterator(const SkipList* list)
        : list_(list), node_(nullptr) {}

    bool Valid() const { return node_ != nullptr; }
    const Key& key() const { return node_->key; }
    void Next() { node_ = node_->Next(0); }

    /// Positions at the first key >= target.
    template <typename Target>
    void Seek(const Target& target) {
      node_ = list_->FindGreaterOrEqual(target, nullptr);
    }

    void SeekToFirst() { node_ = list_->head_->Next(0); }

   private:
    const SkipList* list_;
    const typename SkipList::Node* node_;
  };

 private:
  /// A node and its tower of `height` next links share one allocation:
  /// the links start at `kTowerOffset` past the node.  A separate link
  /// array costs a second heap block and its handle, ~50 B per entry;
  /// one allocation cut the perfbench mirror_remote workload's peak RSS
  /// by a tenth (EXPERIMENTS.md, E19 "Skip-list node layout").
  struct Node {
    explicit Node(Key k) : key(std::move(k)) {}
    const Key key;

    Node* Next(int level) const {
      return Tower()[level].load(std::memory_order_acquire);
    }
    void SetNext(int level, Node* n, std::memory_order order) {
      Tower()[level].store(n, order);
    }

   private:
    std::atomic<Node*>* Tower() const {
      return std::launder(reinterpret_cast<std::atomic<Node*>*>(
          reinterpret_cast<char*>(const_cast<Node*>(this)) + kTowerOffset));
    }
  };
  static constexpr size_t kTowerOffset =
      (sizeof(Node) + alignof(std::atomic<Node*>) - 1) /
      alignof(std::atomic<Node*>) * alignof(std::atomic<Node*>);

  static Node* NewNode(Key key, int height) {
    char* mem = static_cast<char*>(::operator new(
        kTowerOffset + sizeof(std::atomic<Node*>) * size_t(height)));
    for (int i = 0; i < height; ++i) {
      new (mem + kTowerOffset + sizeof(std::atomic<Node*>) * size_t(i))
          std::atomic<Node*>(nullptr);
    }
    return new (mem) Node(std::move(key));
  }

  int RandomHeight() {
    int h = 1;
    while (h < kMaxHeight && rng_.Bernoulli(0.25)) ++h;
    return h;
  }

  /// Returns first node >= key; fills prev[] (one per level) when non-null.
  template <typename Target>
  Node* FindGreaterOrEqual(const Target& key, Node** prev) const {
    Node* x = head_;
    int level = height_.load(std::memory_order_relaxed) - 1;
    for (;;) {
      Node* next = x->Next(level);
      if (next != nullptr && cmp_(next->key, key) < 0) {
        x = next;
      } else {
        if (prev != nullptr) prev[level] = x;
        if (level == 0) return next;
        --level;
      }
    }
  }

  Comparator cmp_;
  Rng rng_;  // writer-only
  Node* head_;
  std::atomic<int> height_{1};
  std::atomic<size_t> size_{0};

  friend class Iterator;
};

}  // namespace deluge::storage

#endif  // DELUGE_STORAGE_SKIPLIST_H_
