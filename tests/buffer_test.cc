#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/buffer.h"
#include "common/small_vec.h"
#include "obs/metrics.h"
#include "pubsub/broker.h"
#include "pubsub/delivery_queue.h"
#include "runtime/buffer_pool.h"
#include "stream/tuple.h"

namespace deluge {
namespace {

using common::Buffer;
using common::BufferArena;
using common::BufferWriter;
using common::Slice;

// ------------------------------------------------------------------ Slice

TEST(SliceTest, ViewsAndSubslices) {
  std::string s = "hello world";
  Slice sl(s);
  EXPECT_EQ(sl.size(), 11u);
  EXPECT_EQ(sl.view(), "hello world");
  EXPECT_EQ(sl.subslice(6, 5).ToString(), "world");
  sl.remove_prefix(6);
  EXPECT_EQ(sl, Slice("world"));
}

// ----------------------------------------------------------------- Buffer

TEST(BufferTest, StringMoveWrapDoesNotCopyBytes) {
  std::string s(1000, 'x');
  const char* original = s.data();
  Buffer b(std::move(s));
  EXPECT_EQ(b.data(), original);  // moved, not copied
  EXPECT_EQ(b.size(), 1000u);
  EXPECT_EQ(b.use_count(), 1u);
}

TEST(BufferTest, CopiesShareBytesAndRefcount) {
  Buffer a(std::string("payload"));
  Buffer b = a;
  Buffer c;
  c = b;
  EXPECT_EQ(a.data(), b.data());  // same backing bytes, no duplication
  EXPECT_EQ(a.data(), c.data());
  EXPECT_EQ(a.use_count(), 3u);
  b.Reset();
  EXPECT_EQ(a.use_count(), 2u);
  EXPECT_TRUE(b.empty());
  c = Buffer();
  EXPECT_EQ(a.use_count(), 1u);
  EXPECT_EQ(a, "payload");
}

TEST(BufferTest, MoveTransfersWithoutRefcountChange) {
  Buffer a(std::string("abc"));
  Buffer b = std::move(a);
  EXPECT_EQ(b.use_count(), 1u);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(b, "abc");
}

TEST(BufferTest, CopyOfCountsBytesCopiedSharingDoesNot) {
  obs::Counter* copied =
      obs::MetricsRegistry::Global().GetCounter("buffer.bytes_copied");
  const uint64_t before = copied->Value();

  Buffer original(std::string(500, 'a'));
  Buffer shared1 = original;  // refcount bump — must not count
  Buffer shared2 = original;
  EXPECT_EQ(copied->Value(), before);

  Buffer duplicate = Buffer::CopyOf(original.slice());
  EXPECT_EQ(copied->Value(), before + 500);
  EXPECT_NE(duplicate.data(), original.data());
  EXPECT_EQ(duplicate, original.view());
}

TEST(BufferTest, RefcountDropToZeroReturnsSlabToArena) {
  BufferArena arena;
  const char* slab_bytes = nullptr;
  {
    Buffer b = Buffer::CopyOf(Slice("0123456789"), &arena);
    slab_bytes = b.data();
    EXPECT_EQ(arena.slabs_created(), 1u);
    EXPECT_EQ(arena.slabs_recycled(), 0u);
    Buffer c = b;  // second ref: drop of one handle must not recycle
    c.Reset();
    EXPECT_EQ(arena.slabs_recycled(), 0u);
  }
  // Last ref dropped: slab is on the free list, not freed to the heap.
  EXPECT_EQ(arena.slabs_recycled(), 1u);
  EXPECT_EQ(arena.free_slabs(), 1u);

  // Next same-class allocation reuses the identical slab.
  Buffer reused = Buffer::CopyOf(Slice("abcdefghij"), &arena);
  EXPECT_EQ(arena.slabs_reused(), 1u);
  EXPECT_EQ(arena.slabs_created(), 1u);
  EXPECT_EQ(reused.data(), slab_bytes);
}

TEST(BufferTest, OversizedAllocationsBypassTheFreeLists) {
  BufferArena arena;
  { Buffer b = Buffer::CopyOf(Slice(std::string(100 * 1024, 'z')), &arena); }
  EXPECT_EQ(arena.slabs_created(), 1u);
  EXPECT_EQ(arena.slabs_recycled(), 0u);  // destroyed, not pooled
  EXPECT_EQ(arena.free_slabs(), 0u);
}

TEST(BufferTest, BufferPoolPayloadAllocationDrawsFromDefaultArena) {
  BufferArena& arena = runtime::BufferPool::payload_arena();
  const uint64_t recycled_before = arena.slabs_recycled();
  const uint64_t reused_before = arena.slabs_reused();
  { Buffer b = runtime::BufferPool::AllocatePayload(Slice("pool payload")); }
  EXPECT_EQ(arena.slabs_recycled(), recycled_before + 1);
  Buffer again = runtime::BufferPool::AllocatePayload(Slice("pool payload"));
  EXPECT_EQ(arena.slabs_reused(), reused_before + 1);
}

TEST(BufferWriterTest, SealsExactSizeBuffer) {
  BufferArena arena;
  BufferWriter w(5, &arena);
  std::memcpy(w.data(), "horse", 5);
  Buffer b = w.Finish();
  EXPECT_EQ(b, "horse");
  EXPECT_EQ(b.use_count(), 1u);
  EXPECT_TRUE(w.Finish().empty());  // writer is spent
}

TEST(BufferWriterTest, AbandonedWriterReturnsSlab) {
  BufferArena arena;
  { BufferWriter w(64, &arena); }
  EXPECT_EQ(arena.slabs_created(), 1u);
  EXPECT_EQ(arena.free_slabs(), 1u);
}

// Cross-thread lifetime: each thread owns a Buffer handle onto one
// shared backing slab (a handle is thread-local; the refcounted bytes
// are what threads share), makes and drops further copies while reading
// the bytes, and the slab must survive until the globally-last handle —
// on whichever thread — drops.  Run under TSan in CI.
TEST(BufferTest, CrossThreadShareAndRelease) {
  BufferArena arena;
  Buffer shared = Buffer::CopyOf(Slice(std::string(256, 'q')), &arena);
  std::atomic<int> checksum_failures{0};
  std::vector<std::thread> threads;
  threads.reserve(8);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([seed = shared, &checksum_failures] {
      for (int i = 0; i < 1000; ++i) {
        Buffer local = seed;  // refcount bump on this thread
        if (local.size() != 256 || local.data()[255] != 'q') {
          checksum_failures.fetch_add(1, std::memory_order_relaxed);
        }
      }  // refcount drop on this thread
    });
  }
  // Main thread drops its handle while workers still hold theirs: the
  // slab may be released from any thread, whoever drops last.
  shared.Reset();
  for (auto& th : threads) th.join();
  EXPECT_EQ(checksum_failures.load(), 0);
  EXPECT_EQ(arena.free_slabs(), 1u);  // slab came home after all threads
}

// ---------------------------------------------------------------- SmallVec

TEST(SmallVecTest, InlineThenHeapGrowth) {
  common::SmallVec<int, 4> v;
  for (int i = 0; i < 4; ++i) v.push_back(i);
  const int* inline_data = v.data();
  v.push_back(4);  // spills to the heap
  EXPECT_NE(v.data(), inline_data);
  ASSERT_EQ(v.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(v[i], i);
}

TEST(SmallVecTest, MoveStealsHeapBlock) {
  common::SmallVec<std::string, 2> v;
  for (int i = 0; i < 6; ++i) v.push_back(std::string(100, char('a' + i)));
  const std::string* heap_data = v.data();
  common::SmallVec<std::string, 2> w = std::move(v);
  EXPECT_EQ(w.data(), heap_data);  // pointer steal, no element moves
  EXPECT_EQ(w.size(), 6u);
  EXPECT_TRUE(v.empty());  // NOLINT(bugprone-use-after-move)
}

TEST(SmallVecTest, CopyIsDeep) {
  common::SmallVec<std::string, 2> v;
  v.push_back("one");
  v.push_back("two");
  common::SmallVec<std::string, 2> w = v;
  w[0] = "changed";
  EXPECT_EQ(v[0], "one");
  EXPECT_EQ(w[1], "two");
}

// -------------------------------------------------------------- FieldTable

TEST(FieldTableTest, InternIsIdempotentAndStable) {
  stream::FieldId a = stream::FieldTable::Intern("ft_test_alpha");
  stream::FieldId b = stream::FieldTable::Intern("ft_test_beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(stream::FieldTable::Intern("ft_test_alpha"), a);
  EXPECT_EQ(stream::FieldTable::Name(a), "ft_test_alpha");
  EXPECT_EQ(stream::FieldTable::Name(b), "ft_test_beta");
}

TEST(FieldTableTest, FindDoesNotInsert) {
  const size_t before = stream::FieldTable::size();
  EXPECT_EQ(stream::FieldTable::Find("ft_test_never_interned"), std::nullopt);
  EXPECT_EQ(stream::FieldTable::size(), before);  // probe left no trace
  stream::FieldId id = stream::FieldTable::Intern("ft_test_present");
  EXPECT_EQ(stream::FieldTable::Find("ft_test_present"), id);
}

TEST(FieldTableTest, ConcurrentInternAgreesOnIds) {
  std::vector<std::thread> threads;
  std::vector<stream::FieldId> ids(8);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([t, &ids] {
      for (int i = 0; i < 100; ++i) {
        ids[t] = stream::FieldTable::Intern("ft_test_contended");
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 1; t < 8; ++t) EXPECT_EQ(ids[t], ids[0]);
}

// --------------------------------------------------------- Tuple wire form

TEST(TupleFlatTest, EncodeDecodeRoundTripAllTypes) {
  stream::Tuple t;
  t.event_time = 123456789;
  t.space = stream::Space::kVirtual;
  t.key = "entity-42";
  t.Set("count", int64_t{-7});
  t.Set("temp", 21.5);
  t.Set("name", std::string("kiosk"));
  t.Set("armed", true);

  common::Buffer wire = t.Encode();
  EXPECT_EQ(wire.size(), t.EncodedSize());

  stream::Tuple back;
  ASSERT_TRUE(stream::Tuple::Decode(wire.slice(), &back));
  EXPECT_EQ(back.event_time, t.event_time);
  EXPECT_EQ(back.space, t.space);
  EXPECT_EQ(back.key, t.key);
  EXPECT_EQ(back.field_count(), 4u);
  EXPECT_EQ(back.Get<int64_t>("count"), -7);
  EXPECT_EQ(back.Get<double>("temp"), 21.5);
  EXPECT_EQ(back.Get<std::string>("name"), "kiosk");
  EXPECT_EQ(back.Get<bool>("armed"), true);
}

TEST(TupleFlatTest, SetOverwritesInPlace) {
  stream::Tuple t;
  t.Set("x", 1.0);
  t.Set("x", 2.0);
  EXPECT_EQ(t.field_count(), 1u);
  EXPECT_EQ(t.Get<double>("x"), 2.0);
}

TEST(TupleFlatTest, IdAndNameAccessAgree) {
  stream::FieldId id = stream::FieldTable::Intern("tuple_test_speed");
  stream::Tuple t;
  t.Set(id, 88.0);
  EXPECT_EQ(t.Get<double>("tuple_test_speed"), 88.0);
  EXPECT_EQ(t.GetNumeric(id), 88.0);
  EXPECT_EQ(t.Find(id), &t.fields()[0].value);
}

TEST(TupleFlatTest, DecodeRejectsMalformedInput) {
  stream::Tuple t;
  t.Set("f", int64_t{1});
  std::string wire = t.Encode().ToString();

  stream::Tuple out;
  // Truncations at every length must fail cleanly, never crash.
  for (size_t n = 0; n < wire.size(); ++n) {
    EXPECT_FALSE(
        stream::Tuple::Decode(common::Slice(wire.data(), n), &out))
        << "accepted truncation to " << n << " bytes";
  }
  // Trailing garbage is also rejected (full-consume contract).
  std::string padded = wire + "!";
  EXPECT_FALSE(stream::Tuple::Decode(common::Slice(padded), &out));
}

// --------------------------------------------------------- Event wire form

TEST(EventWireTest, EncodeDecodeRoundTrip) {
  pubsub::Event e;
  e.topic = "alerts";
  e.position = geo::Vec3{1.5, -2.5, 10.0};
  e.bytes = 2048;
  e.qos = QosClass::kInteractive;
  e.published_at = 42;
  e.payload.key = "sensor-9";
  e.payload.Set("reading", 3.25);

  const common::Buffer& wire = e.EnsureEncoded();
  EXPECT_EQ(wire.size(), e.EncodedSize());
  // Cached: a second call returns the same Buffer bytes, no re-encode.
  EXPECT_EQ(e.EnsureEncoded().data(), wire.data());

  pubsub::Event back;
  ASSERT_TRUE(pubsub::Event::Decode(wire.slice(), &back));
  EXPECT_EQ(back.topic, "alerts");
  ASSERT_TRUE(back.position.has_value());
  EXPECT_EQ(back.position->x, 1.5);
  EXPECT_EQ(back.position->y, -2.5);
  EXPECT_EQ(back.position->z, 10.0);
  EXPECT_EQ(back.bytes, 2048u);
  EXPECT_EQ(back.qos, QosClass::kInteractive);
  EXPECT_EQ(back.published_at, 42);
  EXPECT_EQ(back.payload.key, "sensor-9");
  EXPECT_EQ(back.payload.Get<double>("reading"), 3.25);
}

TEST(EventWireTest, RoundTripWithoutPosition) {
  pubsub::Event e;
  e.topic = "t";
  pubsub::Event back;
  ASSERT_TRUE(pubsub::Event::Decode(e.EnsureEncoded().slice(), &back));
  EXPECT_FALSE(back.position.has_value());
}

// --------------------------------------- Shed slots release payload refs

// Regression for the seed's "drop payload early" hack: shedding or
// popping a queue slot must release the slot's EventRef immediately —
// not when the slot is reused — so a shed event's payload Buffer frees
// as soon as the last queue reference is gone.
TEST(DeliveryHeapShedTest, ShedAndPopSlotsReleaseEventRefs) {
  auto event = std::make_shared<const pubsub::Event>();
  ASSERT_EQ(event.use_count(), 1);
  // The subscription callback a slot carries is released the same way.
  auto deliver = std::make_shared<const pubsub::DeliverFn>();

  pubsub::DeliveryHeap heap;
  for (uint32_t i = 0; i < 4; ++i) heap.Push({i, deliver, event, i});
  EXPECT_EQ(event.use_count(), 5);  // ours + 4 queue slots
  EXPECT_EQ(deliver.use_count(), 5);

  heap.PopWorst();  // shed path
  EXPECT_EQ(event.use_count(), 4) << "shed slot kept its payload ref";
  EXPECT_EQ(deliver.use_count(), 4) << "shed slot kept its callback ref";
  (void)heap.PopBest();  // drain path (returned Item dropped here)
  EXPECT_EQ(event.use_count(), 3);
  EXPECT_EQ(deliver.use_count(), 3);
  heap.TruncateNewest(1);  // queue-shrink path
  EXPECT_EQ(event.use_count(), 2);
  EXPECT_EQ(deliver.use_count(), 2);
  (void)heap.PopBest();
  EXPECT_TRUE(heap.empty());
  EXPECT_EQ(event.use_count(), 1) << "emptied heap still pins the event";
  EXPECT_EQ(deliver.use_count(), 1);
}

TEST(DeliveryHeapShedTest, PoppedAndShedSlotsAreReused) {
  // A pop leaves a tombstone in the other heap; it must be pruned there
  // too, or a queue emptied from one end only grows a slot per entry.
  auto rt = std::make_shared<pubsub::Event>();
  rt->qos = QosClass::kRealtime;
  auto bulk = std::make_shared<const pubsub::Event>();  // kBulk
  pubsub::DeliveryHeap heap;
  uint64_t seq = 0;
  for (uint32_t i = 0; i < 16; ++i) heap.Push({i, nullptr, bulk, seq++});
  for (uint32_t i = 0; i < 1000; ++i) {
    heap.Push({i, nullptr, i % 2 ? bulk : rt, seq++});
    (void)heap.PopBest();  // drain only
  }
  for (uint32_t i = 0; i < 1000; ++i) {
    heap.Push({i, nullptr, i % 2 ? bulk : rt, seq++});
    heap.PopWorst();  // shed only
  }
  EXPECT_EQ(heap.size(), 16u);
  EXPECT_LE(heap.slot_count(), 64u);
}

TEST(DeliveryHeapShedTest, BrokerSheddingFreesPayloadBuffers) {
  obs::Gauge* live =
      obs::MetricsRegistry::Global().GetGauge("buffer.buffers_live");
  const geo::AABB world({0, 0, 0}, {100, 100, 100});
  size_t delivered = 0;
  pubsub::Broker broker(world, 10.0,
                        [&](net::NodeId, const pubsub::Event&) { delivered++; });
  pubsub::Subscription sub;
  sub.subscriber = 1;
  broker.Subscribe(std::move(sub));
  broker.SetQueueLimit(2);

  const double live_before = live->Value();
  // Each published event pre-encodes a payload Buffer; the queue holds
  // two, so the flood sheds the rest and must free their Buffers.
  for (int i = 0; i < 50; ++i) {
    pubsub::Event e;
    e.topic = "bulk";
    e.qos = kAllQosClasses[i % 3];
    e.payload.Set("seq", int64_t{i});
    e.EnsureEncoded();  // give the event a live payload Buffer
    broker.Publish(e);
  }
  EXPECT_LE(live->Value() - live_before, 2.0)
      << "shed events leaked payload Buffers";
  EXPECT_GE(broker.stats().deliveries_shed, 48u);
  broker.Drain();
  EXPECT_EQ(delivered, 2u);
  EXPECT_LE(live->Value(), live_before)
      << "drained queue still pins payload Buffers";
}

}  // namespace
}  // namespace deluge
