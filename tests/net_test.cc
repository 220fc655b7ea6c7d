#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/frame.h"
#include "net/network.h"
#include "net/simulator.h"
#include "net/topology.h"

namespace deluge::net {
namespace {

// ------------------------------------------------------------- Simulator

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.At(300, [&] { order.push_back(3); });
  sim.At(100, [&] { order.push_back(1); });
  sim.At(200, [&] { order.push_back(2); });
  EXPECT_EQ(sim.Run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 300);
}

TEST(SimulatorTest, FifoForEqualTimestamps) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) sim.At(10, [&order, i] { order.push_back(i); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulatorTest, EventsCanScheduleEvents) {
  Simulator sim;
  int fired = 0;
  sim.At(10, [&] {
    ++fired;
    sim.After(5, [&] { ++fired; });
  });
  sim.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.Now(), 15);
}

TEST(SimulatorTest, PastSchedulingClampsToNow) {
  Simulator sim;
  sim.At(100, [] {});
  sim.Run();
  bool ran = false;
  sim.At(50, [&] { ran = true; });  // in the past
  sim.Run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.Now(), 100);
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  int count = 0;
  sim.At(10, [&] { ++count; });
  sim.At(20, [&] { ++count; });
  sim.At(30, [&] { ++count; });
  EXPECT_EQ(sim.RunUntil(20), 2u);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(sim.Now(), 20);
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(SimulatorTest, StepReturnsFalseWhenEmpty) {
  Simulator sim;
  EXPECT_FALSE(sim.Step());
  EXPECT_TRUE(sim.empty());
}

// --------------------------------------------------------------- Network

class NetworkTest : public ::testing::Test {
 protected:
  Simulator sim_;
  Network net_{&sim_};
  std::vector<Message> received_;

  NodeId AddRecorder() {
    return net_.AddNode([this](const Message& m) { received_.push_back(m); });
  }
};

TEST_F(NetworkTest, DeliversWithLatency) {
  NodeId a = AddRecorder();
  NodeId b = AddRecorder();
  LinkOptions link;
  link.latency = 5 * kMicrosPerMilli;
  link.bandwidth_bytes_per_sec = 0;  // ignore serialization
  net_.SetLink(a, b, link);

  ASSERT_TRUE(net_.Send({a, b, 1, "hi", 0, 0}).ok());
  sim_.Run();
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0].payload, "hi");
  EXPECT_EQ(sim_.Now(), 5 * kMicrosPerMilli);
}

TEST_F(NetworkTest, UnknownNodeRejected) {
  NodeId a = AddRecorder();
  Status s = net_.Send({a, 99, 0, "", 0, 0});
  EXPECT_TRUE(s.IsInvalidArgument());
}

TEST_F(NetworkTest, BandwidthAddsSerializationDelay) {
  NodeId a = AddRecorder();
  NodeId b = AddRecorder();
  LinkOptions link;
  link.latency = 0;
  link.bandwidth_bytes_per_sec = 1e6;  // 1 MB/s
  net_.SetLink(a, b, link);

  Message m{a, b, 0, "", 1'000'000, 0};  // 1 MB => 1 s
  ASSERT_TRUE(net_.Send(m).ok());
  sim_.Run();
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(sim_.Now(), kMicrosPerSecond);
}

TEST_F(NetworkTest, MessagesQueueBehindEachOther) {
  NodeId a = AddRecorder();
  NodeId b = AddRecorder();
  LinkOptions link;
  link.latency = 0;
  link.bandwidth_bytes_per_sec = 1e6;
  net_.SetLink(a, b, link);

  // Two 0.5 MB messages sent back-to-back: second finishes at 1 s.
  ASSERT_TRUE(net_.Send({a, b, 0, "", 500'000, 0}).ok());
  ASSERT_TRUE(net_.Send({a, b, 0, "", 500'000, 0}).ok());
  sim_.Run();
  EXPECT_EQ(received_.size(), 2u);
  EXPECT_EQ(sim_.Now(), kMicrosPerSecond);
}

TEST_F(NetworkTest, LossyLinkDropsSomeMessages) {
  NodeId a = AddRecorder();
  NodeId b = AddRecorder();
  LinkOptions link;
  link.latency = 1;
  link.drop_probability = 0.5;
  net_.SetLink(a, b, link);

  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(net_.Send({a, b, 0, "x", 0, 0}).ok());
  }
  sim_.Run();
  EXPECT_GT(received_.size(), 300u);
  EXPECT_LT(received_.size(), 700u);
  EXPECT_EQ(received_.size() + net_.stats().messages_dropped, 1000u);
}

TEST_F(NetworkTest, StatsCountBytes) {
  NodeId a = AddRecorder();
  NodeId b = AddRecorder();
  ASSERT_TRUE(net_.Send({a, b, 0, "", 1000, 0}).ok());
  sim_.Run();
  EXPECT_EQ(net_.stats().messages_sent, 1u);
  EXPECT_EQ(net_.stats().messages_delivered, 1u);
  EXPECT_EQ(net_.stats().bytes_sent, 1000u);
  EXPECT_EQ(net_.stats().bytes_delivered, 1000u);
}

TEST_F(NetworkTest, WireSizeFallsBackToPayload) {
  Message m{0, 0, 0, "abcd", 0, 0};
  EXPECT_EQ(m.WireSize(), 4u + 64u);
  Message big{0, 0, 0, "abcd", 5000, 0};
  EXPECT_EQ(big.WireSize(), 5000u);
}

// -------------------------------------------------------------- Topology

TEST(TopologyTest, StarRoutesThroughHub) {
  Simulator sim;
  Network net(&sim);
  int hub_got = 0;
  NodeId hub = net.AddNode([&](const Message&) { ++hub_got; });
  std::vector<NodeId> leaves;
  for (int i = 0; i < 3; ++i) {
    leaves.push_back(net.AddNode([](const Message&) {}));
  }
  BuildStar(&net, hub, leaves, LinkPresets::MobileEdge());
  for (NodeId leaf : leaves) {
    ASSERT_TRUE(net.Send({leaf, hub, 0, "ping", 0, 0}).ok());
  }
  sim.Run();
  EXPECT_EQ(hub_got, 3);
}

TEST(TopologyTest, MultiDcInterLatencyDominates) {
  Simulator sim;
  Network net(&sim);
  Micros local_delay = -1, remote_delay = -1;
  std::vector<NodeId> nodes;
  for (int i = 0; i < 4; ++i) {
    nodes.push_back(net.AddNode([&, i](const Message& m) {
      Micros d = sim.Now() - m.sent_at;
      if (i == 1) local_delay = d;
      if (i == 2) remote_delay = d;
    }));
  }
  BuildMultiDc(&net, {{nodes[0], nodes[1]}, {nodes[2], nodes[3]}},
               LinkPresets::IntraDc(),
               LinkPresets::InterDc(30 * kMicrosPerMilli));
  ASSERT_TRUE(net.Send({nodes[0], nodes[1], 0, "x", 100, 0}).ok());
  ASSERT_TRUE(net.Send({nodes[0], nodes[2], 0, "x", 100, 0}).ok());
  sim.Run();
  ASSERT_GE(local_delay, 0);
  ASSERT_GE(remote_delay, 0);
  EXPECT_LT(local_delay, kMicrosPerMilli);
  EXPECT_GE(remote_delay, 30 * kMicrosPerMilli);
}

TEST(TopologyTest, PresetsAreSane) {
  EXPECT_LT(LinkPresets::IntraDc().latency, LinkPresets::InterDc().latency);
  EXPECT_GT(LinkPresets::IntraDc().bandwidth_bytes_per_sec,
            LinkPresets::Constrained().bandwidth_bytes_per_sec);
  EXPECT_GT(LinkPresets::Constrained().drop_probability, 0.0);
}

// ----------------------------------------------------------------- Frame

Message MakeMessage(NodeId from, NodeId to, uint32_t type,
                    const std::string& payload, uint64_t size_bytes = 0) {
  Message m;
  m.from = from;
  m.to = to;
  m.type = type;
  m.payload = payload;
  m.size_bytes = size_bytes;
  return m;
}

TEST(FrameTest, RoundTripsHeaderAndPayload) {
  const std::string wire =
      EncodeFrame(MakeMessage(3, 9, 42, "hello frame", /*size_bytes=*/4096));
  EXPECT_EQ(wire.size(), kFrameHeaderBytes + 11);
  FrameDecoder dec;
  std::vector<Message> out;
  ASSERT_TRUE(dec.Feed(wire.data(), wire.size(), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].from, 3u);
  EXPECT_EQ(out[0].to, 9u);
  EXPECT_EQ(out[0].type, 42u);
  EXPECT_EQ(out[0].size_bytes, 4096u);
  EXPECT_EQ(std::string_view(out[0].payload), "hello frame");
  EXPECT_EQ(dec.buffered(), 0u);
}

TEST(FrameTest, ZeroLengthPayloadRoundTrips) {
  const std::string wire = EncodeFrame(MakeMessage(1, 2, 7, ""));
  EXPECT_EQ(wire.size(), kFrameHeaderBytes);
  FrameDecoder dec;
  std::vector<Message> out;
  ASSERT_TRUE(dec.Feed(wire.data(), wire.size(), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].type, 7u);
  EXPECT_EQ(out[0].payload.size(), 0u);
}

TEST(FrameTest, ReassemblesAcrossPartialReads) {
  // Two frames delivered one byte at a time: every prefix of the stream
  // is a legal partial read, and no message may surface early.
  std::string wire = EncodeFrame(MakeMessage(1, 2, 10, "first payload"));
  wire += EncodeFrame(MakeMessage(2, 1, 11, "second"));
  FrameDecoder dec;
  std::vector<Message> out;
  for (size_t i = 0; i < wire.size(); ++i) {
    ASSERT_TRUE(dec.Feed(wire.data() + i, 1, &out).ok());
  }
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(std::string_view(out[0].payload), "first payload");
  EXPECT_EQ(std::string_view(out[1].payload), "second");
  EXPECT_EQ(dec.frames_decoded(), 2u);
  EXPECT_EQ(dec.buffered(), 0u);
}

TEST(FrameTest, TornLengthPrefixReassembles) {
  // Split inside the 4-byte length prefix itself — the nastiest tear.
  const std::string wire = EncodeFrame(MakeMessage(5, 6, 3, "abc"));
  for (size_t split = 1; split < 4; ++split) {
    FrameDecoder dec;
    std::vector<Message> out;
    ASSERT_TRUE(dec.Feed(wire.data(), split, &out).ok());
    EXPECT_TRUE(out.empty()) << "message surfaced from a torn prefix";
    EXPECT_EQ(dec.buffered(), split);
    ASSERT_TRUE(dec.Feed(wire.data() + split, wire.size() - split, &out).ok());
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(std::string_view(out[0].payload), "abc");
  }
}

TEST(FrameTest, MultipleFramesPerRead) {
  std::string wire;
  for (uint32_t i = 0; i < 5; ++i) {
    wire += EncodeFrame(MakeMessage(i, i + 1, i, std::string(i, 'x')));
  }
  FrameDecoder dec;
  std::vector<Message> out;
  ASSERT_TRUE(dec.Feed(wire.data(), wire.size(), &out).ok());
  ASSERT_EQ(out.size(), 5u);
  for (uint32_t i = 0; i < 5; ++i) EXPECT_EQ(out[i].payload.size(), i);
}

TEST(FrameTest, OversizedFrameRejectedBeforeAllocation) {
  // A hostile length prefix declaring a huge payload must be rejected
  // from the 4 prefix bytes alone — no buffering of a giant frame, and
  // the decoder stays poisoned afterwards.
  char prefix[4];
  const uint32_t huge = 1u << 30;  // 1 GiB declared payload
  prefix[0] = char(huge & 0xFF);
  prefix[1] = char((huge >> 8) & 0xFF);
  prefix[2] = char((huge >> 16) & 0xFF);
  prefix[3] = char((huge >> 24) & 0xFF);
  FrameDecoder dec(/*max_frame_bytes=*/1 << 20);
  std::vector<Message> out;
  Status s = dec.Feed(prefix, sizeof(prefix), &out);
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(dec.buffered(), 0u) << "poisoned decoder must not buffer";
  // Sticky: a valid frame after the poison still fails.
  const std::string good = EncodeFrame(MakeMessage(1, 2, 3, "ok"));
  EXPECT_FALSE(dec.Feed(good.data(), good.size(), &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST(FrameTest, ImpossiblyShortLengthRejected) {
  // length < header body can't be a frame (would imply negative payload).
  char prefix[4] = {1, 0, 0, 0};
  FrameDecoder dec;
  std::vector<Message> out;
  EXPECT_FALSE(dec.Feed(prefix, sizeof(prefix), &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST(FrameTest, MaxFrameBoundaryAccepted) {
  // Exactly max_frame_bytes of payload is legal; one more is not.
  FrameDecoder dec(/*max_frame_bytes=*/64);
  std::vector<Message> out;
  const std::string at_limit =
      EncodeFrame(MakeMessage(1, 2, 3, std::string(64, 'p')));
  ASSERT_TRUE(dec.Feed(at_limit.data(), at_limit.size(), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].payload.size(), 64u);

  FrameDecoder dec2(/*max_frame_bytes=*/64);
  out.clear();
  const std::string over =
      EncodeFrame(MakeMessage(1, 2, 3, std::string(65, 'p')));
  EXPECT_FALSE(dec2.Feed(over.data(), over.size(), &out).ok());
  EXPECT_TRUE(out.empty());
}

}  // namespace
}  // namespace deluge::net
