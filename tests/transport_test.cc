// Tests of the transport abstraction (DESIGN.md §12): the cluster
// config, the simulated `Network` driven through `Transport`, the
// real-socket backend run as live transports inside this process
// (Unix-domain and TCP loopback), and one fault-hook suite run on both
// backends.
//
// All suites here are named *Transport*/*ClusterConfig* — the TSan CI
// step filters on `*Transport*` to race-check the socket backend.

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "net/network.h"
#include "net/node_config.h"
#include "net/simulator.h"
#include "net/socket_transport.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "replica/node.h"
#include "replica/replicated_store.h"

namespace deluge::net {
namespace {

// ---------------------------------------------------------- ClusterConfig

TEST(ClusterConfigTest, SerializeParseRoundTrip) {
  ClusterConfig cfg;
  cfg.processes.push_back({0, {"", 0, "/tmp/a.sock"}});
  cfg.processes.push_back({1, {"127.0.0.1", 7001, ""}});
  cfg.nodes.push_back({0, 0, "driver", ""});
  cfg.nodes.push_back({1, 1, "replica", "r0"});
  cfg.nodes.push_back({2, 1, "sink", ""});

  ClusterConfig back;
  ASSERT_TRUE(ClusterConfig::Parse(cfg.Serialize(), &back).ok());
  ASSERT_EQ(back.processes.size(), 2u);
  ASSERT_EQ(back.nodes.size(), 3u);
  EXPECT_TRUE(back.process(0)->endpoint.is_unix());
  EXPECT_EQ(back.process(0)->endpoint.unix_path, "/tmp/a.sock");
  EXPECT_EQ(back.process(1)->endpoint.port, 7001);
  EXPECT_EQ(back.node(1)->role, "replica");
  EXPECT_EQ(back.node(1)->name, "r0");
  EXPECT_EQ(back.process_of(2)->id, 1u);
  EXPECT_EQ(back.nodes_of(1), (std::vector<NodeId>{1, 2}));
}

TEST(ClusterConfigTest, ParseRejectsMalformedInput) {
  ClusterConfig cfg;
  EXPECT_FALSE(ClusterConfig::Parse("bogus directive", &cfg).ok());
  EXPECT_FALSE(ClusterConfig::Parse("process 0 smoke signals", &cfg).ok());
  EXPECT_FALSE(
      ClusterConfig::Parse("process 0 tcp h 1\nprocess 0 tcp h 2", &cfg).ok());
  EXPECT_FALSE(ClusterConfig::Parse("node 1 7 replica", &cfg).ok())
      << "node naming an unknown process must fail";
}

TEST(ClusterConfigTest, CommentsAndBlankLinesIgnored) {
  ClusterConfig cfg;
  ASSERT_TRUE(ClusterConfig::Parse(
                  "# header\n\nprocess 0 unix /tmp/x # trailing\n"
                  "node 0 0 driver\n",
                  &cfg)
                  .ok());
  EXPECT_EQ(cfg.processes.size(), 1u);
  EXPECT_EQ(cfg.nodes.size(), 1u);
}

// ------------------------------------------------ Network as a Transport

TEST(NetworkTransportTest, ClockTimersAndSendThroughTheInterface) {
  Simulator sim;
  Network net(&sim);
  Transport& transport = net;
  int delivered = 0;
  NodeId a = transport.AddNode([](const Message&) {});
  NodeId b = transport.AddNode([&](const Message&) { ++delivered; });
  EXPECT_EQ(transport.node_count(), 2u);

  Micros fired_at = -1;
  transport.After(250, [&] { fired_at = transport.Now(); });
  sim.Run();
  EXPECT_EQ(fired_at, 250);
  EXPECT_EQ(transport.Now(), sim.Now());

  Message m;
  m.from = a;
  m.to = b;
  EXPECT_TRUE(transport.Send(m).ok());
  sim.Run();
  EXPECT_EQ(delivered, 1);
}

// -------------------------------------------------------- SocketTransport

/// Polls `pred` until it holds or `timeout_ms` passes (wall clock —
/// these tests run a real event loop).
bool WaitUntil(const std::function<bool()>& pred, int timeout_ms = 10000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

/// Reserves a loopback TCP port: bind to 0, read it back, close.  The
/// tiny reuse race is acceptable in tests.
uint16_t ReservePort() {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return 0;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  ::close(fd);
  return ntohs(addr.sin_port);
}

/// A scratch directory for Unix socket paths, removed on destruction.
struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/deluge_transport_test_XXXXXX";
    path = ::mkdtemp(tmpl);
  }
  ~TempDir() {
    if (!path.empty()) {
      std::string cmd = "rm -rf " + path;
      [[maybe_unused]] int rc = std::system(cmd.c_str());
    }
  }
  std::string sock(const std::string& name) const { return path + "/" + name; }
};

/// Two single-node processes in this OS process, talking over the
/// endpoints in `cfg` (node 0 in process 0, node 1 in process 1).
struct TwoProcessPair {
  ThreadPool pool{8};
  std::unique_ptr<SocketTransport> a, b;

  explicit TwoProcessPair(const ClusterConfig& cfg, Micros ping_period = 0) {
    SocketTransportOptions oa;
    oa.config = cfg;
    oa.local_process = 0;
    oa.pool = &pool;
    oa.ping_period = ping_period;
    a = std::make_unique<SocketTransport>(std::move(oa));
    SocketTransportOptions ob;
    ob.config = cfg;
    ob.local_process = 1;
    ob.pool = &pool;
    ob.ping_period = ping_period;
    b = std::make_unique<SocketTransport>(std::move(ob));
  }
  ~TwoProcessPair() {
    a->Stop();
    b->Stop();
  }
};

ClusterConfig PairConfig(const SocketEndpoint& ea, const SocketEndpoint& eb) {
  ClusterConfig cfg;
  cfg.processes.push_back({0, ea});
  cfg.processes.push_back({1, eb});
  cfg.nodes.push_back({0, 0, "driver", ""});
  cfg.nodes.push_back({1, 1, "sink", ""});
  return cfg;
}

void ExerciseRoundTrip(TwoProcessPair* pair) {
  std::atomic<int> a_got{0};
  std::atomic<int> b_got{0};
  std::atomic<uint32_t> echoed_type{0};
  NodeId na = pair->a->AddNode([&](const Message& m) {
    echoed_type.store(m.type);
    a_got.fetch_add(1);
  });
  SocketTransport* tb = pair->b.get();
  NodeId nb = pair->b->AddNode([&, tb](const Message& m) {
    b_got.fetch_add(1);
    Message reply;  // echo back with type + 1
    reply.from = m.to;
    reply.to = m.from;
    reply.type = m.type + 1;
    reply.payload = std::string(std::string_view(m.payload));
    EXPECT_TRUE(tb->Send(std::move(reply)).ok());
  });
  ASSERT_TRUE(pair->a->Start().ok());
  ASSERT_TRUE(pair->b->Start().ok());

  Message m;
  m.from = na;
  m.to = nb;
  m.type = 41;
  m.payload = std::string("over the real wire");
  ASSERT_TRUE(pair->a->Send(std::move(m)).ok());

  EXPECT_TRUE(WaitUntil([&] { return a_got.load() >= 1; }))
      << "echo reply never arrived";
  EXPECT_EQ(b_got.load(), 1);
  EXPECT_EQ(echoed_type.load(), 42u);
  EXPECT_GE(pair->a->stats().messages_sent, 1u);
  EXPECT_GE(pair->b->stats().messages_delivered, 1u);
}

TEST(SocketTransportTest, UnixLoopbackRoundTrip) {
  TempDir dir;
  TwoProcessPair pair(
      PairConfig({"", 0, dir.sock("a.sock")}, {"", 0, dir.sock("b.sock")}));
  ExerciseRoundTrip(&pair);
}

TEST(SocketTransportTest, TcpLoopbackRoundTrip) {
  const uint16_t pa = ReservePort();
  const uint16_t pb = ReservePort();
  ASSERT_NE(pa, 0);
  ASSERT_NE(pb, 0);
  TwoProcessPair pair(
      PairConfig({"127.0.0.1", pa, ""}, {"127.0.0.1", pb, ""}));
  ExerciseRoundTrip(&pair);
}

TEST(SocketTransportTest, LocalDeliveryStaysInProcess) {
  // Both endpoints in one process: messages route on the event strand
  // without touching a socket, but count in the same stats.
  TempDir dir;
  ClusterConfig cfg;
  cfg.processes.push_back({0, {"", 0, dir.sock("only.sock")}});
  cfg.nodes.push_back({0, 0, "a", ""});
  cfg.nodes.push_back({1, 0, "b", ""});
  ThreadPool pool(4);
  SocketTransportOptions opts;
  opts.config = cfg;
  opts.local_process = 0;
  opts.pool = &pool;
  SocketTransport t(std::move(opts));
  std::atomic<int> got{0};
  NodeId a = t.AddNode([&](const Message&) { got.fetch_add(1); });
  NodeId b = t.AddNode([&](const Message&) { got.fetch_add(1); });
  ASSERT_TRUE(t.Start().ok());
  for (int i = 0; i < 20; ++i) {
    Message m;
    m.from = i % 2 == 0 ? a : b;
    m.to = i % 2 == 0 ? b : a;
    m.type = 1;
    m.payload = std::string("ping");
    ASSERT_TRUE(t.Send(std::move(m)).ok());
  }
  EXPECT_TRUE(WaitUntil([&] { return got.load() == 20; }));
  EXPECT_EQ(t.stats().messages_sent, 20u);
  EXPECT_EQ(t.stats().messages_delivered, 20u);
  t.Stop();
}

TEST(SocketTransportTest, TimersFireOnWallClock) {
  TempDir dir;
  ClusterConfig cfg;
  cfg.processes.push_back({0, {"", 0, dir.sock("t.sock")}});
  cfg.nodes.push_back({0, 0, "a", ""});
  ThreadPool pool(4);
  SocketTransportOptions opts;
  opts.config = cfg;
  opts.local_process = 0;
  opts.pool = &pool;
  SocketTransport t(std::move(opts));
  t.AddNode([](const Message&) {});
  ASSERT_TRUE(t.Start().ok());

  const Micros t0 = t.Now();
  std::atomic<int> fired{0};
  std::atomic<Micros> fired_at{0};
  t.After(5 * kMicrosPerMilli, [&] {
    fired_at.store(t.Now());
    fired.fetch_add(1);
  });
  t.Post([&] { fired.fetch_add(1); });
  EXPECT_TRUE(WaitUntil([&] { return fired.load() == 2; }));
  EXPECT_GE(fired_at.load() - t0, 5 * kMicrosPerMilli);
  t.Stop();
}

TEST(SocketTransportTest, SendToUnknownNodeRejected) {
  TempDir dir;
  ClusterConfig cfg;
  cfg.processes.push_back({0, {"", 0, dir.sock("u.sock")}});
  cfg.nodes.push_back({0, 0, "a", ""});
  ThreadPool pool(4);
  SocketTransportOptions opts;
  opts.config = cfg;
  opts.local_process = 0;
  opts.pool = &pool;
  SocketTransport t(std::move(opts));
  NodeId a = t.AddNode([](const Message&) {});
  ASSERT_TRUE(t.Start().ok());
  Message m;
  m.from = a;
  m.to = 99;  // not in the config
  m.payload = std::string("x");
  EXPECT_FALSE(t.Send(std::move(m)).ok());
  t.Stop();
}

/// Process 0 of `cfg`, started with one node, sending small frames to
/// node 1 in process 1.
struct Sender {
  SocketTransport t;
  NodeId node = 0;

  Sender(const ClusterConfig& cfg, ThreadPool* pool,
         const std::function<void(SocketTransportOptions*)>& tune = {})
      : t([&] {
          SocketTransportOptions o;
          o.config = cfg;
          o.local_process = 0;
          o.pool = pool;
          if (tune) tune(&o);
          return o;
        }()) {
    node = t.AddNode([](const Message&) {});
    EXPECT_TRUE(t.Start().ok());
  }
  Status Send() {
    Message m;
    m.from = node;
    m.to = 1;
    m.type = 9;
    m.payload = std::string("x");
    return t.Send(std::move(m));
  }
};

/// Process 1 of `cfg`, started, counting deliveries into `*got`.
std::unique_ptr<SocketTransport> StartReceiver(const ClusterConfig& cfg,
                                               ThreadPool* pool,
                                               std::atomic<int>* got) {
  SocketTransportOptions o;
  o.config = cfg;
  o.local_process = 1;
  o.pool = pool;
  auto t = std::make_unique<SocketTransport>(std::move(o));
  t->AddNode([got](const Message&) { got->fetch_add(1); });
  EXPECT_TRUE(t->Start().ok());
  return t;
}

/// The process-wide total of counter `name` over every instance, live
/// or retired.
double RegistryTotal(std::string_view name) {
  double total = 0;
  for (const obs::MetricSample& s :
       obs::MetricsRegistry::Global().Snapshot()) {
    if (s.name == name) total += s.value;
  }
  return total;
}

TEST(SocketTransportTest, SenderReconnectsAcrossPeerRestart) {
  // The peer comes up only after the first send, so the reconnect policy
  // must carry the queued frame through the first connection failures.
  // Then the peer restarts on the same path: the dead connection is
  // replaced once, and frames flow again.
  TempDir dir;
  ClusterConfig cfg =
      PairConfig({"", 0, dir.sock("ra.sock")}, {"", 0, dir.sock("rb.sock")});
  ThreadPool pool(4);
  Sender a(cfg, &pool);
  ASSERT_TRUE(a.Send().ok());  // peer not yet listening

  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::atomic<int> got{0};
  std::unique_ptr<SocketTransport> b = StartReceiver(cfg, &pool, &got);
  EXPECT_TRUE(WaitUntil([&] { return got.load() == 1; }))
      << "frame queued before the peer existed was never delivered";

  const double reconnects = RegistryTotal("transport.reconnects");
  b.reset();
  b = StartReceiver(cfg, &pool, &got);
  // Frames written into the dead connection are lost; keep sending until
  // one arrives over the new one.
  EXPECT_TRUE(WaitUntil([&] {
    EXPECT_TRUE(a.Send().ok());
    return got.load() >= 2;
  })) << "no frame reached the restarted peer";
  EXPECT_EQ(RegistryTotal("transport.reconnects"), reconnects + 1);
  a.t.Stop();
  b->Stop();
}

TEST(SocketTransportTest, ReconnectBudgetDropsQueueAndResetsOnNextSend) {
  // Nobody listens at first: two connect attempts spend the budget, and
  // every queued frame is dropped and counted.  The next send starts a
  // fresh budget, which reaches the peer started since.
  TempDir dir;
  ClusterConfig cfg =
      PairConfig({"", 0, dir.sock("da.sock")}, {"", 0, dir.sock("db.sock")});
  ThreadPool pool(4);
  Sender a(cfg, &pool, [](SocketTransportOptions* o) {
    o->reconnect.max_attempts = 2;
    o->reconnect.initial_backoff = 1 * kMicrosPerMilli;
    o->reconnect.max_backoff = 2 * kMicrosPerMilli;
  });
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(a.Send().ok());
  EXPECT_TRUE(WaitUntil([&] { return a.t.stats().messages_dropped == 3; }))
      << "dropped " << a.t.stats().messages_dropped;

  std::atomic<int> got{0};
  std::unique_ptr<SocketTransport> b = StartReceiver(cfg, &pool, &got);
  ASSERT_TRUE(a.Send().ok());
  EXPECT_TRUE(WaitUntil([&] { return got.load() == 1; }))
      << "the send after a spent budget never arrived";
  EXPECT_EQ(a.t.stats().messages_dropped, 3u);
  a.t.Stop();
  b->Stop();
}

TEST(SocketTransportTest, FullSendQueueFailsFast) {
  // With no peer, frames wait in the queue while the transport retries
  // the connect; the one past `max_send_queue_frames` fails at once.
  TempDir dir;
  ClusterConfig cfg =
      PairConfig({"", 0, dir.sock("qa.sock")}, {"", 0, dir.sock("qb.sock")});
  ThreadPool pool(4);
  Sender a(cfg, &pool,
           [](SocketTransportOptions* o) { o->max_send_queue_frames = 4; });
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(a.Send().ok()) << "send " << i;
  EXPECT_TRUE(a.Send().IsUnavailable());
  EXPECT_EQ(a.t.stats().messages_dropped, 1u);
  a.t.Stop();
}

TEST(SocketTransportTest, SubMillisecondTimersFireOnTime) {
  // A replica acks through After(50 µs): a timer must not wait for the
  // next whole millisecond.  Each 200 µs timer is armed on an idle loop.
  TempDir dir;
  ClusterConfig cfg;
  cfg.processes.push_back({0, {"", 0, dir.sock("st.sock")}});
  cfg.nodes.push_back({0, 0, "a", ""});
  ThreadPool pool(4);
  std::atomic<Micros> fired_at{-1};
  SocketTransportOptions opts;
  opts.config = cfg;
  opts.local_process = 0;
  opts.pool = &pool;
  SocketTransport t(std::move(opts));
  t.AddNode([](const Message&) {});
  ASSERT_TRUE(t.Start().ok());

  constexpr Micros kDelay = 200;
  std::vector<Micros> waited;
  for (int i = 0; i < 21; ++i) {
    fired_at.store(-1);
    const Micros armed_at = t.Now();
    t.After(kDelay, [&] { fired_at.store(t.Now()); });
    ASSERT_TRUE(WaitUntil([&] { return fired_at.load() >= 0; }));
    waited.push_back(fired_at.load() - armed_at);
  }
  t.Stop();
  EXPECT_GE(*std::min_element(waited.begin(), waited.end()), kDelay);
  std::nth_element(waited.begin(), waited.begin() + 10, waited.end());
  EXPECT_LT(waited[10], 700) << "median wait of a 200 us timer";
}

/// Two threads and `pair.a`'s strand each send numbered 16 KB frames to
/// `pair.b`, pausing 100 µs between frames so the peer often falls idle
/// and `Send` writes inline.  Every 100th frame the receiving handler
/// stalls for 20 ms, which fills the socket: an inline write then meets
/// EAGAIN (Unix sockets) or a partial write whose rest the event loop
/// finishes (TCP), and later frames queue while 1 ms pings and pongs
/// jump the queue.  Every frame must arrive once, whole, in order per
/// source.
void ExerciseOrderedSends(const ClusterConfig& cfg) {
  constexpr uint32_t kSources = 3;
  constexpr uint32_t kFramesPerSource = 300;
  constexpr size_t kFrameBytes = 16 * 1024;
  constexpr uint32_t kTypeBase = 100;
  auto fill = [](uint32_t source, uint32_t seq) {
    return char('a' + (source * 7 + seq) % 26);
  };

  TwoProcessPair pair(cfg, /*ping_period=*/kMicrosPerMilli);
  std::vector<uint32_t> next(kSources, 0);  // touched on b's strand only
  std::atomic<uint32_t> received{0};
  std::atomic<uint32_t> bad{0};
  const NodeId na = pair.a->AddNode([](const Message&) {});
  const NodeId nb = pair.b->AddNode([&](const Message& m) {
    const uint32_t source = m.type - kTypeBase;
    uint32_t seq = 0;
    if (source >= kSources || m.payload.size() != kFrameBytes) {
      bad.fetch_add(1);
    } else {
      std::memcpy(&seq, m.payload.data(), sizeof(seq));
      const std::string_view body = m.payload.view().substr(sizeof(seq));
      if (seq != next[source] ||
          body.find_first_not_of(fill(source, seq)) != body.npos) {
        bad.fetch_add(1);
      }
      next[source] = seq + 1;
    }
    if (received.fetch_add(1) % 100 == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });
  ASSERT_TRUE(pair.a->Start().ok());
  ASSERT_TRUE(pair.b->Start().ok());

  auto send_all = [&](uint32_t source) {
    for (uint32_t seq = 0; seq < kFramesPerSource; ++seq) {
      std::string payload(kFrameBytes, fill(source, seq));
      std::memcpy(payload.data(), &seq, sizeof(seq));
      Message m;
      m.from = na;
      m.to = nb;
      m.type = kTypeBase + source;
      m.payload = std::move(payload);
      EXPECT_TRUE(pair.a->Send(std::move(m)).ok());
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  };
  std::atomic<bool> strand_done{false};
  std::thread first(send_all, 0);
  std::thread second(send_all, 1);
  pair.a->Post([&] {
    send_all(2);
    strand_done.store(true);
  });
  first.join();
  second.join();

  EXPECT_TRUE(WaitUntil([&] { return strand_done.load(); }, 30000));
  EXPECT_TRUE(WaitUntil(
      [&] { return received.load() == kSources * kFramesPerSource; }, 30000))
      << "received " << received.load();
  // Stop before the state the handlers touch goes out of scope.
  pair.a->Stop();
  pair.b->Stop();
  EXPECT_EQ(bad.load(), 0u);
  for (uint32_t s = 0; s < kSources; ++s) {
    EXPECT_EQ(next[s], kFramesPerSource) << "source " << s;
  }
  EXPECT_EQ(pair.b->stats().messages_dropped, 0u);
}

TEST(SocketTransportTest, FramesStayInOrderAcrossInlineAndQueuedSends) {
  {
    SCOPED_TRACE("unix");
    TempDir dir;
    ExerciseOrderedSends(
        PairConfig({"", 0, dir.sock("oa.sock")}, {"", 0, dir.sock("ob.sock")}));
  }
  SCOPED_TRACE("tcp");
  const uint16_t pa = ReservePort();
  const uint16_t pb = ReservePort();
  ASSERT_NE(pa, 0);
  ASSERT_NE(pb, 0);
  ExerciseOrderedSends(
      PairConfig({"127.0.0.1", pa, ""}, {"127.0.0.1", pb, ""}));
}

// ------------------------------------------------ fault hooks, both backends

enum class Backend { kSim, kSocket };

/// The fault hooks through either backend, node `a_` sending to node
/// `b_`: sim links of `kLink` without serialization delay, or one
/// socket process whose two nodes talk on its own strand.
class TransportFaultTest : public ::testing::TestWithParam<Backend> {
 protected:
  static constexpr Micros kLink = 5 * kMicrosPerMilli;

  void SetUp() override {
    if (sim()) {
      net_ = std::make_unique<Network>(&sim_);
      net_->default_link().latency = kLink;
      net_->default_link().bandwidth_bytes_per_sec = 0;
      t_ = net_.get();
    } else {
      SocketTransportOptions opts;
      opts.config.processes.push_back({0, {"", 0, dir_.sock("fault.sock")}});
      opts.config.nodes.push_back({0, 0, "a", ""});
      opts.config.nodes.push_back({1, 0, "b", ""});
      opts.pool = &pool_;
      sock_ = std::make_unique<SocketTransport>(std::move(opts));
      t_ = sock_.get();
    }
    a_ = t_->AddNode([](const Message&) {});
    b_ = t_->AddNode([this](const Message&) {
      last_delivery_at_.store(t_->Now());
      delivered_.fetch_add(1);
    });
    if (sock_) {
      ASSERT_TRUE(sock_->Start().ok());
    }
  }
  void TearDown() override {
    if (sock_) sock_->Stop();
  }

  bool sim() const { return GetParam() == Backend::kSim; }

  Status Send(NodeId from, NodeId to) {
    Message m;
    m.from = from;
    m.to = to;
    m.type = 1;
    m.payload = std::string("x");
    return t_->Send(std::move(m));
  }

  /// Runs what falls due within `horizon`: the whole sim queue, or on
  /// sockets every timer up to a marker set `horizon` from now (timers
  /// fire in deadline order).
  void Settle(Micros horizon = 50 * kMicrosPerMilli) {
    if (sim()) {
      sim_.Run();
      return;
    }
    const int want = markers_.load() + 1;
    t_->After(horizon, [this] { markers_.fetch_add(1); });
    ASSERT_TRUE(WaitUntil([&] { return markers_.load() >= want; }));
  }

  Simulator sim_;
  std::unique_ptr<Network> net_;
  TempDir dir_;
  ThreadPool pool_{4};
  std::unique_ptr<SocketTransport> sock_;
  Transport* t_ = nullptr;
  NodeId a_ = 0, b_ = 0;
  std::atomic<int> delivered_{0};
  std::atomic<Micros> last_delivery_at_{-1};
  std::atomic<int> markers_{0};
};

TEST_P(TransportFaultTest, CrashedNodeRejectsTrafficUntilRestart) {
  t_->SetNodeUp(b_, false);
  EXPECT_FALSE(t_->IsNodeUp(b_));
  EXPECT_TRUE(Send(a_, b_).IsUnavailable());
  Settle();
  EXPECT_EQ(delivered_.load(), 0);
  EXPECT_EQ(t_->stats().drops_node_down, 1u);
  EXPECT_EQ(t_->stats().messages_dropped, 1u);

  t_->SetNodeUp(b_, true);
  EXPECT_TRUE(t_->IsNodeUp(b_));
  EXPECT_TRUE(Send(a_, b_).ok());
  Settle();
  EXPECT_EQ(delivered_.load(), 1);
}

TEST_P(TransportFaultTest, PartitionBlocksBothDirectionsUntilHeal) {
  t_->Partition(a_, b_);
  EXPECT_TRUE(t_->IsPartitioned(a_, b_));
  EXPECT_TRUE(t_->IsPartitioned(b_, a_));
  EXPECT_TRUE(Send(a_, b_).IsUnavailable());
  EXPECT_TRUE(Send(b_, a_).IsUnavailable());
  Settle();
  EXPECT_EQ(delivered_.load(), 0);
  EXPECT_EQ(t_->stats().messages_dropped, 2u);

  t_->Heal(a_, b_);
  EXPECT_FALSE(t_->IsPartitioned(a_, b_));
  EXPECT_FALSE(t_->IsPartitioned(b_, a_));
  EXPECT_TRUE(Send(a_, b_).ok());
  Settle();
  EXPECT_EQ(delivered_.load(), 1);
}

TEST_P(TransportFaultTest, DownLinkRejectsAtSend) {
  t_->SetLinkDown(a_, b_, true);
  EXPECT_TRUE(t_->IsLinkDown(a_, b_));
  EXPECT_TRUE(t_->IsLinkDown(b_, a_));
  EXPECT_TRUE(Send(a_, b_).IsUnavailable());
  EXPECT_EQ(t_->stats().drops_link_down, 1u);
  EXPECT_EQ(t_->stats().messages_dropped, 1u);

  t_->SetLinkDown(a_, b_, false);
  EXPECT_FALSE(t_->IsLinkDown(a_, b_));
  EXPECT_TRUE(Send(a_, b_).ok());
  Settle();
  EXPECT_EQ(delivered_.load(), 1);
}

TEST_P(TransportFaultTest, InFlightMessagesLostWhenFaultStarts) {
  // An injected delay holds each message; a fault that starts meanwhile
  // loses it at delivery time (datagram semantics).  The loss counts as
  // a drop, but under no send-time cause.  The hold is long enough that
  // the fault starts first even on a loaded host.
  constexpr Micros kHold = 200 * kMicrosPerMilli;
  struct Fault {
    std::function<void()> start, end;
  };
  const std::vector<Fault> faults = {
      {[&] { t_->Partition(a_, b_); }, [&] { t_->Heal(a_, b_); }},
      {[&] { t_->SetLinkDown(a_, b_, true); },
       [&] { t_->SetLinkDown(a_, b_, false); }},
      {[&] { t_->SetNodeUp(b_, false); }, [&] { t_->SetNodeUp(b_, true); }},
  };
  t_->SetExtraLatency(a_, b_, kHold);
  for (const Fault& fault : faults) {
    ASSERT_TRUE(Send(a_, b_).ok());
    fault.start();
    Settle(2 * kHold);
    fault.end();
  }
  EXPECT_EQ(delivered_.load(), 0);
  const NetworkStats s = t_->stats();
  EXPECT_EQ(s.messages_dropped, 3u);
  EXPECT_EQ(s.drops_node_down + s.drops_link_down + s.drops_burst_loss, 0u);

  EXPECT_TRUE(Send(a_, b_).ok());  // every fault has ended
  Settle(2 * kHold);
  EXPECT_EQ(delivered_.load(), 1);
}

TEST_P(TransportFaultTest, ExtraLatencyDelaysDelivery) {
  // Exact on the sim; on sockets the held delivery fires no earlier.
  constexpr Micros kExtra = 30 * kMicrosPerMilli;
  t_->SetExtraLatency(a_, b_, kExtra);
  Micros sent_at = t_->Now();
  ASSERT_TRUE(Send(a_, b_).ok());
  Settle();
  ASSERT_EQ(delivered_.load(), 1);
  if (sim()) {
    EXPECT_EQ(last_delivery_at_.load(), sent_at + kLink + kExtra);
  } else {
    EXPECT_GE(last_delivery_at_.load() - sent_at, kExtra);
  }

  t_->SetExtraLatency(a_, b_, 0);
  sent_at = t_->Now();
  ASSERT_TRUE(Send(a_, b_).ok());
  Settle();
  ASSERT_EQ(delivered_.load(), 2);
  if (sim()) {
    EXPECT_EQ(last_delivery_at_.load(), sent_at + kLink);
  }
}

TEST_P(TransportFaultTest, BurstLossDropsSilentlyUntilCleared) {
  // A chain that enters Bad on the first message and never leaves: every
  // send is accepted (silent loss) yet nothing arrives.
  BurstLossModel model;
  model.p_good_to_bad = 1.0;
  model.p_bad_to_good = 0.0;
  model.loss_good = 0.0;
  model.loss_bad = 1.0;
  t_->SetBurstLoss(a_, b_, model);
  for (int i = 0; i < 20; ++i) EXPECT_TRUE(Send(a_, b_).ok());
  Settle();
  EXPECT_EQ(delivered_.load(), 0);
  EXPECT_EQ(t_->stats().drops_burst_loss, 20u);
  EXPECT_EQ(t_->stats().messages_dropped, 20u);

  t_->ClearBurstLoss(a_, b_);
  EXPECT_TRUE(Send(a_, b_).ok());
  Settle();
  EXPECT_EQ(delivered_.load(), 1);
}

INSTANTIATE_TEST_SUITE_P(Backends, TransportFaultTest,
                         ::testing::Values(Backend::kSim, Backend::kSocket),
                         [](const ::testing::TestParamInfo<Backend>& info) {
                           return std::string(
                               info.param == Backend::kSim ? "Sim" : "Socket");
                         });

// ------------------------------------- replica fabric over real sockets

TEST(SocketTransportTest, RemoteReplicaQuorumOverUnixSockets) {
  // The E24 shape in miniature: a ReplicatedStore coordinator in
  // "process" 0 quorums over three ReplicaNodes living in "process" 1,
  // all traffic over Unix-domain sockets.  Ring placement is derived
  // from the replica names on both sides (AddRemoteReplica).
  TempDir dir;
  ClusterConfig cfg;
  cfg.processes.push_back({0, {"", 0, dir.sock("coord.sock")}});
  cfg.processes.push_back({1, {"", 0, dir.sock("host.sock")}});
  cfg.nodes.push_back({0, 0, "driver", ""});
  cfg.nodes.push_back({1, 1, "replica", "r0"});
  cfg.nodes.push_back({2, 1, "replica", "r1"});
  cfg.nodes.push_back({3, 1, "replica", "r2"});
  ThreadPool pool(8);

  SocketTransportOptions oh;
  oh.config = cfg;
  oh.local_process = 1;
  oh.pool = &pool;
  SocketTransport host(std::move(oh));
  std::vector<std::unique_ptr<replica::ReplicaNode>> nodes;
  for (const char* name : {"r0", "r1", "r2"}) {
    nodes.push_back(std::make_unique<replica::ReplicaNode>(
        replica::ReplicaNode::RingIdFor(name), &host, nullptr));
  }
  ASSERT_TRUE(host.Start().ok());

  SocketTransportOptions oc;
  oc.config = cfg;
  oc.local_process = 0;
  oc.pool = &pool;
  SocketTransport coord(std::move(oc));
  replica::ReplicaOptions ropts;
  ropts.n = 3;
  ropts.r = 2;
  ropts.w = 2;
  replica::ReplicatedStore store(&coord, /*ring=*/nullptr, ropts);
  EXPECT_EQ(store.AddRemoteReplica("r0", 1),
            replica::ReplicaNode::RingIdFor("r0"));
  store.AddRemoteReplica("r1", 2);
  store.AddRemoteReplica("r2", 3);
  ASSERT_TRUE(coord.Start().ok());

  // The store is strand-bound: drive it via Post, observe via atomics.
  std::atomic<int> wrote{0};
  std::atomic<bool> write_ok{false};
  coord.Post([&] {
    store.Put("avatar:1", "pos=(3,4)", {}, [&](const Status& s, replica::Version) {
      write_ok.store(s.ok());
      wrote.fetch_add(1);
    });
  });
  ASSERT_TRUE(WaitUntil([&] { return wrote.load() == 1; }))
      << "quorum write never completed";
  EXPECT_TRUE(write_ok.load());

  std::atomic<int> read{0};
  std::atomic<bool> read_ok{false};
  std::string value;
  coord.Post([&] {
    store.Get("avatar:1", {},
              [&](const Status& s, const std::string& v, replica::Version) {
                value = v;  // written before `read`, read after
                read_ok.store(s.ok());
                read.fetch_add(1);
              });
  });
  ASSERT_TRUE(WaitUntil([&] { return read.load() == 1; }))
      << "quorum read never completed";
  EXPECT_TRUE(read_ok.load());
  EXPECT_EQ(value, "pos=(3,4)");

  // Every replica host actually stores the record (w=2 acked, n=3
  // targeted; give the third write a moment to land).  Counting runs on
  // the host strand — the replicas are strand-bound like every protocol
  // object.
  auto count_stored = [&] {
    std::atomic<size_t> stored{0};
    std::atomic<bool> done{false};
    host.Post([&] {
      size_t n = 0;
      for (auto& r : nodes) n += r->KeyCount();
      stored.store(n);
      done.store(true);
    });
    WaitUntil([&] { return done.load(); }, 2000);
    return stored.load();
  };
  EXPECT_TRUE(WaitUntil([&] { return count_stored() == 3; }));
  EXPECT_GT(store.AckedVersion("avatar:1").counter, 0u);
  coord.Stop();
  host.Stop();
}

}  // namespace
}  // namespace deluge::net
