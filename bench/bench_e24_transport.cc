// E24 — transport abstraction: the same protocol objects over the
// simulated network and over real sockets as separate OS processes.
//
// Two workloads, each run on both `net::Transport` backends:
//
//  1. Replica quorum (E22's shape): a `ReplicatedStore` coordinator
//     quorums N=3, R=W=2 over six replicas.  In-sim the replicas are
//     in-process; over sockets they live in two forked
//     `tools/deluge_node` child processes reached via Unix-domain
//     sockets on loopback.  Claims: (a) quorum outcomes match — every
//     write and read that succeeds in-sim succeeds over the wire;
//     (b) zero acked-write loss on either backend (audited with R=N
//     reads); (c) the socket path reports real wall-clock
//     throughput/latency, not virtual time.
//
//  2. Fan-out (E18's shape): one driver sprays fixed-size events at
//     six sink endpoints split across the two child processes, then
//     audits delivery by querying each sink's counters over the wire.
//     Claims: loopback stream delivery is lossless (delivered ==
//     sent, both counted end-to-end across process boundaries) and
//     wall-clock throughput is reported.
//
// The children are forked from this binary (`tools/deluge_node`,
// located next to the bench in the build tree), handed the shared
// cluster config file, and SIGTERMed on teardown; PDEATHSIG in the
// host reaps them even if the bench dies.

#include <benchmark/benchmark.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench_json.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/histogram.h"
#include "common/thread_pool.h"
#include "net/network.h"
#include "net/node_config.h"
#include "net/simulator.h"
#include "net/socket_transport.h"
#include "net/transport.h"
#include "replica/node.h"
#include "replica/replicated_store.h"
#include "storage/format.h"

namespace {

using namespace deluge;           // NOLINT
using namespace deluge::replica;  // NOLINT

constexpr int kReplicas = 6;       // r0..r5, three per child process
constexpr int kQuorumOps = 400;    // alternating write / read
constexpr int kKeys = 64;
constexpr int kWindow = 8;         // outstanding ops over the socket path

constexpr int kSinks = 6;          // three per child process
constexpr int kFanPerSink = 2000;  // messages sprayed at each sink
constexpr size_t kFanPayload = 512;

std::string ReplicaName(int i) { return "r" + std::to_string(i); }

// ----------------------------------------------------------- child hosts

/// `tools/deluge_node`, resolved relative to this binary's build dir.
std::string NodeHostBinary() {
  const char* env = std::getenv("DELUGE_NODE_BIN");
  if (env != nullptr && *env != '\0') return env;
  char self[4096];
  const ssize_t n = ::readlink("/proc/self/exe", self, sizeof(self) - 1);
  if (n <= 0) return "build/tools/deluge_node";
  self[n] = '\0';
  std::string dir(self);
  const size_t slash = dir.find_last_of('/');
  dir.erase(slash == std::string::npos ? 0 : slash);
  return dir + "/../tools/deluge_node";
}

pid_t SpawnNodeHost(const std::string& bin, const std::string& config,
                    uint32_t process) {
  const std::string proc_arg = std::to_string(process);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::execl(bin.c_str(), bin.c_str(), "--config", config.c_str(),
            "--process", proc_arg.c_str(), static_cast<char*>(nullptr));
    std::fprintf(stderr, "exec %s failed: %s\n", bin.c_str(),
                 std::strerror(errno));
    ::_exit(127);
  }
  return pid;
}

void StopNodeHosts(std::vector<pid_t>* pids) {
  for (pid_t pid : *pids) {
    if (pid > 0) ::kill(pid, SIGTERM);
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  for (pid_t pid : *pids) {
    if (pid <= 0) continue;
    while (::waitpid(pid, nullptr, WNOHANG) == 0) {
      if (std::chrono::steady_clock::now() > deadline) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, nullptr, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  pids->clear();
}

/// Scratch dir for the config file and Unix socket paths.
struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/deluge_e24_XXXXXX";
    path = ::mkdtemp(tmpl);
  }
  ~TempDir() {
    if (!path.empty()) {
      const std::string cmd = "rm -rf " + path;
      [[maybe_unused]] int rc = std::system(cmd.c_str());
    }
  }
};

bool WaitUntil(const std::function<bool()>& pred, int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

// ------------------------------------------------------ quorum workloads

struct QuorumResult {
  uint64_t write_attempts = 0, write_ok = 0;
  uint64_t read_attempts = 0, read_ok = 0;
  uint64_t acked_writes = 0, acked_writes_lost = 0;
  double elapsed_s = 0;     // wall clock (socket backend only)
  double write_p50_ms = 0, write_p99_ms = 0;
  double read_p50_ms = 0, read_p99_ms = 0;
  uint64_t net_messages = 0, net_bytes = 0;
  bool completed = true;
};

ReplicaOptions QuorumOptions() {
  ReplicaOptions opts;
  opts.n = 3;
  opts.r = 2;
  opts.w = 2;
  return opts;
}

/// The E22-shaped workload against a store: alternating writes and
/// reads over a shared key space, then an R=N audit of every acked
/// write.  `issue` schedules op `i`; the backends differ only in how
/// ops are paced and how completion is awaited.
struct QuorumOp {
  bool is_write = false;
  std::string key, value;
};

QuorumOp MakeOp(int i) {
  QuorumOp op;
  op.is_write = i % 2 == 0;
  op.key = "obj" + std::to_string(i % kKeys);
  op.value = "v" + std::to_string(i);
  return op;
}

/// In-sim run: virtual-time open loop, replicas in-process.  Uses the
/// same nullptr-ring store configuration as the socket path, so ring
/// placement (RingIdFor of the same names) is identical on both
/// backends.
QuorumResult RunQuorumSim() {
  net::Simulator sim;
  net::Network net(&sim);
  net.default_link().latency = 2 * kMicrosPerMilli;
  net.default_link().bandwidth_bytes_per_sec = 0;
  ReplicatedStore store(&net, /*ring=*/nullptr, QuorumOptions());
  std::vector<uint64_t> rings;
  for (int i = 0; i < kReplicas; ++i) {
    rings.push_back(store.AddReplica(ReplicaName(i)));
  }

  QuorumResult out;
  Histogram write_us, read_us;
  std::map<std::string, std::pair<Version, std::string>> acked;
  for (int i = 0; i < kQuorumOps; ++i) {
    const QuorumOp op = MakeOp(i);
    const Micros at = Micros(i) * 2 * kMicrosPerMilli;
    if (op.is_write) {
      sim.At(at, [&, op, at] {
        ++out.write_attempts;
        store.Put(op.key, op.value, {},
                  [&, op, at](const Status& s, Version ver) {
                    if (!s.ok()) return;
                    ++out.write_ok;
                    write_us.Record(sim.Now() - at);
                    auto& slot = acked[op.key];
                    if (slot.first < ver) slot = {ver, op.value};
                  });
      });
    } else {
      sim.At(at, [&, op, at] {
        ++out.read_attempts;
        store.Get(op.key, {},
                  [&, at](const Status& s, const std::string&, Version) {
                    if (!s.ok() && !s.IsNotFound()) return;
                    ++out.read_ok;
                    read_us.Record(sim.Now() - at);
                  });
      });
    }
  }
  sim.Run();

  // Audit: R=N reads must return every acked version (or newer).
  out.acked_writes = acked.size();
  for (const auto& [key, want] : acked) {
    ReadOptions ro;
    ro.r = QuorumOptions().n;
    bool lost = true;
    store.Get(key, ro,
              [&](const Status& s, const std::string&, Version ver) {
                lost = !s.ok() || ver < want.first;
              });
    sim.Run();
    if (lost) ++out.acked_writes_lost;
  }
  out.write_p50_ms = write_us.P50() / double(kMicrosPerMilli);
  out.write_p99_ms = write_us.P99() / double(kMicrosPerMilli);
  out.read_p50_ms = read_us.P50() / double(kMicrosPerMilli);
  out.read_p99_ms = read_us.P99() / double(kMicrosPerMilli);
  out.net_messages = net.stats().messages_sent;
  out.net_bytes = net.stats().bytes_sent;
  return out;
}

/// Socket run: the coordinator in this process, six replicas in two
/// forked `deluge_node` hosts, Unix-domain sockets, wall-clock time.
/// Ops run in a bounded-concurrency pipeline on the event strand.
QuorumResult RunQuorumSocket() {
  TempDir dir;
  net::ClusterConfig cfg;
  cfg.processes.push_back({0, {"", 0, dir.path + "/driver.sock"}});
  cfg.processes.push_back({1, {"", 0, dir.path + "/host1.sock"}});
  cfg.processes.push_back({2, {"", 0, dir.path + "/host2.sock"}});
  cfg.nodes.push_back({0, 0, "driver", ""});
  for (int i = 0; i < kReplicas; ++i) {
    cfg.nodes.push_back({net::NodeId(1 + i), uint32_t(1 + i / 3), "replica",
                         ReplicaName(i)});
  }
  const std::string cfg_path = dir.path + "/cluster.cfg";
  QuorumResult out;
  if (!cfg.Save(cfg_path).ok()) {
    out.completed = false;
    return out;
  }

  const std::string bin = NodeHostBinary();
  std::vector<pid_t> children;
  children.push_back(SpawnNodeHost(bin, cfg_path, 1));
  children.push_back(SpawnNodeHost(bin, cfg_path, 2));

  ThreadPool pool(1);  // the transport's event loop
  net::SocketTransportOptions topts;
  topts.config = cfg;
  topts.local_process = 0;
  topts.pool = &pool;
  net::SocketTransport transport(std::move(topts));
  // No Start(): without heartbeats every peer is presumed alive and
  // strict per-op timeouts police the (fault-free) loopback cluster.
  ReplicatedStore store(&transport, /*ring=*/nullptr, QuorumOptions());
  for (int i = 0; i < kReplicas; ++i) {
    store.AddRemoteReplica(ReplicaName(i), net::NodeId(1 + i));
  }
  if (!transport.Start().ok()) {
    out.completed = false;
    StopNodeHosts(&children);
    return out;
  }

  // Strand-owned pipeline state (callbacks all run on the strand; the
  // main thread only watches `finished`).
  Histogram write_us, read_us;
  std::map<std::string, std::pair<Version, std::string>> acked;
  int next_op = 0, inflight = 0;
  std::atomic<int> finished{0};
  std::function<void()> issue = [&] {
    while (inflight < kWindow && next_op < kQuorumOps) {
      const QuorumOp op = MakeOp(next_op++);
      ++inflight;
      const Micros at = transport.Now();
      if (op.is_write) {
        ++out.write_attempts;
        store.Put(op.key, op.value, {},
                  [&, op, at](const Status& s, Version ver) {
                    if (s.ok()) {
                      ++out.write_ok;
                      write_us.Record(transport.Now() - at);
                      auto& slot = acked[op.key];
                      if (slot.first < ver) slot = {ver, op.value};
                    }
                    --inflight;
                    issue();
                  });
      } else {
        ++out.read_attempts;
        store.Get(op.key, {},
                  [&, at](const Status& s, const std::string&, Version) {
                    if (s.ok() || s.IsNotFound()) {
                      ++out.read_ok;
                      read_us.Record(transport.Now() - at);
                    }
                    --inflight;
                    issue();
                  });
      }
    }
    if (inflight == 0 && next_op >= kQuorumOps) {
      finished.store(1, std::memory_order_release);
    }
  };

  const auto wall_start = std::chrono::steady_clock::now();
  transport.Post([&] { issue(); });
  if (!WaitUntil([&] { return finished.load(std::memory_order_acquire) != 0; },
                 60000)) {
    out.completed = false;
  }
  out.elapsed_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - wall_start)
                      .count();

  // Audit over the wire: R=N reads of every acked key, same pipeline.
  std::atomic<int> audited{0};
  transport.Post([&] {
    out.acked_writes = acked.size();
    if (acked.empty()) {
      audited.store(1);
      return;
    }
    auto remaining = std::make_shared<size_t>(acked.size());
    for (const auto& [key, want] : acked) {
      ReadOptions ro;
      ro.r = QuorumOptions().n;
      const Version floor = want.first;
      store.Get(key, ro,
                [&, floor, remaining](const Status& s, const std::string&,
                                      Version ver) {
                  if (!s.ok() || ver < floor) ++out.acked_writes_lost;
                  if (--*remaining == 0) audited.store(1);
                });
    }
  });
  if (!WaitUntil([&] { return audited.load() != 0; }, 60000)) {
    out.completed = false;
  }

  out.write_p50_ms = write_us.P50() / double(kMicrosPerMilli);
  out.write_p99_ms = write_us.P99() / double(kMicrosPerMilli);
  out.read_p50_ms = read_us.P50() / double(kMicrosPerMilli);
  out.read_p99_ms = read_us.P99() / double(kMicrosPerMilli);
  out.net_messages = transport.stats().messages_sent;
  out.net_bytes = transport.stats().bytes_sent;
  transport.Stop();
  StopNodeHosts(&children);
  return out;
}

void BM_TransportQuorumParity(benchmark::State& state) {
  QuorumResult sim, sock;
  for (auto _ : state) {
    sim = RunQuorumSim();
    sock = RunQuorumSocket();
  }
  state.counters["sim_write_ok"] = double(sim.write_ok);
  state.counters["sim_read_ok"] = double(sim.read_ok);
  state.counters["sim_acked_writes"] = double(sim.acked_writes);
  state.counters["sim_acked_writes_lost"] = double(sim.acked_writes_lost);
  state.counters["sock_write_ok"] = double(sock.write_ok);
  state.counters["sock_read_ok"] = double(sock.read_ok);
  state.counters["sock_acked_writes"] = double(sock.acked_writes);
  state.counters["sock_acked_writes_lost"] = double(sock.acked_writes_lost);
  // Result parity: identical quorum outcomes on both backends, zero
  // acked-write loss anywhere, and the socket run actually finished.
  const bool parity = sock.completed && sim.write_ok == sock.write_ok &&
                      sim.read_ok == sock.read_ok &&
                      sim.acked_writes == sock.acked_writes &&
                      sim.acked_writes_lost == 0 &&
                      sock.acked_writes_lost == 0;
  state.counters["parity_ok"] = parity ? 1.0 : 0.0;
  if (!parity) {
    state.SkipWithError("sim/socket quorum results diverged");
  }
  const double ops = double(sock.write_attempts + sock.read_attempts);
  state.counters["sock_wall_s"] = sock.elapsed_s;
  state.counters["sock_ops_per_s"] =
      sock.elapsed_s > 0 ? ops / sock.elapsed_s : 0.0;
  state.counters["sock_write_p50_ms"] = sock.write_p50_ms;
  state.counters["sock_write_p99_ms"] = sock.write_p99_ms;
  state.counters["sock_read_p50_ms"] = sock.read_p50_ms;
  state.counters["sock_read_p99_ms"] = sock.read_p99_ms;
  state.counters["sim_write_p99_ms"] = sim.write_p99_ms;
  state.counters["sim_read_p99_ms"] = sim.read_p99_ms;
  state.counters["sock_net_messages"] = double(sock.net_messages);
}
BENCHMARK(BM_TransportQuorumParity)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// ------------------------------------------------------ fan-out workload

struct FanoutResult {
  uint64_t sent = 0;
  uint64_t delivered = 0;  // summed from the sinks' own counters
  double elapsed_s = 0;
  bool completed = true;
};

/// In-sim baseline: the same spray through the simulated network.
FanoutResult RunFanoutSim() {
  net::Simulator sim;
  net::Network net(&sim);
  net.default_link().latency = 500;
  net.default_link().bandwidth_bytes_per_sec = 0;
  FanoutResult out;
  net::NodeId driver = net.AddNode([](const net::Message&) {});
  std::vector<net::NodeId> sinks;
  for (int i = 0; i < kSinks; ++i) {
    sinks.push_back(net.AddNode([&](const net::Message&) { ++out.delivered; }));
  }
  const std::string payload(kFanPayload, 'e');
  for (int round = 0; round < kFanPerSink; ++round) {
    for (net::NodeId sink : sinks) {
      net::Message m;
      m.from = driver;
      m.to = sink;
      m.type = 1;
      m.payload = payload;
      if (net.Send(std::move(m)).ok()) ++out.sent;
    }
  }
  sim.Run();
  return out;
}

/// Socket run: six sinks in two `deluge_node` children; delivery is
/// audited end-to-end by querying each sink's counters over the wire.
FanoutResult RunFanoutSocket() {
  TempDir dir;
  net::ClusterConfig cfg;
  cfg.processes.push_back({0, {"", 0, dir.path + "/driver.sock"}});
  cfg.processes.push_back({1, {"", 0, dir.path + "/host1.sock"}});
  cfg.processes.push_back({2, {"", 0, dir.path + "/host2.sock"}});
  cfg.nodes.push_back({0, 0, "driver", ""});
  for (int i = 0; i < kSinks; ++i) {
    cfg.nodes.push_back({net::NodeId(1 + i), uint32_t(1 + i / 3), "sink", ""});
  }
  const std::string cfg_path = dir.path + "/cluster.cfg";
  FanoutResult out;
  if (!cfg.Save(cfg_path).ok()) {
    out.completed = false;
    return out;
  }
  const std::string bin = NodeHostBinary();
  std::vector<pid_t> children;
  children.push_back(SpawnNodeHost(bin, cfg_path, 1));
  children.push_back(SpawnNodeHost(bin, cfg_path, 2));

  ThreadPool pool(1);  // the transport's event loop
  net::SocketTransportOptions topts;
  topts.config = cfg;
  topts.local_process = 0;
  topts.pool = &pool;
  net::SocketTransport transport(std::move(topts));
  // Per-sink counters as last reported by the sinks themselves.
  std::vector<std::unique_ptr<std::atomic<uint64_t>>> reported;
  for (int i = 0; i < kSinks; ++i) {
    reported.push_back(std::make_unique<std::atomic<uint64_t>>(0));
  }
  net::NodeId driver =
      transport.AddNode([&](const net::Message& m) {
        if (m.type != net::kSinkCountResp) return;
        std::string_view payload(m.payload);
        uint64_t msgs = 0, bytes = 0;
        if (!storage::GetFixed64(&payload, &msgs) ||
            !storage::GetFixed64(&payload, &bytes)) {
          return;
        }
        if (m.from >= 1 && m.from <= net::NodeId(kSinks)) {
          reported[m.from - 1]->store(msgs, std::memory_order_release);
        }
      });
  if (!transport.Start().ok()) {
    out.completed = false;
    StopNodeHosts(&children);
    return out;
  }

  // Spray.  Send is thread-safe, so the driver pumps from this thread;
  // a full queue (Unavailable) backpressures via retry.
  const std::string payload(kFanPayload, 'e');
  const auto wall_start = std::chrono::steady_clock::now();
  for (int round = 0; round < kFanPerSink; ++round) {
    for (int i = 0; i < kSinks; ++i) {
      net::Message m;
      m.from = driver;
      m.to = net::NodeId(1 + i);
      m.type = 1;
      m.payload = payload;
      while (!transport.Send(m).ok()) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      ++out.sent;
    }
  }

  // Audit: poll the sinks until every spray message is accounted for.
  const uint64_t expect_per_sink = kFanPerSink;
  const auto poll = [&] {
    uint64_t total = 0;
    bool all = true;
    for (int i = 0; i < kSinks; ++i) {
      const uint64_t got = reported[i]->load(std::memory_order_acquire);
      total += got;
      if (got < expect_per_sink) {
        all = false;
        net::Message req;
        req.from = driver;
        req.to = net::NodeId(1 + i);
        req.type = net::kSinkCountReq;
        transport.Send(std::move(req));
      }
    }
    out.delivered = total;
    return all;
  };
  if (!WaitUntil(poll, 60000)) out.completed = false;
  out.elapsed_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - wall_start)
                      .count();
  transport.Stop();
  StopNodeHosts(&children);
  return out;
}

void BM_TransportFanout(benchmark::State& state) {
  FanoutResult sim, sock;
  for (auto _ : state) {
    sim = RunFanoutSim();
    sock = RunFanoutSocket();
  }
  state.counters["sim_sent"] = double(sim.sent);
  state.counters["sim_delivered"] = double(sim.delivered);
  state.counters["sock_sent"] = double(sock.sent);
  state.counters["sock_delivered"] = double(sock.delivered);
  const bool parity = sock.completed && sim.delivered == sim.sent &&
                      sock.delivered == sock.sent &&
                      sim.sent == sock.sent;
  state.counters["parity_ok"] = parity ? 1.0 : 0.0;
  if (!parity) state.SkipWithError("fan-out delivery audit failed");
  state.counters["sock_wall_s"] = sock.elapsed_s;
  state.counters["sock_msgs_per_s"] =
      sock.elapsed_s > 0 ? double(sock.sent) / sock.elapsed_s : 0.0;
  state.counters["sock_mbytes_per_s"] =
      sock.elapsed_s > 0 ? double(sock.sent) *
                               double(kFanPayload + net::kFrameOverheadBytes) /
                               (1e6 * sock.elapsed_s)
                         : 0.0;
}
BENCHMARK(BM_TransportFanout)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

DELUGE_BENCH_MAIN();
