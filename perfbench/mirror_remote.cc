// mirror_remote: open-loop sensed updates mirrored to remote viewers and
// committed to a replicated store across real sockets.
//
// Ticks of sensed updates fall due every 10 ms on a fixed wall-clock
// schedule (open loop: a stall delays later ticks, it does not thin
// them).  Each tick goes through a 1-shard `core::ParallelEngine` (no
// pool: the engine runs on the driver thread).  Every mirror refresh then
// goes two ways:
//  (a) a regional watcher encodes the `pubsub::Event` once and sends it
//      over `net::SocketTransport` to the viewer endpoint that watches
//      the region (8 viewers in two child processes);
//  (b) a world-wide watcher queues it, and when the tick's IngestBatch
//      returns the driver posts the tick's writes to the transport strand
//      as `replica::ReplicatedStore::Put`s (N=3, R=W=2) to six replicas in
//      those children (viewer frames of a tick go out before its writes).  Each replica
//      owns an LSM `storage::KVStore` with sync_wal=true: every replica
//      apply is fdatasync'ed before it acks, so a commit means the record
//      is on disk at W=2 replicas.
// The driver process runs 4 threads: itself plus the transport's event
// loop and one sender per child.
//
// Latencies start at the update's due time, which rides
// `SensedUpdate::t` into `Event::published_at`; the children read the
// same CLOCK_MONOTONIC, so "arrival − due" needs no clock sync.
//
// Audits: every viewer must report exactly the events sent to it (count
// and order-free hash), and an R=N read of every acked key must return
// the acked version and value (zero acked-write loss).
//
// Driver histograms: h[0] due → W-quorum ack, h[1] Put → ack,
// h[2] generator lag, h[3] IngestBatch, h[4] watcher callback body,
// h[5] Event::EnsureEncoded, h[6] SocketTransport::Send, all in the
// window of the update's due time; h[7] due → W-quorum ack in the window
// the ack arrived in (its count is the window's commit rate, which falls
// below the offered load only when a backlog grows).
// Child histograms: h[0] due → viewer callback; backing Puts per phase.

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#if defined(__linux__)
#include <sys/prctl.h>
#endif

#include "common.h"
#include "common/hash.h"
#include "common/thread_pool.h"
#include "core/parallel_engine.h"
#include "core/sensors.h"
#include "net/node_config.h"
#include "net/socket_transport.h"
#include "replica/backing.h"
#include "replica/node.h"
#include "replica/replicated_store.h"

namespace perfbench {
namespace {

using namespace deluge;  // NOLINT

// Application message types (below the transport's reserved range, clear
// of the replica protocol's 0x52xx).
constexpr uint32_t kMsgEvent = 0x7B01;
constexpr uint32_t kCtlPing = 0x7B02;
constexpr uint32_t kCtlPong = 0x7B03;
constexpr uint32_t kCtlPhase = 0x7B04;
constexpr uint32_t kCtlFinish = 0x7B05;
constexpr uint32_t kCtlDone = 0x7B06;

constexpr int kChildren = 2;
constexpr int kViewersPerChild = 4;
constexpr int kReplicasPerChild = 3;
constexpr int64_t kTickNs = 10'000'000;  // 10 ms
/// The fixed offered load, sensed updates per second (see README.md for
/// how it was chosen from the seed code's highest sustainable rate).
constexpr double kRate = 25000;
constexpr int kSetups = 3;
constexpr int kWarmupTicks = 30;
constexpr int kSendAttempts = 2000;  // × 50 µs backoff when a queue is full
constexpr Micros kReplicaTimeout = 5 * kMicrosPerSecond;  // per attempt

enum : size_t {
  kQuorumNs = 0, kPutNs = 1, kLagNs = 2, kIngestNs = 3,
  kCallbackNs = 4, kEncodeNs = 5, kSendNs = 6, kAckedNs = 7,
};
enum : size_t { kRemoteNs = 0 };

const geo::AABB kWorld({0, 0, 0}, {2000, 2000, 100});

/// Join key of one (event, viewer) pair, identical in both processes.
uint64_t SampleKey(uint64_t entity, int64_t published_at, net::NodeId viewer) {
  return Mix64(Mix64(entity * 0x9E3779B97F4A7C15ull ^ uint64_t(published_at)) ^
               viewer);
}
bool Sampled(uint64_t key) { return (key & 7) == 0; }

std::string ResultPath(const std::string& dir, uint32_t process) {
  return dir + "/child" + std::to_string(process) + ".res";
}
std::string ReadyPath(const std::string& dir, uint32_t process) {
  return dir + "/ready" + std::to_string(process);
}

// ===================================================================== child

volatile std::sig_atomic_t g_child_stop = 0;
void OnChildSignal(int) { g_child_stop = 1; }

/// `replica::Backing` decorator timing every `Put` (the replica apply:
/// WAL append + fdatasync + memtable insert of `KVStoreBacking`).
class TimingBacking : public replica::Backing {
 public:
  TimingBacking(std::unique_ptr<replica::Backing> inner,
                std::function<LatHist*()> hist)
      : inner_(std::move(inner)), hist_(std::move(hist)) {}

  Status Put(const std::string& key, const std::string& record) override {
    const int64_t t0 = NowNs();
    Status s = inner_->Put(key, record);
    hist_()->Record(NowNs() - t0);
    return s;
  }
  Status Get(const std::string& key, std::string* record) override {
    return inner_->Get(key, record);
  }
  Status Delete(const std::string& key) override { return inner_->Delete(key); }
  Status Scan(const std::string& prefix, const ScanFn& fn) override {
    return inner_->Scan(prefix, fn);
  }

 private:
  std::unique_ptr<replica::Backing> inner_;
  std::function<LatHist*()> hist_;
};

/// Everything a child records; touched only on its transport strand.
struct ChildState {
  std::string dir;
  uint32_t process = 0;
  net::SocketTransport* transport = nullptr;
  net::NodeId ctl = 0;
  int phase = 0;
  /// Per phase: windows of the remote-callback latency.
  std::map<int, std::unique_ptr<Windows>> windows;
  std::map<int, LatHist> backing;
  std::map<net::NodeId, std::pair<uint64_t, uint64_t>> viewers;  // count, sum
  std::vector<std::pair<uint64_t, int64_t>> samples;
  uint64_t bad = 0;

  void OnViewer(net::NodeId self, const net::Message& m) {
    const int64_t arrival = NowNs();
    pubsub::Event ev;
    if (m.type != kMsgEvent || !pubsub::Event::Decode(m.payload.slice(), &ev)) {
      ++bad;
      return;
    }
    const uint64_t entity = std::strtoull(ev.payload.key.c_str(), nullptr, 10);
    const int64_t due_ns = ev.published_at * 1000;
    auto it = windows.find(phase);
    if (it != windows.end()) {
      it->second->At(due_ns).Local().h[kRemoteNs].Record(arrival - due_ns);
    }
    const geo::Vec3 p = ev.position.value_or(geo::Vec3{});
    auto& v = viewers[self];
    v.first += 1;
    v.second += DeliveryHash(entity, ev.published_at, p.x, p.y);
    const uint64_t key = SampleKey(entity, ev.published_at, self);
    if (Sampled(key)) samples.emplace_back(key, arrival);
  }

  void OnControl(const net::Message& m) {
    net::Message reply;
    reply.from = ctl;
    reply.to = m.from;
    if (m.type == kCtlPing) {
      reply.type = kCtlPong;
    } else if (m.type == kCtlPhase) {
      long long start = 0, end = 0;
      std::sscanf(m.payload.ToString().c_str(), "%d %lld %lld", &phase, &start,
                  &end);
      windows[phase] = std::make_unique<Windows>(start, end);
      return;
    } else if (m.type == kCtlFinish) {
      reply.type = kCtlDone;
      WriteResults();
    } else {
      return;
    }
    transport->Send(std::move(reply));
  }

  void WriteResults() const {
    std::ofstream out(ResultPath(dir, process));
    out << "rss " << PeakRssMb() << "\n";
    out << "bad " << bad << "\n";
    for (const auto& [node, v] : viewers) {
      out << "viewer " << node << ' ' << v.first << ' ' << v.second << "\n";
    }
    for (const auto& [ph, w] : windows) {
      for (size_t i = 0; i < w->size(); ++i) {
        const Slot s = w->Window(i);
        out << "remote " << ph << ' ' << i << ' ' << s.h[kRemoteNs].Serialize()
            << "\n";
      }
    }
    for (const auto& [ph, h] : backing) {
      out << "backing " << ph << ' ' << h.Serialize() << "\n";
    }
    for (const auto& [key, t] : samples) {
      out << "sample " << key << ' ' << t << "\n";
    }
  }
};

// ==================================================================== driver

pid_t SpawnChild(const std::string& config, uint32_t process,
                 const std::string& dir) {
  char self[4096];
  const ssize_t n = ::readlink("/proc/self/exe", self, sizeof(self) - 1);
  if (n <= 0) return -1;
  self[n] = '\0';
  const std::string proc = std::to_string(process);
  const pid_t pid = ::fork();
  if (pid == 0) {
    const int devnull = ::open("/dev/null", O_WRONLY);
    if (devnull >= 0) ::dup2(devnull, STDOUT_FILENO);
    ::execl(self, self, "--child", "--config", config.c_str(), "--process",
            proc.c_str(), "--dir", dir.c_str(), static_cast<char*>(nullptr));
    ::_exit(127);
  }
  return pid;
}

void StopChildren(std::vector<pid_t>* pids) {
  for (pid_t pid : *pids) {
    if (pid > 0) ::kill(pid, SIGTERM);
  }
  const int64_t deadline = NowNs() + 5'000'000'000;
  for (pid_t pid : *pids) {
    if (pid <= 0) continue;
    while (::waitpid(pid, nullptr, WNOHANG) == 0) {
      if (NowNs() > deadline) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, nullptr, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  pids->clear();
}

bool WaitFor(const std::function<bool()>& pred, int64_t timeout_ms) {
  const int64_t deadline = NowNs() + timeout_ms * 1'000'000;
  while (!pred()) {
    if (NowNs() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

/// The blocking path of one traced tick's sampled update: its
/// timestamps, and the watcher-callback spans recorded inside the tick's
/// IngestBatch (children of `ingest_span`).
struct PathMark {
  uint64_t req = 0, ingest_span = 0;
  int64_t due = 0, fire = 0, ingest0 = 0, ingest1 = 0;
  int64_t task0 = 0, put0 = 0, put1 = 0;
  std::vector<SpanRec> callbacks;
};

/// A refresh waiting for the end of its tick to be written.
struct PendingPut {
  std::string key, value;
  std::shared_ptr<PathMark> mark;  // one update per traced tick
};

/// One set-up cluster: two children, the driver's transport, store,
/// engine and fleet.  Member order is teardown order in reverse: the
/// pool outlives the transport, the transport outlives the store.
struct Mirror {
  explicit Mirror(const Args& args, const std::string& dir, size_t entities);
  ~Mirror();
  Mirror(const Mirror&) = delete;
  Mirror& operator=(const Mirror&) = delete;

  bool ok = false;
  std::string dir;
  ThreadPool pool{1 + kChildren};  // event loop + one sender per child
  std::vector<pid_t> children;
  std::unique_ptr<net::SocketTransport> transport;
  std::unique_ptr<replica::ReplicatedStore> store;
  net::NodeId client = 0;
  std::vector<net::NodeId> ctl_nodes, viewer_nodes;
  std::unique_ptr<core::ParallelEngine> engine;
  std::unique_ptr<core::SensorFleet> fleet;
  std::vector<core::SensedUpdate> batch;

  // Main-thread state (the engine delivers inline on the driver thread).
  std::vector<uint64_t> sent_count, sent_sum;
  Windows* win = nullptr;  // window set of the current tick
  int phase = 0;
  bool tracing = false;
  int64_t due_ns = 0;
  uint64_t last_encoded = 0;  // event key whose encode was timed
  uint64_t refreshes = 0, send_retries = 0, send_failures = 0;
  uint64_t max_inflight = 0;  // backlog probe, sampled once per tick
  bool drop_one = false;
  std::vector<PendingPut> tick_puts;
  // Traced ticks: the tick's request id, its IngestBatch span, and the
  // watcher-callback spans recorded inside that span.
  uint64_t next_req = 1, tick_req = 0, ingest_span = 0;
  std::vector<SpanRec> tick_spans;

  // Strand-owned state.
  std::unordered_map<std::string, std::pair<replica::Version, uint64_t>> acked;
  std::atomic<uint64_t> inflight{0}, put_failures{0};
  std::atomic<int> pongs{0}, dones{0};

  void Tick(int64_t due, Windows* w, int tick_phase, bool trace_tick);
  void OnViewerDelivery(size_t v, const pubsub::Event& ev);
  void OnStoreDelivery(const pubsub::Event& ev);
  /// Hands the tick's refreshes to the strand as one task of quorum
  /// writes, after the tick's viewer fan-out has been sent.
  void FlushPuts(int64_t fire, int64_t ingest0, int64_t ingest1);
  /// Quorum ack on the transport strand.
  void OnAck(const Status& s, const replica::Version& ver,
             const std::string& key, uint64_t value_hash, Windows* w,
             int64_t due, int64_t put0, bool trace_phase,
             const PathMark* mark);
  void SendControl(uint32_t type, const std::string& payload);
  bool Drain(int64_t timeout_ms) {
    return WaitFor([this] { return inflight.load() == 0; }, timeout_ms);
  }
};

Mirror::Mirror(const Args& args, const std::string& run_dir, size_t entities)
    : dir(run_dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  net::ClusterConfig cfg;
  for (uint32_t p = 0; p <= kChildren; ++p) {
    cfg.processes.push_back(
        {p, {"", 0, dir + "/p" + std::to_string(p) + ".sock"}});
  }
  net::NodeId id = 0;
  cfg.nodes.push_back({id++, 0, "driver", "coordinator"});
  cfg.nodes.push_back({id++, 0, "driver", "client"});
  for (uint32_t p = 1; p <= kChildren; ++p) {
    ctl_nodes.push_back(id);
    cfg.nodes.push_back({id++, p, "ctl", ""});
    for (int v = 0; v < kViewersPerChild; ++v) {
      viewer_nodes.push_back(id);
      cfg.nodes.push_back({id++, p, "viewer", ""});
    }
    for (int r = 0; r < kReplicasPerChild; ++r) {
      const int idx = int(p - 1) * kReplicasPerChild + r;
      cfg.nodes.push_back({id++, p, "replica", "r" + std::to_string(idx)});
    }
  }
  const std::string cfg_path = dir + "/cluster.cfg";
  if (!cfg.Save(cfg_path).ok()) return;
  for (uint32_t p = 1; p <= kChildren; ++p) {
    children.push_back(SpawnChild(cfg_path, p, dir));
  }

  net::SocketTransportOptions topts;
  topts.config = cfg;
  topts.local_process = 0;
  topts.pool = &pool;
  topts.seed = args.seed;
  transport = std::make_unique<net::SocketTransport>(std::move(topts));
  replica::ReplicaOptions ropts;
  ropts.n = 3;
  ropts.r = 2;
  ropts.w = 2;
  ropts.seed = args.seed;
  // A stall of the shared host (seconds of stolen CPU or slow fsyncs)
  // should delay writes, not fail them or trigger a retry storm: every
  // write must commit for the run to count.
  ropts.write_timeout = kReplicaTimeout;
  ropts.read_timeout = kReplicaTimeout;
  // Coordinator first: its AddNode takes the config's first node.
  store = std::make_unique<replica::ReplicatedStore>(transport.get(), nullptr,
                                                     ropts);
  client = transport->AddNode([this](const net::Message& m) {
    if (m.type == kCtlPong) pongs.fetch_add(1);
    if (m.type == kCtlDone) dones.fetch_add(1);
  });
  for (const net::NodeSpec& n : cfg.nodes) {
    if (n.role == "replica") store->AddRemoteReplica(n.name, n.node);
  }
  if (!transport->Start().ok()) return;

  // Connect only once every child listens (a refused connect would sit
  // out the transport's 20 ms reconnect backoff), then complete one
  // round trip per child so both directions are connected before timing.
  if (!WaitFor(
          [&] {
            for (uint32_t p = 1; p <= kChildren; ++p) {
              if (!std::filesystem::exists(ReadyPath(dir, p))) return false;
            }
            return true;
          },
          20000)) {
    return;
  }
  SendControl(kCtlPing, "");
  if (!WaitFor([this] { return pongs.load() == kChildren; }, 20000)) return;

  core::ParallelEngineOptions eopts;
  eopts.engine.world_bounds = kWorld;
  eopts.engine.default_contract = {2.0, kMicrosPerSecond};
  eopts.num_shards = 1;
  engine = std::make_unique<core::ParallelEngine>(eopts, nullptr);
  core::SensorFleetOptions fopts;
  fopts.num_entities = entities;
  fopts.max_speed = 5.0;
  fopts.seed = args.seed;
  fleet = std::make_unique<core::SensorFleet>(kWorld, fopts);
  for (size_t i = 0; i < entities; ++i) {
    core::Entity e;
    e.id = core::EntityId(i + 1);
    e.position = fleet->TruePosition(e.id);
    engine->SpawnPhysical(e);
  }
  // Viewers tile the world 4 × 2; one more watcher covers it all and
  // feeds the replicated store.
  const size_t nv = viewer_nodes.size();
  const double sx = (kWorld.max.x - kWorld.min.x) / double(nv / 2);
  const double sy = (kWorld.max.y - kWorld.min.y) / 2.0;
  for (size_t v = 0; v < nv; ++v) {
    const double x0 = kWorld.min.x + double(v % (nv / 2)) * sx;
    const double y0 = kWorld.min.y + double(v / (nv / 2)) * sy;
    engine->WatchRegion(
        viewer_nodes[v],
        geo::AABB({x0, y0, kWorld.min.z}, {x0 + sx, y0 + sy, kWorld.max.z}),
        [this, v](net::NodeId, const pubsub::Event& ev) {
          OnViewerDelivery(v, ev);
        });
  }
  engine->WatchRegion(client, kWorld,
                      [this](net::NodeId, const pubsub::Event& ev) {
                        OnStoreDelivery(ev);
                      });
  sent_count.assign(nv, 0);
  sent_sum.assign(nv, 0);
  ok = true;
}

Mirror::~Mirror() {
  if (transport != nullptr) transport->Stop();
  store.reset();
  transport.reset();
  StopChildren(&children);
}

void Mirror::SendControl(uint32_t type, const std::string& payload) {
  for (net::NodeId ctl : ctl_nodes) {
    net::Message m;
    m.from = client;
    m.to = ctl;
    m.type = type;
    m.payload = std::string(payload);
    transport->Send(std::move(m));
  }
}

void Mirror::Tick(int64_t due, Windows* w, int tick_phase, bool trace_tick) {
  SleepUntilNs(due);
  const int64_t fire = NowNs();
  due_ns = due;
  win = w;
  phase = tick_phase;
  tracing = trace_tick;
  if (tracing) {
    tick_req = next_req++;
    ingest_span = NextSpanId();
    tick_spans.clear();
  }
  Slot& slot = w->At(due).Local();
  slot.h[kLagNs].Record(fire - due);
  const Micros due_us = due / 1000;
  batch.clear();
  for (const core::SensorReading& r : fleet->Tick(kTickNs / 1000, due_us)) {
    batch.push_back({r.entity, r.position, due_us, QosClass::kRealtime});
  }
  const int64_t t0 = NowNs();
  engine->IngestBatch(batch);
  const int64_t t1 = NowNs();
  slot.h[kIngestNs].Record(t1 - t0);
  FlushPuts(fire, t0, t1);
  max_inflight = std::max<uint64_t>(max_inflight, inflight.load());
  slot.ops += batch.size();
}

void Mirror::OnViewerDelivery(size_t v, const pubsub::Event& ev) {
  const int64_t t0 = NowNs();
  const uint64_t entity = std::strtoull(ev.payload.key.c_str(), nullptr, 10);
  const uint64_t ev_key = SampleKey(entity, ev.published_at, 0);
  const common::Buffer& encoded = ev.EnsureEncoded();
  const int64_t t1 = NowNs();
  net::Message m;
  m.from = client;
  m.to = viewer_nodes[v];
  m.type = kMsgEvent;
  m.payload = encoded;  // shared, not copied
  const geo::Vec3 p = ev.position.value_or(geo::Vec3{});
  sent_count[v] += 1;
  sent_sum[v] += DeliveryHash(entity, ev.published_at, p.x, p.y);
  if (drop_one && phase > 0) {  // planted fault: counted, never sent
    drop_one = false;
    return;
  }
  int attempts = 0;
  while (!transport->Send(m).ok()) {
    if (++attempts >= kSendAttempts) {
      ++send_failures;
      break;
    }
    ++send_retries;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  const int64_t t2 = NowNs();
  if (tracing) {
    Slot& s = win->At(due_ns).Local();
    if (last_encoded != ev_key) s.h[kEncodeNs].Record(t1 - t0);
    s.h[kSendNs].Record(t2 - t1);
    s.h[kCallbackNs].Record(t2 - t0);
    const uint64_t key = SampleKey(entity, ev.published_at, viewer_nodes[v]);
    if (Sampled(key)) s.samples.emplace_back(key, t1);
    const uint64_t cb = NextSpanId();
    tick_spans.push_back({tick_req, cb, ingest_span, "pubsub",
                          "viewer_watcher_callback", t0, t2});
    tick_spans.push_back({tick_req, NextSpanId(), cb, "pubsub",
                          "Event::EnsureEncoded", t0, t1});
    tick_spans.push_back({tick_req, NextSpanId(), cb, "net",
                          "SocketTransport::Send", t1, t2});
  }
  last_encoded = ev_key;
}

void Mirror::OnStoreDelivery(const pubsub::Event& ev) {
  const int64_t t0 = NowNs();
  const uint64_t entity = std::strtoull(ev.payload.key.c_str(), nullptr, 10);
  const uint64_t ev_key = SampleKey(entity, ev.published_at, 0);
  PendingPut put;
  put.key = "e" + std::to_string(entity);
  put.value = ev.EnsureEncoded().ToString();
  const int64_t t1 = NowNs();
  if (phase > 0) ++refreshes;
  inflight.fetch_add(1);
  tick_puts.push_back(std::move(put));
  const int64_t t2 = NowNs();
  if (tracing) {
    Slot& s = win->At(due_ns).Local();
    if (last_encoded != ev_key) s.h[kEncodeNs].Record(t1 - t0);
    s.h[kCallbackNs].Record(t2 - t0);
    tick_spans.push_back({tick_req, NextSpanId(), ingest_span, "pubsub",
                          "store_watcher_callback", t0, t2});
  }
  last_encoded = ev_key;
}

void Mirror::FlushPuts(int64_t fire, int64_t ingest0, int64_t ingest1) {
  if (tick_puts.empty()) return;
  if (tracing) {
    // Every write of the tick waits for the whole IngestBatch, so one
    // update per tick, picked by its due time, stands for the tick.
    auto mark = std::make_shared<PathMark>();
    mark->req = tick_req;
    mark->ingest_span = ingest_span;
    mark->due = due_ns;
    mark->fire = fire;
    mark->ingest0 = ingest0;
    mark->ingest1 = ingest1;
    mark->callbacks = std::move(tick_spans);
    tick_spans.clear();
    tick_puts[Mix64(uint64_t(due_ns)) % tick_puts.size()].mark =
        std::move(mark);
  }
  transport->Post([this, puts = std::move(tick_puts), w = win, due = due_ns,
                   trace_phase = tracing] {
    const int64_t task0 = NowNs();
    for (const PendingPut& p : puts) {
      const uint64_t vh = Hash64(p.value);
      const int64_t p0 = NowNs();
      if (p.mark != nullptr) {
        p.mark->task0 = task0;
        p.mark->put0 = p0;
      }
      store->Put(p.key, p.value, {},
                 [this, key = p.key, vh, w, due, p0, trace_phase,
                  mark = p.mark](const Status& s, replica::Version ver) {
                   OnAck(s, ver, key, vh, w, due, p0, trace_phase, mark.get());
                 });
      if (p.mark != nullptr) p.mark->put1 = NowNs();
    }
  });
  tick_puts.clear();
}

void Mirror::OnAck(const Status& s, const replica::Version& ver,
                   const std::string& key, uint64_t value_hash, Windows* w,
                   int64_t due, int64_t put0, bool trace_phase,
                   const PathMark* mark) {
  const int64_t ack = NowNs();
  if (!s.ok()) {
    put_failures.fetch_add(1);
    inflight.fetch_sub(1);
    return;
  }
  Slot& slot = w->At(due).Local();
  slot.h[kQuorumNs].Record(ack - due);
  if (w->Contains(ack)) w->At(ack).Local().h[kAckedNs].Record(ack - due);
  if (trace_phase) slot.h[kPutNs].Record(ack - put0);
  auto& a = acked[key];
  if (a.first < ver) a = {ver, value_hash};
  if (mark != nullptr) {
    const uint64_t req = mark->req;
    const uint64_t root = NextSpanId();
    auto& sp = slot.spans;
    sp.push_back({req, root, 0, "", "due_to_quorum_ack", mark->due, ack});
    sp.push_back({req, NextSpanId(), root, "driver", "generator_wait",
                  mark->due, mark->fire});
    sp.push_back({req, NextSpanId(), root, "driver", "generate_input",
                  mark->fire, mark->ingest0});
    sp.push_back({req, mark->ingest_span, root, "core",
                  "ParallelEngine::IngestBatch", mark->ingest0,
                  mark->ingest1});
    sp.insert(sp.end(), mark->callbacks.begin(), mark->callbacks.end());
    sp.push_back({req, NextSpanId(), root, "net",
                  "SocketTransport::Post_to_strand", mark->ingest1,
                  mark->task0});
    sp.push_back({req, NextSpanId(), root, "replica",
                  "ReplicatedStore::Put_earlier_in_tick", mark->task0,
                  mark->put0});
    sp.push_back({req, NextSpanId(), root, "replica", "ReplicatedStore::Put",
                  mark->put0, mark->put1});
  }
  inflight.fetch_sub(1);
}

}  // namespace

// ------------------------------------------------------------- child entry

int RunMirrorChild(int argc, char** argv) {
  std::string config_path, dir;
  uint32_t process = 0;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string a = argv[i];
    if (a == "--config") config_path = argv[i + 1];
    if (a == "--process") process = uint32_t(std::strtoul(argv[i + 1], nullptr, 10));
    if (a == "--dir") dir = argv[i + 1];
  }
  net::ClusterConfig config;
  if (!net::ClusterConfig::Load(config_path, &config).ok() ||
      config.process(process) == nullptr) {
    return 2;
  }
#if defined(__linux__)
  ::prctl(PR_SET_PDEATHSIG, SIGTERM);
#endif
  std::signal(SIGTERM, OnChildSignal);
  std::signal(SIGINT, OnChildSignal);
  std::signal(SIGPIPE, SIG_IGN);

  ThreadPool pool(config.processes.size() + 1);
  ThreadPool background(1);  // flushes/compactions of this child's stores
  net::SocketTransportOptions opts;
  opts.config = config;
  opts.local_process = process;
  opts.pool = &pool;
  net::SocketTransport transport(std::move(opts));
  ChildState state;
  state.dir = dir;
  state.process = process;
  state.transport = &transport;
  std::vector<std::unique_ptr<replica::ReplicaNode>> replicas;
  for (net::NodeId id : config.nodes_of(process)) {
    const net::NodeSpec* spec = config.node(id);
    if (spec->role == "replica") {
      storage::KVStoreOptions so;
      so.dir = dir + "/store-" + spec->name;
      so.sync_wal = true;
      so.background_pool = &background;
      auto backing = replica::KVStoreBacking::Open(so);
      if (!backing.ok()) return 3;
      auto timed = std::make_unique<TimingBacking>(
          std::move(backing).value(),
          [&state] { return &state.backing[state.phase]; });
      replicas.push_back(std::make_unique<replica::ReplicaNode>(
          replica::ReplicaNode::RingIdFor(spec->name), &transport,
          std::move(timed)));
    } else if (spec->role == "viewer") {
      transport.AddNode([&state, id](const net::Message& m) {
        state.OnViewer(id, m);
      });
    } else {
      state.ctl = transport.AddNode(
          [&state](const net::Message& m) { state.OnControl(m); });
    }
  }
  if (!transport.Start().ok()) return 4;
  { std::ofstream ready(ReadyPath(dir, process)); }
  while (g_child_stop == 0 && transport.running()) {
    ::usleep(20 * 1000);
  }
  transport.Stop();
  return 0;
}

// ------------------------------------------------------------ driver entry

int RunMirrorRemote(const Args& args, Result* out) {
  std::signal(SIGPIPE, SIG_IGN);
  const size_t entities = size_t(kRate * double(kTickNs) / 1e9);
  const std::string root =
      args.work_dir + "/mirror_remote-" + std::to_string(::getpid());

  std::vector<double> setup_s;
  std::unique_ptr<Mirror> m;
  for (int i = 0; i < kSetups; ++i) {
    m.reset();
    const int64_t t0 = NowNs();
    m = std::make_unique<Mirror>(args, root + "/c" + std::to_string(i),
                                 entities);
    if (!m->ok) {
      std::fprintf(stderr, "mirror_remote: cluster set-up failed\n");
      return 1;
    }
    // Warm-up: a short stretch of the schedule, fully drained.
    Windows warm(NowNs(), NowNs() + 1);
    int64_t due = NowNs();
    for (int k = 0; k < kWarmupTicks; ++k, due += kTickNs) {
      m->Tick(due, &warm, 0, false);
    }
    if (!m->Drain(20000)) {
      std::fprintf(stderr, "mirror_remote: warm-up did not drain\n");
      return 1;
    }
    setup_s.push_back(double(NowNs() - t0) / 1e9);
  }
  Mirror& c = *m;
  if (args.fault == "drop_event") c.drop_one = true;

  // Timed phase on the fixed schedule; a traced run records spans in its
  // second half.  Children learn each phase's window grid in-band (same
  // FIFO stream as the events), so they bucket arrivals by due time
  // exactly as the driver does.
  const int64_t start = (NowNs() / 1000 + 2000) * 1000;
  const int64_t end = start + int64_t(args.seconds * 1e9);
  const int64_t mid = args.trace ? start + (end - start) / 2 : end;
  Windows wa(start, mid), wb(mid, end);
  c.SendControl(kCtlPhase, "1 " + std::to_string(start) + " " +
                               std::to_string(mid));
  const int64_t threads_probe_at = start + (mid - start) / 2;
  int threads = 0;
  int64_t due = start;
  for (; due < mid; due += kTickNs) {
    wa.SampleSteal(NowNs());
    c.Tick(due, &wa, 1, false);
    if (threads == 0 && due >= threads_probe_at) threads = ThreadCount();
  }
  SleepUntilNs(mid);  // the closing steal sample ends the last window
  wa.SampleSteal(NowNs());
  const core::EngineStats es_mid = c.engine->TotalStats();
  const pubsub::BrokerStats bs_mid = c.engine->TotalBrokerStats();
  const auto registry_sum = [](const char* name) {
    double sum = 0;
    for (const obs::MetricSample& s : obs::MetricsRegistry::Global().Snapshot()) {
      if (s.name == name) sum += s.value;
    }
    return sum;
  };
  const double frames_mid = registry_sum("transport.frames_sent");
  const double wire_mid = registry_sum("transport.wire_bytes_sent");
  const double msgs_mid = registry_sum("transport.messages_sent");
  const double reconn_mid = registry_sum("transport.reconnects");
  const double wretry_mid = registry_sum("replica.write_retries");
  const uint64_t refresh_mid = c.refreshes;
  const uint64_t retries_mid = c.send_retries;
  uint64_t sends_mid = 0;
  for (uint64_t x : c.sent_count) sends_mid += x;
  const double cpu_mid = CpuSeconds();
  if (args.trace) {
    c.SendControl(kCtlPhase,
                  "2 " + std::to_string(mid) + " " + std::to_string(end));
    for (; due < end; due += kTickNs) {
      wb.SampleSteal(NowNs());
      c.Tick(due, &wb, 2, true);
    }
    SleepUntilNs(end);
    wb.SampleSteal(NowNs());
  }
  const double cpu_end = CpuSeconds();
  const int64_t t_end = NowNs();
  const bool drained = c.Drain(30000);
  c.SendControl(kCtlFinish, "");
  const bool finished =
      WaitFor([&] { return c.dones.load() == kChildren; }, 30000);

  // ------------------------------------------------------------ audits
  if (!drained) out->Fail("quorum writes still in flight after 30 s");
  if (!finished) out->Fail("children did not report");
  // Children's reports.
  std::map<net::NodeId, std::pair<uint64_t, uint64_t>> got;
  std::map<int, std::map<size_t, LatHist>> remote;  // phase -> window -> hist
  std::map<int, LatHist> backing;
  std::unordered_map<uint64_t, int64_t> arrivals;
  double child_rss = 0;
  uint64_t bad = 0;
  for (uint32_t p = 1; p <= kChildren && finished; ++p) {
    std::ifstream in(ResultPath(c.dir, p));
    std::string line;
    while (std::getline(in, line)) {
      std::istringstream ls(line);
      std::string tag;
      ls >> tag;
      if (tag == "rss") {
        double r = 0;
        ls >> r;
        child_rss = std::max(child_rss, r);
      } else if (tag == "bad") {
        uint64_t b = 0;
        ls >> b;
        bad += b;
      } else if (tag == "viewer") {
        net::NodeId node = 0;
        uint64_t n = 0, sum = 0;
        ls >> node >> n >> sum;
        got[node] = {n, sum};
      } else if (tag == "remote" || tag == "backing") {
        int ph = 0;
        size_t win = 0;
        ls >> ph;
        if (tag == "remote") ls >> win;
        std::string rest;
        std::getline(ls, rest);
        LatHist h;
        if (!h.Parse(rest)) {
          out->Fail("unreadable child histogram");
          continue;
        }
        if (tag == "remote") {
          remote[ph][win].Merge(h);
        } else {
          backing[ph].Merge(h);
        }
      } else if (tag == "sample") {
        uint64_t key = 0;
        int64_t t = 0;
        ls >> key >> t;
        arrivals[key] = t;
      }
    }
  }
  uint64_t viewer_mismatch = 0;
  for (size_t v = 0; v < c.viewer_nodes.size() && finished; ++v) {
    const auto it = got.find(c.viewer_nodes[v]);
    const std::pair<uint64_t, uint64_t> want{c.sent_count[v], c.sent_sum[v]};
    if (it == got.end() ? want.first != 0 : it->second != want) {
      ++viewer_mismatch;
    }
  }
  if (viewer_mismatch > 0) {
    out->Fail(std::to_string(viewer_mismatch) +
                  " viewers did not receive exactly the events sent to them",
              viewer_mismatch);
  }
  if (bad > 0) out->Fail("viewers received undecodable events", bad);

  // R=N audit of every acked key, over the wire.  A read that fails (a
  // timeout on a badly overloaded host) is retried before it counts, and
  // is reported apart from a read that returns an older version.
  std::atomic<uint64_t> lost{0}, unreadable{0};
  std::atomic<bool> audited{false};
  size_t remaining = 0;  // strand-owned
  std::function<void(const std::string&, replica::Version, uint64_t, int)>
      audit_key = [&](const std::string& key, replica::Version floor,
                      uint64_t vh, int attempt) {
        replica::ReadOptions ro;
        ro.r = 3;
        c.store->Get(key, ro,
                     [&, key, floor, vh, attempt](const Status& s,
                                                  const std::string& value,
                                                  replica::Version ver) {
                       if (!s.ok() && attempt < 3) {
                         audit_key(key, floor, vh, attempt + 1);
                         return;
                       }
                       if (!s.ok()) {
                         unreadable.fetch_add(1);
                       } else if (ver < floor ||
                                  (!(floor < ver) && Hash64(value) != vh)) {
                         lost.fetch_add(1);
                       }
                       if (--remaining == 0) audited.store(true);
                     });
      };
  c.transport->Post([&] {
    if (args.fault == "lost_write" && !c.acked.empty()) {
      c.acked.begin()->second.first.counter += 1;  // claims a newer ack
    }
    remaining = c.acked.size();
    if (remaining == 0) audited.store(true);
    for (const auto& [key, want] : c.acked) {
      audit_key(key, want.first, want.second, 1);
    }
  });
  if (!WaitFor([&] { return audited.load(); }, 60000)) {
    out->Fail("R=N audit did not finish");
  }
  if (lost.load() > 0) {
    out->Fail(std::to_string(lost.load()) + " acked writes lost", lost.load());
  }
  if (unreadable.load() > 0) {
    out->Fail(std::to_string(unreadable.load()) +
                  " acked keys unreadable at R=N after 3 attempts",
              unreadable.load());
  }
  if (c.put_failures.load() > 0) {
    out->Fail("quorum writes failed", c.put_failures.load());
  }
  if (c.send_failures > 0) out->Fail("viewer sends failed", c.send_failures);
  out->attempted = c.refreshes;

  // ------------------------------------------------------------ metrics
  const auto pct = [](size_t h, double p) {
    return [h, p](const Slot& s) {
      return s.h[h].count() == 0 ? -1.0 : s.h[h].Percentile(p) / 1e3;
    };
  };
  // The children bucket arrivals on the driver's window grid; take the
  // same steal-filtered windows the driver's own medians use.
  const auto remote_pct = [&](int ph, double p) {
    std::vector<double> v;
    for (size_t i : (ph == 1 ? wa : wb).CleanWindows()) {
      const LatHist& h = remote[ph][i];
      if (h.count() > 0) v.push_back(h.Percentile(p) / 1e3);
    }
    return Median(v);
  };
  const auto commit_rate = [](const Slot& s) {
    return s.h[kAckedNs].count() == 0 ? -1.0 : double(s.h[kAckedNs].count());
  };
  const double window_s = double(mid - start) / 1e9 / double(wa.size());
  const Slot a = wa.All();
  uint64_t remote_samples = 0;
  for (const auto& [win, h] : remote[1]) remote_samples += h.count();
  out->E2e("setup_s", Median(setup_s), "s");
  out->E2e("peak_rss_mb", std::max(PeakRssMb(), child_rss), "MB");
  out->Layer("e2e.ops_per_s", wa.Median(commit_rate) / window_s, "1/s");
  out->E2e("latency_p50_us", remote_pct(1, 50), "us");
  out->Layer("e2e.latency_p99_us", remote_pct(1, 99), "us");
  out->Layer("e2e.secondary_p50_us", wa.Median(pct(kQuorumNs, 50)), "us");
  out->Layer("e2e.secondary_p99_us", wa.Median(pct(kQuorumNs, 99)), "us");
  out->Detail("offered_updates_per_s", kRate, "1/s");
  out->Detail("entities", double(entities), "count");
  out->Detail("refreshes_per_s", wa.Median(commit_rate) / window_s, "1/s");
  out->Detail("remote_callback_p50_us", remote_pct(1, 50), "us");
  out->Detail("remote_callback_p99_us", remote_pct(1, 99), "us");
  out->Detail("remote_callback_samples", double(remote_samples), "count");
  out->Detail("quorum_commit_p50_us", wa.Median(pct(kQuorumNs, 50)), "us");
  out->Detail("quorum_commit_p99_us", wa.Median(pct(kQuorumNs, 99)), "us");
  out->Detail("quorum_commit_samples", double(a.h[kQuorumNs].count()), "count");
  out->Detail("generator_lag_p99_us", wa.Median(pct(kLagNs, 99)), "us");
  out->Detail("child_peak_rss_mb", child_rss, "MB");
  out->Detail("steal_ticks", double(wa.steal_ticks()), "count");
  out->Detail("max_quorum_backlog", double(c.max_inflight), "count");
  out->Detail("first_window.quorum_commit_p50_us",
              pct(kQuorumNs, 50)(wa.Window(0)), "us");
  out->Detail("last_window.quorum_commit_p50_us",
              pct(kQuorumNs, 50)(wa.Window(wa.size() - 1)), "us");
  out->Detail("driver_threads", double(threads), "count");
  out->Detail("acked_keys_audited", double(c.acked.size()), "count");

  if (args.trace) {
    const Slot b = wb.All();
    const double wall_b = double(t_end - mid) / 1e9;
    const core::EngineStats es = c.engine->TotalStats();
    const pubsub::BrokerStats bs = c.engine->TotalBrokerStats();
    const uint64_t phys = es.physical_updates - es_mid.physical_updates;
    const uint64_t deliv = bs.deliveries - bs_mid.deliveries;
    const double refreshes_b =
        double(std::max<uint64_t>(1, c.refreshes - refresh_mid));
    uint64_t sends_end = 0;
    for (uint64_t x : c.sent_count) sends_end += x;
    // One-way transport latency: driver send → child arrival, joined on
    // the sampled (event, viewer) keys.
    LatHist one_way;
    for (const auto& [key, sent] : b.samples) {
      const auto it = arrivals.find(key);
      if (it != arrivals.end()) one_way.Record(it->second - sent);
    }
    const double commits_b = double(std::max<uint64_t>(1, b.h[kQuorumNs].count()));
    out->Layer("core.ingest_batch_us.p50", wb.Median(pct(kIngestNs, 50)), "us");
    out->Layer("core.ingest_batch_us.p99", wb.Median(pct(kIngestNs, 99)), "us");
    out->Layer("core.ingest_ns_per_update",
               b.h[kIngestNs].sum() / double(std::max<uint64_t>(1, b.ops)),
               "ns");
    out->Layer("core.cpu_util", (cpu_end - cpu_mid) / (wall_b * 4.0), "ratio");
    out->Layer("consistency.mirror_ratio",
               double(es.mirrored_updates - es_mid.mirrored_updates) /
                   double(std::max<uint64_t>(1, phys)),
               "ratio");
    out->Layer("pubsub.deliveries_per_update",
               double(deliv) / double(std::max<uint64_t>(1, phys)), "ratio");
    out->Layer("pubsub.candidates_per_delivery",
               double(bs.candidates_checked - bs_mid.candidates_checked) /
                   double(std::max<uint64_t>(1, deliv)),
               "ratio");
    out->Layer("pubsub.callback_ns", b.h[kCallbackNs].mean(), "ns");
    out->Layer("pubsub.encode_ns", b.h[kEncodeNs].mean(), "ns");
    out->Layer("pubsub.encoded_bytes_per_event",
               double(core::MakeMirrorPositionEvent(1, {1, 1, 1}, 1)
                          .EnsureEncoded()
                          .size()),
               "bytes");
    out->Layer("net.send_ns", b.h[kSendNs].mean(), "ns");
    out->Layer("net.one_way_us.p50", one_way.Percentile(50) / 1e3, "us");
    out->Layer("net.one_way_us.p99", one_way.Percentile(99) / 1e3, "us");
    out->Layer("net.frames_per_event",
               (registry_sum("transport.frames_sent") - frames_mid) / refreshes_b,
               "ratio");
    out->Layer("net.wire_bytes_per_event",
               (registry_sum("transport.wire_bytes_sent") - wire_mid) /
                   refreshes_b,
               "bytes");
    out->Layer("net.send_retries", double(c.send_retries - retries_mid),
               "count");
    out->Layer("net.reconnects", registry_sum("transport.reconnects") - reconn_mid,
               "count");
    out->Layer("replica.put_us.p50", wb.Median(pct(kPutNs, 50)), "us");
    out->Layer("replica.put_us.p99", wb.Median(pct(kPutNs, 99)), "us");
    out->Layer("replica.messages_per_commit",
               (registry_sum("transport.messages_sent") - msgs_mid -
                double(sends_end - sends_mid)) /
                   commits_b,
               "ratio");
    out->Layer("replica.write_retries",
               registry_sum("replica.write_retries") - wretry_mid, "count");
    out->Layer("storage.backing_put_us.p50", backing[2].Percentile(50) / 1e3,
               "us");
    out->Layer("storage.backing_put_us.p99", backing[2].Percentile(99) / 1e3,
               "us");
    out->Layer("driver.generator_lag_us.p99", wb.Median(pct(kLagNs, 99)), "us");
    out->Layer("driver.threads", double(threads), "count");
    const double quorum_b = wb.Median(pct(kQuorumNs, 50));
    out->Layer("trace.overhead_ratio",
               remote_pct(2, 50) / std::max(1e-9, remote_pct(1, 50)), "ratio");
    out->Detail("traced.remote_callback_p50_us", remote_pct(2, 50), "us");
    out->Detail("traced.quorum_commit_p50_us", quorum_b, "us");
    out->Detail("traced.one_way_samples", double(one_way.count()), "count");
    // Blocking path of the replicated commit: spans cover the driver's
    // calls; the children's backing put and the two wire hops come from
    // their own measurements.
    ReportSelfTimes(b.spans,
                    {{"storage", backing[2].Percentile(50)},
                     {"net", 2.0 * one_way.Percentile(50)}},
                    quorum_b * 1e3, out);
    const std::string path = args.work_dir + "/mirror_remote.spans.jsonl";
    if (DumpSpans(path, b.spans)) out->notes.push_back("spans: " + path);
  }
  m.reset();
  std::filesystem::remove_all(root);
  return 0;
}

}  // namespace perfbench
