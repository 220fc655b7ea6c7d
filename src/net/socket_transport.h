#ifndef DELUGE_NET_SOCKET_TRANSPORT_H_
#define DELUGE_NET_SOCKET_TRANSPORT_H_

#include <sys/types.h>

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/retry.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "net/frame.h"
#include "net/node_config.h"
#include "net/transport.h"
#include "obs/metrics.h"

namespace deluge::net {

// Control message types the transport consumes itself (never delivered
// to handlers).  All are >= kReservedTypeBase, which application
// protocols must stay below.
inline constexpr uint32_t kTypeHello = kReservedTypeBase + 1;  ///< process id
inline constexpr uint32_t kTypePing = kReservedTypeBase + 2;   ///< u64 ts
inline constexpr uint32_t kTypePong = kReservedTypeBase + 3;   ///< echoed ts

struct SocketTransportOptions {
  /// The shared cluster map (who listens where, node placement).
  ClusterConfig config;
  /// Which process of `config` this transport is.
  uint32_t local_process = 0;
  /// Worker pool the event loop runs on.  Must outlive the transport
  /// and have one thread free, since the loop occupies a worker for the
  /// transport's lifetime.
  ThreadPool* pool = nullptr;
  /// Backoff for (re)connecting to a peer process.  When the budget is
  /// exhausted the queued frames are dropped (counted) and the budget
  /// resets on the next send — datagram semantics over a stream.  The
  /// default is generous because cluster processes start in any order.
  RetryPolicy reconnect = [] {
    RetryPolicy p;
    p.max_attempts = 30;
    p.initial_backoff = 20 * kMicrosPerMilli;
    p.max_backoff = kMicrosPerSecond;
    return p;
  }();
  /// Frames above this are rejected by the decoder (connection dropped).
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Interval between transport-level pings to each peer process;
  /// responses feed the `transport.rtt_us` histogram.  0 disables.
  Micros ping_period = 0;
  /// Frames a peer's send queue may hold before Send fast-fails with
  /// Unavailable (backpressure instead of unbounded memory).
  size_t max_send_queue_frames = 1u << 16;
  /// Seed for the local burst-loss chains (fault injection).
  uint64_t seed = 42;
};

/// The real-socket `Transport` backend: length-prefixed frames (frame.h)
/// over TCP or Unix-domain stream sockets, so protocol objects written
/// against `Transport` run as separate OS processes in wall-clock time.
///
/// Threading: one long-running *event loop* task owns the listen socket,
/// every accepted and outgoing connection, and the timer heap; handlers
/// and timer callbacks all run there, giving the same single-strand
/// contract as the simulator backend.  `Send` may be called from any
/// thread.  Each remote process has one queue of frames, written only by
/// `Flush` under the peer's mutex: `Send` flushes when the queue was
/// empty and the peer is connected, and the loop flushes on POLLOUT.
/// The loop alone connects (non-blocking, with `RetryPolicy` backoff),
/// closes and reconnects.  Frames to one peer leave in `Send` order.
///
/// Clock: `Now()` is monotonic wall-clock micros since construction.
///
/// Fault hooks model a *local view*: `Send` filters through
/// `AdmitSend`, and received frames and held deliveries through
/// `DropIfBlocked`, so SetNodeUp(n, false) makes this process drop
/// traffic to and from `n` — from the local protocols' perspective,
/// exactly a crashed peer.
class SocketTransport final : public Transport {
 public:
  explicit SocketTransport(SocketTransportOptions opts);
  ~SocketTransport() override;

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  /// Binds the listen socket and launches the event loop.  Call after
  /// registering local nodes with AddNode.
  Status Start();

  /// Stops the loop, waits for its task to return to the pool, closes
  /// every socket.  Idempotent; the destructor calls it.
  void Stop();

  // --- Transport interface ---------------------------------------------

  /// Returns the next cluster-global id configured for this process
  /// (config order).  Registering more nodes than the config pins to
  /// this process is a programming error.
  NodeId AddNode(Handler handler) override;

  Status Send(Message msg) override;
  Micros Now() const override;
  void After(Micros delay, std::function<void()> fn) override;
  size_t node_count() const override;

  const ClusterConfig& config() const { return opts_.config; }
  uint32_t local_process() const { return opts_.local_process; }
  /// True while the event loop is running.
  bool running() const { return running_.load(std::memory_order_acquire); }

 private:
  /// One frame queued toward a peer process: encoded header plus the
  /// payload Buffer (written separately — the payload is never copied).
  struct OutFrame {
    explicit OutFrame(const Message& msg);
    std::array<char, kFrameHeaderBytes> header;
    common::Buffer payload;
    /// Bytes already written on the current connection.
    size_t offset = 0;
    size_t size() const { return header.size() + payload.size(); }
  };

  /// Send side of one remote process.  `process` and `endpoint` are
  /// fixed at Start.
  struct Peer {
    Peer(uint32_t p, SocketEndpoint ep, uint64_t seed)
        : process(p), endpoint(std::move(ep)), rng(seed) {}
    uint32_t process;
    SocketEndpoint endpoint;

    std::mutex mu;  // guards `queue`, `fd` and `connected`
    /// Unwritten frames in send order.  Only the front may be partly
    /// written; control frames queue right behind it.
    std::deque<OutFrame> queue;
    int fd = -1;
    /// False while a connect on `fd` is in progress.
    bool connected = false;

    // Owned by the event loop.
    RetryState retry;
    bool backing_off = false;
    bool ever_connected = false;
    Rng rng;
  };

  /// Receive side of one accepted connection.
  struct Conn {
    int fd = -1;
    FrameDecoder decoder;
    explicit Conn(int f, size_t max_frame) : fd(f), decoder(max_frame) {}
  };

  struct Timer {
    Micros at = 0;
    uint64_t seq = 0;  // FIFO among equal deadlines
    std::function<void()> fn;
    bool operator>(const Timer& o) const {
      return at != o.at ? at > o.at : seq > o.seq;
    }
  };

  Status Listen();
  void EventLoop();
  /// Starts a non-blocking connect to `peer` (`mu` held); the loop
  /// finishes it on POLLOUT.  A failure backs off.
  void Connect(Peer* peer);
  /// Arms the next connect attempt after a failed one, or drops the
  /// queue (counted) when the reconnect budget is spent.  `mu` held.
  void BackOff(Peer* peer);
  /// The loop's turn on a polled peer socket: finishes a connect, then
  /// flushes; closes the connection on an error.
  void OnWritable(Peer* peer);
  /// Writes what the socket takes of `peer`'s queue with non-blocking
  /// gather sendmsg calls (`mu` held); false on a write error.
  bool Flush(Peer* peer);
  /// Queues `frame` toward `process` and writes it from the calling
  /// thread when the queue was empty and the peer is connected.  A
  /// `front` (control) frame jumps the queue.  False when the peer is
  /// unknown or its queue is full.
  bool SendToPeer(uint32_t process, OutFrame frame, bool front = false);
  /// A control frame of `type` from this process to `process`.
  OutFrame ControlFrame(uint32_t process, uint32_t type,
                        std::string payload) const;

  /// Drains readable bytes from `conn`; false = close the connection.
  bool ReadConn(Conn* conn);
  /// Routes one decoded or locally-sent message on the event strand.
  void Dispatch(const Message& msg);
  void HandleControl(const Message& msg);

  /// Schedules `msg` for handler dispatch on the strand after `extra`.
  void ScheduleDelivery(Message msg, Micros extra);
  /// Counts and invokes the destination handler (event strand only).
  void DeliverNow(const Message& msg);

  void WakeLoop();
  void SendPings();

  SocketTransportOptions opts_;
  std::vector<NodeId> local_ids_;  // config order
  Micros epoch_;                   // SteadyNowMicros at construction

  mutable std::mutex state_mu_;  // handlers, timers
  std::unordered_map<NodeId, Handler> handlers_;
  size_t next_local_ = 0;
  Rng rng_;  // burst-loss draws, taken under the fault overlay's lock
  std::priority_queue<Timer, std::vector<Timer>, std::greater<Timer>> timers_;
  uint64_t timer_seq_ = 0;

  std::vector<std::unique_ptr<Peer>> peers_;  // one per remote process

  std::atomic<bool> running_{false};
  std::atomic<bool> started_{false};
  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  std::mutex loop_mu_;
  std::condition_variable loop_cv_;
  bool loop_exited_ = false;

  obs::Counter* frames_sent_ = obs_.counter("frames_sent");
  obs::Counter* frames_received_ = obs_.counter("frames_received");
  obs::Counter* wire_bytes_sent_ = obs_.counter("wire_bytes_sent");
  obs::Counter* wire_bytes_received_ = obs_.counter("wire_bytes_received");
  obs::Counter* reconnects_ = obs_.counter("reconnects");
  obs::ConcurrentHistogram* rtt_us_ = obs_.histogram("rtt_us");
};

}  // namespace deluge::net

#endif  // DELUGE_NET_SOCKET_TRANSPORT_H_
