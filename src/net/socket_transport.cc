#include "net/socket_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace deluge::net {

namespace {

void PutU32(char* out, uint32_t v) {
  out[0] = char(v & 0xFF);
  out[1] = char((v >> 8) & 0xFF);
  out[2] = char((v >> 16) & 0xFF);
  out[3] = char((v >> 24) & 0xFF);
}

void PutU64(char* out, uint64_t v) {
  PutU32(out, uint32_t(v & 0xFFFFFFFFu));
  PutU32(out + 4, uint32_t(v >> 32));
}

uint64_t GetU64(const char* in) {
  const unsigned char* p = reinterpret_cast<const unsigned char*>(in);
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

void SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

SocketTransport::SocketTransport(SocketTransportOptions opts)
    : Transport("transport"),
      opts_(std::move(opts)),
      local_ids_(opts_.config.nodes_of(opts_.local_process)),
      epoch_(obs::SteadyNowMicros()),
      rng_(opts_.seed) {}

SocketTransport::~SocketTransport() { Stop(); }

Micros SocketTransport::Now() const { return obs::SteadyNowMicros() - epoch_; }

NodeId SocketTransport::AddNode(Handler handler) {
  std::lock_guard<std::mutex> lk(state_mu_);
  if (started_.load(std::memory_order_acquire)) {
    std::fprintf(stderr, "SocketTransport: AddNode after Start\n");
    std::abort();
  }
  if (next_local_ >= local_ids_.size()) {
    std::fprintf(stderr,
                 "SocketTransport: more AddNode calls than nodes configured "
                 "for process %u\n",
                 opts_.local_process);
    std::abort();
  }
  const NodeId id = local_ids_[next_local_++];
  handlers_[id] = std::move(handler);
  return id;
}

size_t SocketTransport::node_count() const {
  std::lock_guard<std::mutex> lk(state_mu_);
  return handlers_.size();
}

NodeId SocketTransport::FirstLocalNode() const {
  return local_ids_.empty() ? 0 : local_ids_[0];
}

void SocketTransport::After(Micros delay, std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    timers_.push(
        Timer{Now() + std::max<Micros>(delay, 0), timer_seq_++, std::move(fn)});
  }
  WakeLoop();
}

void SocketTransport::WakeLoop() {
  if (wake_pipe_[1] < 0) return;
  const char b = 1;
  ssize_t rc = ::write(wake_pipe_[1], &b, 1);  // EAGAIN = already pending
  (void)rc;
}

// --- lifecycle ---------------------------------------------------------

Status SocketTransport::Listen() {
  const ProcessSpec* self = opts_.config.process(opts_.local_process);
  if (self == nullptr) {
    return Status::InvalidArgument("local process not in cluster config");
  }
  const SocketEndpoint& ep = self->endpoint;
  if (ep.is_unix()) {
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) return Status::Unavailable("socket: unix");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (ep.unix_path.size() >= sizeof(addr.sun_path)) {
      return Status::InvalidArgument("unix socket path too long");
    }
    std::memcpy(addr.sun_path, ep.unix_path.c_str(), ep.unix_path.size());
    ::unlink(ep.unix_path.c_str());  // stale socket from a dead process
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      return Status::Unavailable("bind " + ep.unix_path + ": " +
                                 std::strerror(errno));
    }
  } else {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) return Status::Unavailable("socket: tcp");
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(ep.port);
    if (::inet_pton(AF_INET, ep.host.c_str(), &addr.sin_addr) != 1) {
      return Status::InvalidArgument("bad listen host " + ep.host);
    }
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      return Status::Unavailable("bind " + ep.ToString() + ": " +
                                 std::strerror(errno));
    }
    if (ep.port == 0) {
      // Ephemeral port: learn it and write it back so config() readers
      // (tests) can tell peers where we actually listen.
      sockaddr_in bound{};
      socklen_t len = sizeof(bound);
      if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                        &len) == 0) {
        for (ProcessSpec& p : opts_.config.processes) {
          if (p.id == opts_.local_process) {
            p.endpoint.port = ntohs(bound.sin_port);
          }
        }
      }
    }
  }
  if (::listen(listen_fd_, 128) != 0) {
    return Status::Unavailable(std::string("listen: ") + std::strerror(errno));
  }
  SetNonBlocking(listen_fd_);
  return Status::OK();
}

Status SocketTransport::Start() {
  if (opts_.pool == nullptr) {
    return Status::InvalidArgument("SocketTransport needs a ThreadPool");
  }
  if (started_.exchange(true)) {
    return Status::InvalidArgument("SocketTransport already started");
  }
  Status s = Listen();
  if (!s.ok()) return s;
  if (::pipe(wake_pipe_) != 0) {
    return Status::Unavailable("pipe: " + std::string(std::strerror(errno)));
  }
  SetNonBlocking(wake_pipe_[0]);
  SetNonBlocking(wake_pipe_[1]);
  for (const ProcessSpec& p : opts_.config.processes) {
    if (p.id == opts_.local_process) continue;
    auto peer = std::make_unique<Peer>();
    peer->process = p.id;
    peer->endpoint = p.endpoint;
    peers_.push_back(std::move(peer));
  }
  running_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lk(tasks_mu_);
    live_tasks_ = 1 + int(peers_.size());
  }
  auto done = [this] {
    std::lock_guard<std::mutex> lk(tasks_mu_);
    --live_tasks_;
    tasks_cv_.notify_all();
  };
  opts_.pool->Submit([this, done] {
    EventLoop();
    done();
  });
  for (auto& peer : peers_) {
    Peer* p = peer.get();
    opts_.pool->Submit([this, p, done] {
      SenderLoop(p);
      done();
    });
  }
  if (opts_.ping_period > 0) {
    After(opts_.ping_period, [this] { SendPings(); });
  }
  return Status::OK();
}

void SocketTransport::Stop() {
  if (!started_.load(std::memory_order_acquire)) return;
  if (running_.exchange(false)) {
    WakeLoop();
    for (auto& p : peers_) {
      std::lock_guard<std::mutex> lk(p->mu);
      p->cv.notify_all();
    }
    std::unique_lock<std::mutex> lk(tasks_mu_);
    tasks_cv_.wait(lk, [this] { return live_tasks_ == 0; });
  }
  for (auto& p : peers_) {
    std::lock_guard<std::mutex> lk(p->mu);
    if (p->fd >= 0) {
      ::close(p->fd);
      p->fd = -1;
    }
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (int& fd : wake_pipe_) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
  const ProcessSpec* self = opts_.config.process(opts_.local_process);
  if (self != nullptr && self->endpoint.is_unix()) {
    ::unlink(self->endpoint.unix_path.c_str());
  }
}

// --- send path ---------------------------------------------------------

Status SocketTransport::Send(Message msg) {
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    if (handlers_.find(msg.from) == handlers_.end()) {
      return Status::InvalidArgument("unknown sender in Send");
    }
  }
  const NodeSpec* dst = opts_.config.node(msg.to);
  if (dst == nullptr) return Status::InvalidArgument("unknown node in Send");
  msg.sent_at = Now();
  Micros extra = 0;
  bool deliver = false;
  Status s = AdmitSend(msg, &rng_, &extra, &deliver);
  if (!deliver) return s;

  if (dst->process == opts_.local_process) {
    ScheduleDelivery(std::move(msg), extra);
    return Status::OK();
  }
  OutFrame frame;
  frame.header.resize(kFrameHeaderBytes);
  EncodeFrameHeader(msg, frame.header.data());
  frame.payload = msg.payload;  // refcount bump, no copy
  const uint32_t process = dst->process;
  if (extra > 0) {
    // Injected latency on the local view: hold the frame on the strand
    // before it reaches the wire.
    After(extra, [this, process, f = std::move(frame)]() mutable {
      if (!SendToPeer(process, std::move(f))) messages_dropped_->Add(1);
    });
    return Status::OK();
  }
  if (!SendToPeer(process, std::move(frame))) {
    messages_dropped_->Add(1);
    return Status::Unavailable("send queue full");
  }
  return Status::OK();
}

bool SocketTransport::SendToPeer(uint32_t process, OutFrame frame,
                                 bool front) {
  for (auto& p : peers_) {
    if (p->process != process) continue;
    std::lock_guard<std::mutex> lk(p->mu);
    if (p->fd >= 0 && p->queue.empty() && !p->tail && !p->sending) {
      // Idle peer: write from this thread, without waking the sender
      // task.  MSG_DONTWAIT keeps the caller from ever blocking; the
      // sender task takes whatever this write leaves.
      const ssize_t n = SendRest(p->fd, frame, MSG_DONTWAIT);
      if (n > 0) frame.offset += size_t(n);
      if (frame.offset == frame.size()) {
        CountSent(frame);
        return true;
      }
      if (frame.offset > 0) {
        // Part of it is on the wire: the rest goes out next, ahead of
        // any frame queued from now on.
        p->tail = std::move(frame);
        p->cv.notify_one();
        return true;
      }
    } else if (!front && p->queue.size() >= opts_.max_send_queue_frames) {
      return false;
    }
    if (front) {
      p->queue.push_front(std::move(frame));
    } else {
      p->queue.push_back(std::move(frame));
    }
    p->cv.notify_one();
    return true;
  }
  return false;
}

// --- sender tasks ------------------------------------------------------

ssize_t SocketTransport::SendRest(int fd, const OutFrame& frame, int flags) {
  const size_t hlen = frame.header.size();
  iovec iov[2];
  size_t cnt = 0;
  if (frame.offset < hlen) {
    iov[cnt++] = {const_cast<char*>(frame.header.data()) + frame.offset,
                  hlen - frame.offset};
    if (!frame.payload.empty()) {
      iov[cnt++] = {const_cast<char*>(frame.payload.data()),
                    frame.payload.size()};
    }
  } else {
    const size_t sent = frame.offset - hlen;
    iov[cnt++] = {const_cast<char*>(frame.payload.data()) + sent,
                  frame.payload.size() - sent};
  }
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = cnt;
  // MSG_NOSIGNAL: a peer that went away is an error return, not SIGPIPE.
  return ::sendmsg(fd, &msg, flags | MSG_NOSIGNAL);
}

bool SocketTransport::WriteFrame(int fd, OutFrame* frame) {
  while (frame->offset < frame->size()) {
    const ssize_t n = SendRest(fd, *frame, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;  // includes SO_SNDTIMEO expiry on a stalled peer
    }
    if (n == 0) return false;
    frame->offset += size_t(n);
  }
  return true;
}

void SocketTransport::CountSent(const OutFrame& frame) {
  frames_sent_->Add(1);
  wire_bytes_sent_->Add(frame.size());
}

int SocketTransport::ConnectPeer(Peer* peer) {
  Rng rng(opts_.seed ^ (uint64_t(peer->process) * 0x9E3779B97F4A7C15ull));
  RetryState retry(opts_.reconnect, Now());
  while (running_.load(std::memory_order_acquire)) {
    int fd = -1;
    if (peer->endpoint.is_unix()) {
      fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (fd >= 0) {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, peer->endpoint.unix_path.c_str(),
                     sizeof(addr.sun_path) - 1);
        if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
            0) {
          ::close(fd);
          fd = -1;
        }
      }
    } else {
      fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd >= 0) {
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(peer->endpoint.port);
        if (::inet_pton(AF_INET, peer->endpoint.host.c_str(),
                        &addr.sin_addr) != 1 ||
            ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
                0) {
          ::close(fd);
          fd = -1;
        }
      }
    }
    if (fd >= 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
                   sizeof(one));  // harmless EOPNOTSUPP on AF_UNIX
      timeval tv{};
      tv.tv_sec = 1;  // bound writes so Stop() cannot hang on a stall
      ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));

      // Introduce ourselves so the acceptor can sanity-check placement.
      Message hello;
      hello.type = kTypeHello;
      hello.from = FirstLocalNode();
      const std::vector<NodeId> theirs = opts_.config.nodes_of(peer->process);
      hello.to = theirs.empty() ? 0 : theirs[0];
      std::string pid(4, '\0');
      PutU32(pid.data(), opts_.local_process);
      hello.payload = common::Buffer(std::move(pid));
      OutFrame hf;
      hf.header.resize(kFrameHeaderBytes);
      EncodeFrameHeader(hello, hf.header.data());
      hf.payload = hello.payload;
      if (WriteFrame(fd, &hf)) {
        CountSent(hf);
        if (peer->ever_connected) reconnects_->Add(1);
        peer->ever_connected = true;
        return fd;
      }
      ::close(fd);
    }
    const Micros backoff = retry.NextBackoff(Now(), &rng);
    if (backoff < 0) return -1;  // budget exhausted
    std::unique_lock<std::mutex> lk(peer->mu);
    peer->cv.wait_for(lk, std::chrono::microseconds(backoff), [this] {
      return !running_.load(std::memory_order_acquire);
    });
  }
  return -1;
}

void SocketTransport::SenderLoop(Peer* peer) {
  std::unique_lock<std::mutex> lk(peer->mu);
  while (true) {
    peer->cv.wait(lk, [this, peer] {
      return !running_.load(std::memory_order_acquire) || peer->tail ||
             !peer->queue.empty();
    });
    if (!running_.load(std::memory_order_acquire)) break;
    if (peer->fd < 0) {
      lk.unlock();
      const int fd = ConnectPeer(peer);
      lk.lock();
      if (fd < 0) {
        if (!running_.load(std::memory_order_acquire)) break;
        // Reconnect budget spent: this batch is lost (datagram
        // semantics); the budget resets with the next enqueue.
        messages_dropped_->Add(peer->queue.size());
        peer->queue.clear();
        continue;
      }
      peer->fd = fd;
    }
    // Holding a frame (`sending`) keeps callers from writing inline, so
    // this task owns the fd until the frame is out.
    OutFrame frame;
    if (peer->tail) {
      frame = std::move(*peer->tail);
      peer->tail.reset();
    } else if (!peer->queue.empty()) {
      frame = std::move(peer->queue.front());
      peer->queue.pop_front();
    } else {
      continue;
    }
    peer->sending = true;
    const int fd = peer->fd;
    lk.unlock();
    const bool ok = WriteFrame(fd, &frame);
    lk.lock();
    peer->sending = false;
    if (ok) {
      CountSent(frame);
    } else {
      ::close(fd);
      peer->fd = -1;
      frame.offset = 0;  // resent whole on the next connection
      peer->queue.push_front(std::move(frame));
    }
  }
  if (peer->fd >= 0) {
    ::close(peer->fd);
    peer->fd = -1;
  }
}

// --- event strand ------------------------------------------------------

void SocketTransport::EventLoop() {
  std::vector<std::unique_ptr<Conn>> conns;
  std::vector<pollfd> pfds;
  while (running_.load(std::memory_order_acquire)) {
    int timeout_ms = 200;
    {
      std::lock_guard<std::mutex> lk(state_mu_);
      if (!timers_.empty()) {
        const Micros diff = timers_.top().at - Now();
        timeout_ms =
            diff <= 0 ? 0 : int(std::min<Micros>((diff + 999) / 1000, 200));
      }
    }
    pfds.clear();
    pfds.push_back(pollfd{wake_pipe_[0], POLLIN, 0});
    pfds.push_back(pollfd{listen_fd_, POLLIN, 0});
    for (const auto& c : conns) pfds.push_back(pollfd{c->fd, POLLIN, 0});
    const int rc = ::poll(pfds.data(), nfds_t(pfds.size()), timeout_ms);
    if (rc < 0 && errno != EINTR) break;

    if (rc > 0 && (pfds[0].revents & POLLIN) != 0) {
      char drain[256];
      while (::read(wake_pipe_[0], drain, sizeof(drain)) > 0) {
      }
    }

    // Due timers fire before new I/O so After(0) posts are prompt.
    for (;;) {
      std::function<void()> fn;
      {
        std::lock_guard<std::mutex> lk(state_mu_);
        if (timers_.empty() || timers_.top().at > Now()) break;
        fn = std::move(const_cast<Timer&>(timers_.top()).fn);
        timers_.pop();
      }
      fn();
    }
    if (rc <= 0) continue;

    if ((pfds[1].revents & POLLIN) != 0) {
      for (;;) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) break;
        SetNonBlocking(fd);
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        conns.push_back(std::make_unique<Conn>(fd, opts_.max_frame_bytes));
      }
    }
    bool closed_any = false;
    for (size_t i = 2; i < pfds.size(); ++i) {
      if ((pfds[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      Conn* conn = conns[i - 2].get();
      if (!ReadConn(conn)) {
        ::close(conn->fd);
        conn->fd = -1;
        closed_any = true;
      }
    }
    if (closed_any) {
      conns.erase(std::remove_if(conns.begin(), conns.end(),
                                 [](const std::unique_ptr<Conn>& c) {
                                   return c->fd < 0;
                                 }),
                  conns.end());
    }
  }
  for (const auto& c : conns) ::close(c->fd);
}

bool SocketTransport::ReadConn(Conn* conn) {
  char buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::read(conn->fd, buf, sizeof(buf));
    if (n > 0) {
      wire_bytes_received_->Add(uint64_t(n));
      std::vector<Message> msgs;
      const Status s = conn->decoder.Feed(buf, size_t(n), &msgs);
      for (Message& m : msgs) {
        frames_received_->Add(1);
        Dispatch(m);
      }
      if (!s.ok()) return false;  // poisoned stream: drop the connection
      continue;
    }
    if (n == 0) return false;  // peer closed
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    return false;
  }
}

void SocketTransport::Dispatch(const Message& msg) {
  if (msg.type >= kReservedTypeBase) {
    HandleControl(msg);
    return;
  }
  Micros extra = 0;
  if (DropIfBlocked(msg, &extra)) return;
  if (extra > 0) {
    ScheduleDelivery(msg, extra);
    return;
  }
  DeliverNow(msg);
}

void SocketTransport::ScheduleDelivery(Message msg, Micros extra) {
  After(extra, [this, m = std::move(msg)] {
    // Re-check faults at delivery time, like the simulator: packets in
    // flight when a fault starts are lost.
    if (!DropIfBlocked(m)) DeliverNow(m);
  });
}

void SocketTransport::DeliverNow(const Message& msg) {
  Handler* handler = nullptr;
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    auto it = handlers_.find(msg.to);
    if (it != handlers_.end()) handler = &it->second;
  }
  if (handler == nullptr) {
    messages_dropped_->Add(1);  // configured here but never registered
    return;
  }
  messages_delivered_->Add(1);
  bytes_delivered_->Add(msg.WireSize());
  (*handler)(msg);
}

void SocketTransport::HandleControl(const Message& msg) {
  switch (msg.type) {
    case kTypeHello:
      break;  // placement is carried per-frame; hello is a liveness nudge
    case kTypePing: {
      const NodeSpec* src = opts_.config.node(msg.from);
      if (src == nullptr) break;
      Message pong;
      pong.type = kTypePong;
      pong.from = msg.to;
      pong.to = msg.from;
      pong.payload = msg.payload;  // echo the sender's timestamp
      OutFrame f;
      f.header.resize(kFrameHeaderBytes);
      EncodeFrameHeader(pong, f.header.data());
      f.payload = pong.payload;
      SendToPeer(src->process, std::move(f), /*front=*/true);
      break;
    }
    case kTypePong: {
      if (msg.payload.size() >= 8) {
        const int64_t sent = int64_t(GetU64(msg.payload.data()));
        rtt_us_->Record(obs::SteadyNowMicros() - sent);
      }
      break;
    }
    default:
      break;  // unknown control frames are ignored, never delivered
  }
}

void SocketTransport::SendPings() {
  if (!running_.load(std::memory_order_acquire)) return;
  for (const auto& peer : peers_) {
    const std::vector<NodeId> theirs = opts_.config.nodes_of(peer->process);
    Message ping;
    ping.type = kTypePing;
    ping.from = FirstLocalNode();
    ping.to = theirs.empty() ? 0 : theirs[0];
    std::string ts(8, '\0');
    PutU64(ts.data(), uint64_t(obs::SteadyNowMicros()));
    ping.payload = common::Buffer(std::move(ts));
    OutFrame f;
    f.header.resize(kFrameHeaderBytes);
    EncodeFrameHeader(ping, f.header.data());
    f.payload = ping.payload;
    SendToPeer(peer->process, std::move(f), /*front=*/true);
  }
  After(opts_.ping_period, [this] { SendPings(); });
}

}  // namespace deluge::net
