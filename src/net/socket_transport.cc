#include "net/socket_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>

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

SocketTransport::OutFrame::OutFrame(const Message& msg) : payload(msg.payload) {
  EncodeFrameHeader(msg, header.data());
}

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
    peers_.push_back(std::make_unique<Peer>(
        p.id, p.endpoint,
        opts_.seed ^ (uint64_t(p.id) * 0x9E3779B97F4A7C15ull)));
  }
  running_.store(true, std::memory_order_release);
  opts_.pool->Submit([this] {
    EventLoop();
    std::lock_guard<std::mutex> lk(loop_mu_);
    loop_exited_ = true;
    loop_cv_.notify_all();
  });
  if (opts_.ping_period > 0) {
    After(opts_.ping_period, [this] { SendPings(); });
  }
  return Status::OK();
}

void SocketTransport::Stop() {
  if (!started_.load(std::memory_order_acquire)) return;
  if (running_.exchange(false)) {
    WakeLoop();
    std::unique_lock<std::mutex> lk(loop_mu_);
    loop_cv_.wait(lk, [this] { return loop_exited_; });
  }
  for (auto& p : peers_) {
    std::lock_guard<std::mutex> lk(p->mu);
    if (p->fd >= 0) {
      ::close(p->fd);
      p->fd = -1;
      p->connected = false;
    }
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    // Only while the path is still ours: a later Stop must not remove a
    // socket that a successor bound since.
    const ProcessSpec* self = opts_.config.process(opts_.local_process);
    if (self != nullptr && self->endpoint.is_unix()) {
      ::unlink(self->endpoint.unix_path.c_str());
    }
  }
  for (int& fd : wake_pipe_) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
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
  OutFrame frame(msg);  // the payload's refcount bumps; no copy
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
  const auto it =
      std::find_if(peers_.begin(), peers_.end(),
                   [process](const auto& p) { return p->process == process; });
  if (it == peers_.end()) return false;
  Peer* p = it->get();
  {
    std::lock_guard<std::mutex> lk(p->mu);
    std::deque<OutFrame>& q = p->queue;
    if (!front && q.size() >= opts_.max_send_queue_frames) return false;
    if (!front) {
      q.push_back(std::move(frame));
    } else {
      // Never inside a partly written frame.
      q.insert(q.begin() + (!q.empty() && q.front().offset > 0),
               std::move(frame));
    }
    if (q.size() > 1) return true;  // a backlog is the loop's to drain
    // Idle peer: write from this thread, without waking the loop.
    if (p->connected && Flush(p) && q.empty()) return true;
  }
  // What is left (EAGAIN, a partial write, an error, no connection yet)
  // is the loop's to write, connect or close.
  WakeLoop();
  return true;
}

bool SocketTransport::Flush(Peer* peer) {
  constexpr size_t kMaxIov = 64;  // two per frame: header rest, payload rest
  std::deque<OutFrame>& q = peer->queue;
  while (!q.empty()) {
    iovec iov[kMaxIov];
    size_t cnt = 0;
    size_t want = 0;
    for (auto f = q.begin(); f != q.end() && cnt + 2 <= kMaxIov; ++f) {
      const size_t hlen = f->header.size();
      if (f->offset < hlen) {
        iov[cnt++] = {const_cast<char*>(f->header.data()) + f->offset,
                      hlen - f->offset};
      }
      const size_t sent = std::max(f->offset, hlen) - hlen;
      if (sent < f->payload.size()) {
        iov[cnt++] = {const_cast<char*>(f->payload.data()) + sent,
                      f->payload.size() - sent};
      }
      want += f->size() - f->offset;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = cnt;
    // MSG_NOSIGNAL: a peer that went away is an error return, not SIGPIPE.
    const ssize_t n = ::sendmsg(peer->fd, &msg, MSG_DONTWAIT | MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
    uint64_t frames = 0;
    uint64_t bytes = 0;
    for (size_t left = size_t(n); left > 0;) {
      OutFrame& f = q.front();
      const size_t rest = f.size() - f.offset;
      if (left < rest) {
        f.offset += left;
        break;
      }
      left -= rest;
      ++frames;
      bytes += f.size();
      q.pop_front();
    }
    frames_sent_->Add(frames);
    wire_bytes_sent_->Add(bytes);
    if (size_t(n) < want) return true;  // socket full: POLLOUT resumes
  }
  return true;
}

SocketTransport::OutFrame SocketTransport::ControlFrame(
    uint32_t process, uint32_t type, std::string payload) const {
  const std::vector<NodeId> theirs = opts_.config.nodes_of(process);
  Message msg;
  msg.type = type;
  msg.from = local_ids_.empty() ? 0 : local_ids_[0];
  msg.to = theirs.empty() ? 0 : theirs[0];
  msg.payload = common::Buffer(std::move(payload));
  return OutFrame(msg);
}

// --- connections (event strand) ----------------------------------------

void SocketTransport::Connect(Peer* peer) {
  const SocketEndpoint& ep = peer->endpoint;
  sockaddr_storage addr{};
  socklen_t len = sizeof(sockaddr_in);
  if (ep.is_unix()) {
    auto* un = reinterpret_cast<sockaddr_un*>(&addr);
    un->sun_family = AF_UNIX;
    std::strncpy(un->sun_path, ep.unix_path.c_str(), sizeof(un->sun_path) - 1);
    len = sizeof(sockaddr_un);
  } else {
    auto* in = reinterpret_cast<sockaddr_in*>(&addr);
    in->sin_family = AF_INET;
    in->sin_port = htons(ep.port);
    if (::inet_pton(AF_INET, ep.host.c_str(), &in->sin_addr) != 1) {
      BackOff(peer);
      return;
    }
  }
  const int fd = ::socket(addr.ss_family, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd >= 0 && (::connect(fd, reinterpret_cast<sockaddr*>(&addr), len) == 0 ||
                  errno == EINPROGRESS)) {
    peer->fd = fd;  // POLLOUT tells how the connect ended
    return;
  }
  if (fd >= 0) ::close(fd);
  BackOff(peer);
}

void SocketTransport::BackOff(Peer* peer) {
  const Micros backoff = peer->retry.NextBackoff(Now(), &peer->rng);
  if (backoff < 0) {
    // Budget spent: this batch is lost (datagram semantics); the next
    // send starts a fresh budget.
    messages_dropped_->Add(peer->queue.size());
    peer->queue.clear();
    return;
  }
  peer->backing_off = true;
  After(backoff, [this, peer] {
    std::lock_guard<std::mutex> lk(peer->mu);
    peer->backing_off = false;
    Connect(peer);
  });
}

void SocketTransport::OnWritable(Peer* peer) {
  std::lock_guard<std::mutex> lk(peer->mu);
  if (!peer->connected) {
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(peer->fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0) {
      err = errno;
    }
    if (err != 0) {
      ::close(peer->fd);
      peer->fd = -1;
      BackOff(peer);
      return;
    }
    const int one = 1;
    ::setsockopt(peer->fd, IPPROTO_TCP, TCP_NODELAY, &one,
                 sizeof(one));  // harmless EOPNOTSUPP on AF_UNIX
    // Introduce ourselves so the acceptor can sanity-check placement.
    std::string pid(4, '\0');
    PutU32(pid.data(), opts_.local_process);
    peer->queue.push_front(
        ControlFrame(peer->process, kTypeHello, std::move(pid)));
    peer->connected = true;
    if (peer->ever_connected) reconnects_->Add(1);
    peer->ever_connected = true;
  }
  if (Flush(peer)) return;
  // A broken connection: the frame it cut off goes again, whole, on the
  // next one.
  ::close(peer->fd);
  peer->fd = -1;
  peer->connected = false;
  if (!peer->queue.empty()) peer->queue.front().offset = 0;
}

// --- event strand ------------------------------------------------------

void SocketTransport::EventLoop() {
  std::vector<std::unique_ptr<Conn>> conns;
  std::vector<pollfd> pfds;
  std::vector<Peer*> polled;  // the peers behind pfds[2, 2 + size)
  while (running_.load(std::memory_order_acquire)) {
    Micros wait = 200 * kMicrosPerMilli;
    {
      std::lock_guard<std::mutex> lk(state_mu_);
      if (!timers_.empty()) {
        wait = std::clamp<Micros>(timers_.top().at - Now(), 0, wait);
      }
    }
    pfds.clear();
    polled.clear();
    pfds.push_back(pollfd{wake_pipe_[0], POLLIN, 0});
    pfds.push_back(pollfd{listen_fd_, POLLIN, 0});
    for (const auto& peer : peers_) {
      std::lock_guard<std::mutex> lk(peer->mu);
      if (peer->fd < 0 && !peer->backing_off && !peer->queue.empty()) {
        peer->retry = RetryState(opts_.reconnect, Now());  // a fresh budget
        Connect(peer.get());
      }
      if (peer->fd >= 0 && (!peer->connected || !peer->queue.empty())) {
        pfds.push_back(pollfd{peer->fd, POLLOUT, 0});
        polled.push_back(peer.get());
      }
    }
    const size_t first_conn = pfds.size();
    for (const auto& c : conns) pfds.push_back(pollfd{c->fd, POLLIN, 0});
    const timespec timeout{time_t(wait / kMicrosPerSecond),
                           long(wait % kMicrosPerSecond * 1000)};
    const int rc = ::ppoll(pfds.data(), nfds_t(pfds.size()), &timeout, nullptr);
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

    for (size_t i = 0; i < polled.size(); ++i) {
      if (pfds[2 + i].revents != 0) OnWritable(polled[i]);
    }
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
    for (size_t i = first_conn; i < pfds.size(); ++i) {
      if ((pfds[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      Conn* conn = conns[i - first_conn].get();
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
      SendToPeer(src->process, OutFrame(pong), /*front=*/true);
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
    std::string ts(8, '\0');
    PutU64(ts.data(), uint64_t(obs::SteadyNowMicros()));
    SendToPeer(peer->process,
               ControlFrame(peer->process, kTypePing, std::move(ts)),
               /*front=*/true);
  }
  After(opts_.ping_period, [this] { SendPings(); });
}

}  // namespace deluge::net
