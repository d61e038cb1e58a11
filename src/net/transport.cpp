#include "net/transport.hpp"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

#include "common/contracts.hpp"

namespace byzcast::net {

namespace {

int make_tcp_socket() {
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

/// Cadence of the per-connection clock-sync pings. Each exchange costs two
/// ~20-byte frames; the offset estimate keeps improving as lower-RTT samples
/// arrive, so a sub-second cadence converges quickly without load.
constexpr Time kClockPingInterval = 500 * kMillisecond;

bool resolve_ipv4(const std::string& host, std::uint16_t port,
                  sockaddr_in* out) {
  ::memset(out, 0, sizeof *out);
  out->sin_family = AF_INET;
  out->sin_port = htons(port);
  if (host.empty() || host == "localhost") {
    out->sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return true;
  }
  if (host == "0.0.0.0") {
    out->sin_addr.s_addr = htonl(INADDR_ANY);
    return true;
  }
  return ::inet_pton(AF_INET, host.c_str(), &out->sin_addr) == 1;
}

}  // namespace

Transport::Transport(EventLoop& loop, TransportOptions opts)
    : loop_(loop), opts_(opts) {}

Transport::~Transport() {
  if (!shutdown_) shutdown();
}

bool Transport::listen(const std::string& host, std::uint16_t port,
                       std::string* error) {
  sockaddr_in addr{};
  if (!resolve_ipv4(host, port, &addr)) {
    if (error) *error = "unresolvable listen host: " + host;
    return false;
  }
  const int fd = make_tcp_socket();
  if (fd < 0) {
    if (error) *error = "socket: " + std::string(::strerror(errno));
    return false;
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, SOMAXCONN) != 0) {
    if (error) {
      *error = "bind/listen " + host + ":" + std::to_string(port) + ": " +
               ::strerror(errno);
    }
    ::close(fd);
    return false;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  BZC_ENSURES(::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) ==
              0);
  listen_fd_ = fd;
  listen_port_ = ntohs(bound.sin_port);
  loop_.add_fd(listen_fd_, EPOLLIN,
               [this](std::uint32_t) { handle_accept(); });
  return true;
}

void Transport::add_peer(const std::string& host, std::uint16_t port,
                         std::vector<ProcessId> pids) {
  const std::size_t index = peers_.size();
  Peer p;
  p.host = host;
  p.port = port;
  p.pids = pids;
  peers_.push_back(std::move(p));
  for (const ProcessId pid : pids) pid_peer_[pid] = index;
}

void Transport::connect_all() {
  for (std::size_t i = 0; i < peers_.size(); ++i) dial(i);
  start_clock_sync();
}

void Transport::ping_clock(Connection& conn) {
  if (conn.send_frame({encode_clock_ping_frame(loop_.now())})) {
    ++stats_.clock_pings_sent;
  }
}

void Transport::start_clock_sync() {
  if (clock_sync_started_ || shutdown_) return;
  clock_sync_started_ = true;
  loop_.schedule(kClockPingInterval, [this] {
    if (shutdown_) return;
    for (Peer& peer : peers_) {
      if (peer.conn && peer.conn->established()) ping_clock(*peer.conn);
    }
    for (auto& conn : inbound_) {
      if (!conn->closed()) ping_clock(*conn);
    }
    clock_sync_started_ = false;
    start_clock_sync();
  });
}

void Transport::dial(std::size_t peer_index) {
  if (shutdown_) return;
  Peer& peer = peers_[peer_index];
  ++stats_.connect_attempts;
  if (peer.backoff > 0) ++stats_.reconnects;

  sockaddr_in addr{};
  const int fd = resolve_ipv4(peer.host, peer.port, &addr)
                     ? make_tcp_socket()
                     : -1;
  if (fd >= 0 &&
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 &&
      errno != EINPROGRESS) {
    ::close(fd);
    schedule_redial(peer_index);
    return;
  }
  if (fd < 0) {
    schedule_redial(peer_index);
    return;
  }

  auto conn = std::make_unique<Connection>(loop_, fd, /*connecting=*/true,
                                           opts_.max_frame_bytes,
                                           opts_.send_queue_max_bytes);
  conn->set_established_handler([this, peer_index](Connection& c) {
    peers_[peer_index].backoff = 0;
    peers_[peer_index].ever_connected = true;
    if (!local_pids_.empty()) {
      c.send_frame({encode_hello_frame(local_pids_)});
    }
    ping_clock(c);  // first offset sample as soon as the link is up
  });
  conn->set_frame_handler([this](Connection& c, DecodedFrame f) {
    on_frame(c, std::move(f));
  });
  conn->set_close_handler([this, peer_index](Connection& c) {
    forget_learned(&c);
    clock_.erase(&c);
    retired_ = accumulate(retired_, c.stats());
    schedule_redial(peer_index);
  });
  peer.conn = std::move(conn);
  peer.conn->start();
}

void Transport::schedule_redial(std::size_t peer_index) {
  if (shutdown_) return;
  Peer& peer = peers_[peer_index];
  const Time min = opts_.reconnect_backoff_min;
  const Time max = opts_.reconnect_backoff_max;
  peer.backoff = peer.backoff == 0 ? min : std::min(peer.backoff * 2, max);
  // The old Connection object (if any) is destroyed here, on the timer —
  // never synchronously inside its own close handler.
  loop_.schedule(peer.backoff, [this, peer_index] {
    if (shutdown_) return;
    peers_[peer_index].conn.reset();
    dial(peer_index);
  });
}

void Transport::handle_accept() {
  while (true) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;  // transient accept failure; the listener stays up
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    ++stats_.inbound_accepted;
    auto conn = std::make_unique<Connection>(loop_, fd, /*connecting=*/false,
                                             opts_.max_frame_bytes,
                                             opts_.send_queue_max_bytes);
    Connection* raw = conn.get();
    conn->set_frame_handler([this](Connection& c, DecodedFrame f) {
      on_frame(c, std::move(f));
    });
    conn->set_close_handler([this](Connection& c) {
      if (c.decode_error() != FrameDecoder::Error::kNone) {
        ++stats_.inbound_resets;
      }
      forget_learned(&c);
      clock_.erase(&c);
      retired_ = accumulate(retired_, c.stats());
      // Destruction is deferred to a posted task: this handler runs inside
      // the connection's own event dispatch.
      loop_.post([this] { reap_inbound(); });
    });
    inbound_.push_back(std::move(conn));
    raw->start();
    ping_clock(*raw);
  }
}

void Transport::reap_inbound() {
  inbound_.erase(std::remove_if(inbound_.begin(), inbound_.end(),
                                [](const std::unique_ptr<Connection>& c) {
                                  return c->closed();
                                }),
                 inbound_.end());
}

void Transport::forget_learned(Connection* conn) {
  for (auto it = learned_.begin(); it != learned_.end();) {
    if (it->second == conn) {
      it = learned_.erase(it);
    } else {
      ++it;
    }
  }
}

void Transport::on_frame(Connection& conn, DecodedFrame frame) {
  switch (frame.type) {
    case FrameType::kHello: {
      const auto pids = decode_hello_body(BytesView(frame.body));
      if (!pids) {
        ++stats_.dropped_decode;
        conn.close();
        return;
      }
      for (const ProcessId pid : *pids) {
        // Static routes win: a HELLO cannot hijack a configured replica pid.
        if (pid_peer_.find(pid) == pid_peer_.end()) learned_[pid] = &conn;
      }
      return;
    }
    case FrameType::kWireMessage: {
      auto msg = decode_wire_body(BytesView(frame.body), frame.flags);
      if (!msg) {
        ++stats_.dropped_decode;
        return;
      }
      if (msg->sent_at >= 0) {
        // The wire carried the sender-clock send timestamp; translate it
        // into our clock domain via this link's offset estimate. Without a
        // completed ping/pong exchange the domains are incomparable — leave
        // the stamp unset rather than produce a garbage transit span.
        const auto it = clock_.find(&conn);
        if (it != clock_.end() && it->second.samples > 0) {
          const Time local = msg->sent_at - it->second.offset;
          msg->sent_at = local >= 0 ? local : -1;
        } else {
          msg->sent_at = -1;
        }
      }
      ++stats_.messages_received;
      if (handler_) handler_(std::move(*msg));
      return;
    }
    case FrameType::kClockPing: {
      const auto ping = decode_clock_ping_body(BytesView(frame.body));
      if (!ping) {
        ++stats_.dropped_decode;
        return;
      }
      conn.send_frame({encode_clock_pong_frame(ping->t0, loop_.now())});
      return;
    }
    case FrameType::kClockPong: {
      const auto pong = decode_clock_pong_body(BytesView(frame.body));
      if (!pong) {
        ++stats_.dropped_decode;
        return;
      }
      const Time t3 = loop_.now();
      if (pong->t0 < 0 || pong->t0 > t3) return;  // stale or forged echo
      ++stats_.clock_pongs_received;
      const Time rtt = t3 - pong->t0;
      ClockSync& sync = clock_[&conn];
      if (sync.samples == 0 || rtt <= sync.min_rtt) {
        // RTT-midpoint correction at the lowest RTT observed: the tighter
        // the exchange, the tighter the bound on the true offset.
        sync.min_rtt = rtt;
        sync.offset = pong->t_peer - (pong->t0 + t3) / 2;
      }
      ++sync.samples;
      return;
    }
  }
}

Connection* Transport::route(ProcessId to) {
  const auto peer_it = pid_peer_.find(to);
  if (peer_it != pid_peer_.end()) {
    Connection* conn = peers_[peer_it->second].conn.get();
    return (conn != nullptr && !conn->closed()) ? conn : nullptr;
  }
  const auto learned_it = learned_.find(to);
  if (learned_it != learned_.end() && !learned_it->second->closed()) {
    return learned_it->second;
  }
  return nullptr;
}

void Transport::send(const sim::WireMessage& msg) {
  if (shutdown_) return;
  const Time delay = delay_fn_ ? delay_fn_(msg.to) : 0;
  if (delay > 0) {
    // Buffer payload is ref-counted: the captured copy shares bytes.
    loop_.schedule(delay, [this, msg] {
      if (!shutdown_) send_now(msg);
    });
    return;
  }
  send_now(msg);
}

void Transport::send_now(const sim::WireMessage& msg) {
  Connection* conn = route(msg.to);
  if (conn == nullptr) {
    ++stats_.dropped_no_route;
    return;
  }
  if (conn->send_frame(encode_wire_frame(msg))) {
    ++stats_.messages_sent;
  } else {
    ++stats_.dropped_queue_full;
  }
}

void Transport::shutdown() {
  shutdown_ = true;
  if (listen_fd_ >= 0) {
    loop_.del_fd(listen_fd_);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  learned_.clear();
  clock_.clear();
  // Each close handler folds its connection into retired_; under shutdown_
  // it schedules no redial.
  for (Peer& peer : peers_) {
    if (peer.conn) {
      peer.conn->close();
      peer.conn.reset();
    }
  }
  for (auto& conn : inbound_) conn->close();
  inbound_.clear();
}

Connection::Stats Transport::accumulate(Connection::Stats total,
                                        const Connection::Stats& s) {
  total.bytes_in += s.bytes_in;
  total.bytes_out += s.bytes_out;
  total.frames_in += s.frames_in;
  total.frames_out += s.frames_out;
  total.frames_dropped += s.frames_dropped;
  total.send_queue_high_water =
      std::max(total.send_queue_high_water, s.send_queue_high_water);
  return total;
}

Transport::Stats Transport::stats() const {
  Stats out = stats_;
  // A closed connection is already in retired_ (its close handler folded
  // it) while it waits for its redial or reap.
  Connection::Stats conn_total = retired_;
  for (const Peer& peer : peers_) {
    if (peer.conn && !peer.conn->closed()) {
      conn_total = accumulate(conn_total, peer.conn->stats());
    }
  }
  for (const auto& conn : inbound_) {
    if (!conn->closed()) conn_total = accumulate(conn_total, conn->stats());
  }
  out.bytes_sent = conn_total.bytes_out;
  out.bytes_received = conn_total.bytes_in;
  out.send_queue_high_water = conn_total.send_queue_high_water;
  return out;
}

std::vector<Transport::LinkClock> Transport::link_clocks() const {
  std::vector<LinkClock> out;
  out.reserve(clock_.size());
  const auto sync_of = [this](const Connection* conn) -> const ClockSync* {
    const auto it = clock_.find(conn);
    return it == clock_.end() ? nullptr : &it->second;
  };
  for (const Peer& peer : peers_) {
    const ClockSync* sync = sync_of(peer.conn.get());
    if (sync == nullptr) continue;
    LinkClock lc;
    if (!peer.pids.empty()) lc.pid = peer.pids.front();
    lc.outbound = true;
    lc.offset = sync->offset;
    lc.min_rtt = sync->min_rtt;
    lc.samples = sync->samples;
    out.push_back(lc);
  }
  for (const auto& conn : inbound_) {
    const ClockSync* sync = sync_of(conn.get());
    if (sync == nullptr) continue;
    LinkClock lc;
    for (const auto& [pid, learned_conn] : learned_) {
      if (learned_conn == conn.get() &&
          (!lc.pid.valid() || pid.value < lc.pid.value)) {
        lc.pid = pid;
      }
    }
    lc.offset = sync->offset;
    lc.min_rtt = sync->min_rtt;
    lc.samples = sync->samples;
    out.push_back(lc);
  }
  return out;
}

bool Transport::all_peers_connected() const {
  for (const Peer& peer : peers_) {
    if (!peer.conn || !peer.conn->established()) return false;
  }
  return true;
}

}  // namespace byzcast::net
