// TCP transport for one process of a cluster: a listener for inbound
// connections, one managed outbound connection per configured peer
// (reconnect-on-failure with exponential backoff), and pid-based routing of
// sim::WireMessage frames.
//
// Routing: pids of configured peers (the cluster's replica daemons) route
// over the managed outbound connection to that peer — frames sent while the
// dial is still in flight queue on the connection and flush at
// establishment. Pids *learned* from an inbound HELLO (clients: the load
// generator announces its client pids on every connection it dials) route
// back over that inbound connection and are forgotten when it closes.
// Anything else is dropped and counted, like a packet with no route.
//
// Per-link artificial delay (the Table I WAN emulation): a delay resolver
// maps a destination pid to a one-way delay; outgoing frames are held on the
// loop's timer heap for that long before hitting the socket. Zero-delay
// sends skip the heap entirely.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/metrics.hpp"
#include "net/connection.hpp"
#include "net/event_loop.hpp"
#include "net/frame.hpp"
#include "sim/wire.hpp"

namespace byzcast::net {

struct TransportOptions {
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  std::size_t send_queue_max_bytes = 8u * 1024 * 1024;
  Time reconnect_backoff_min = 50 * kMillisecond;
  Time reconnect_backoff_max = 2 * kSecond;
};

class Transport {
 public:
  struct Stats {
    std::uint64_t messages_sent = 0;
    std::uint64_t messages_received = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t bytes_received = 0;
    std::uint64_t dropped_no_route = 0;
    std::uint64_t dropped_queue_full = 0;
    std::uint64_t dropped_decode = 0;   // malformed wire bodies
    std::uint64_t connect_attempts = 0;
    std::uint64_t reconnects = 0;       // attempts after a failure
    std::uint64_t inbound_accepted = 0;
    std::uint64_t inbound_resets = 0;   // framing violations / errors
    std::uint64_t send_queue_high_water = 0;  // bytes; a level
    std::uint64_t clock_pings_sent = 0;
    std::uint64_t clock_pongs_received = 0;
  };
  /// Every Stats field by its published name (net.transport.<name>).
  static constexpr StatField<Stats> kStatFields[] = {
      {"messages_sent", &Stats::messages_sent},
      {"messages_received", &Stats::messages_received},
      {"bytes_sent", &Stats::bytes_sent},
      {"bytes_received", &Stats::bytes_received},
      {"dropped_no_route", &Stats::dropped_no_route},
      {"dropped_queue_full", &Stats::dropped_queue_full},
      {"dropped_decode", &Stats::dropped_decode},
      {"connect_attempts", &Stats::connect_attempts},
      {"reconnects", &Stats::reconnects},
      {"inbound_accepted", &Stats::inbound_accepted},
      {"inbound_resets", &Stats::inbound_resets},
      {"send_queue_high_water", &Stats::send_queue_high_water,
       /*gauge=*/true},
      {"clock_pings_sent", &Stats::clock_pings_sent},
      {"clock_pongs_received", &Stats::clock_pongs_received},
  };

  /// Clock-sync state of one live connection: `offset` maps the peer's clock
  /// into ours (local = peer_time - offset), taken at the RTT midpoint of
  /// the best (lowest-RTT) ping/pong exchange so far. `pid` identifies the
  /// link: the first configured pid for outbound peers, the first learned
  /// pid for inbound connections (invalid before any HELLO).
  struct LinkClock {
    ProcessId pid{};
    bool outbound = false;
    Time offset = 0;
    Time min_rtt = -1;
    std::uint64_t samples = 0;
  };

  using MessageHandler = std::function<void(sim::WireMessage)>;
  /// One-way artificial delay to apply before an outgoing frame for `to`
  /// reaches the socket; null or zero result = no delay.
  using DelayFn = std::function<Time(ProcessId to)>;

  Transport(EventLoop& loop, TransportOptions opts);
  ~Transport();

  void set_handler(MessageHandler h) { handler_ = std::move(h); }
  void set_delay_fn(DelayFn fn) { delay_fn_ = std::move(fn); }
  /// Pids hosted by this process, announced via HELLO on every dialed
  /// connection. Call before connect_all().
  void set_local_pids(std::vector<ProcessId> pids) {
    local_pids_ = std::move(pids);
  }

  /// Binds and listens; port 0 picks an ephemeral port (see listen_port()).
  /// False (with `error` prose) when bind fails. Pre-run or loop thread.
  bool listen(const std::string& host, std::uint16_t port,
              std::string* error = nullptr);
  [[nodiscard]] std::uint16_t listen_port() const { return listen_port_; }

  /// Declares a peer endpoint hosting `pids`. Pre-connect_all() only.
  void add_peer(const std::string& host, std::uint16_t port,
                std::vector<ProcessId> pids);

  /// Starts dialing every declared peer. Loop thread (or posted to it).
  void connect_all();

  /// Routes one message; loop thread only. Drops (counted) without a route.
  void send(const sim::WireMessage& msg);

  /// Closes every connection and stops reconnecting. Loop thread.
  void shutdown();

  [[nodiscard]] Stats stats() const;
  /// Per-connection clock-sync snapshots (loop thread only).
  [[nodiscard]] std::vector<LinkClock> link_clocks() const;
  /// True once every configured peer's outbound connection is established.
  [[nodiscard]] bool all_peers_connected() const;

 private:
  struct Peer {
    std::string host;
    std::uint16_t port = 0;
    std::vector<ProcessId> pids;
    std::unique_ptr<Connection> conn;
    Time backoff = 0;
    bool ever_connected = false;
  };

  struct ClockSync {
    Time offset = 0;
    Time min_rtt = -1;
    std::uint64_t samples = 0;
  };

  void dial(std::size_t peer_index);
  void schedule_redial(std::size_t peer_index);
  void handle_accept();
  void reap_inbound();
  void forget_learned(Connection* conn);
  void on_frame(Connection& conn, DecodedFrame frame);
  void send_now(const sim::WireMessage& msg);
  void ping_clock(Connection& conn);
  void start_clock_sync();
  [[nodiscard]] Connection* route(ProcessId to);
  [[nodiscard]] static Connection::Stats accumulate(
      Connection::Stats total, const Connection::Stats& s);

  EventLoop& loop_;
  TransportOptions opts_;
  MessageHandler handler_;
  DelayFn delay_fn_;
  std::vector<ProcessId> local_pids_;

  int listen_fd_ = -1;
  std::uint16_t listen_port_ = 0;

  std::vector<Peer> peers_;
  std::unordered_map<ProcessId, std::size_t> pid_peer_;
  /// Inbound connections, keyed by object identity.
  std::vector<std::unique_ptr<Connection>> inbound_;
  /// Learned routes from HELLO frames on inbound connections.
  std::unordered_map<ProcessId, Connection*> learned_;

  bool shutdown_ = false;
  bool clock_sync_started_ = false;
  /// Peer-clock offsets per live connection; erased when it closes.
  std::unordered_map<const Connection*, ClockSync> clock_;
  Stats stats_;
  /// Byte/frame counters carried over from connections already destroyed.
  Connection::Stats retired_;
};

}  // namespace byzcast::net
