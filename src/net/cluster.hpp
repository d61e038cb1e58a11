// Cluster composition for the net backend.
//
// ClusterNode wires one OS process's slice of a ByzCast deployment: a NetEnv
// (ghost-actor composition — see env.hpp), the full ByzCastSystem built
// against it, and the transport wiring derived from a ClusterConfig. A node
// is either a replica daemon (identity = one (group, replica) seat; hosts
// exactly that pid, listens on its configured endpoint) or a client-only
// process (the load generator: hosts no replica, only locally created
// clients, needs no listener — replies arrive over the connections it
// dials).
//
// InProcessCluster runs a whole cluster inside one process for tests and
// benchmarks — N ClusterNodes, each with its own event-loop thread, talking
// over real localhost TCP. Ephemeral ports: every replica listens on port 0
// first, the actual ports are collected into a resolved config, and only
// then does anyone dial. It is the same code path as the multi-process
// deployment minus fork/exec.
#pragma once

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.hpp"
#include "common/monitor.hpp"
#include "common/span.hpp"
#include "core/client.hpp"
#include "core/properties.hpp"
#include "core/system.hpp"
#include "net/config.hpp"
#include "net/env.hpp"
#include "net/introspect.hpp"

namespace byzcast::net {

/// A stats struct as one JSON object keyed by its StatField table's names
/// (/healthz, the loadgen summary).
template <typename Stats, std::size_t N>
[[nodiscard]] Json stats_json(const StatField<Stats> (&table)[N],
                              const Stats& stats) {
  Json j = Json::object();
  for (const StatField<Stats>& f : table) {
    j.set(f.name, Json::number(stats.*f.field));
  }
  return j;
}

struct NodeIdentity {
  GroupId group;
  int replica = 0;
};

class ClusterNode {
 public:
  /// `self` = the replica seat this process owns; nullopt = client-only.
  /// Builds the full system (ghosts included) but does not touch the
  /// network yet.
  ClusterNode(ClusterConfig cfg, std::optional<NodeIdentity> self);
  ~ClusterNode();

  /// Replica daemons: bind the configured endpoint (or an ephemeral port
  /// when `ephemeral`). Client-only nodes need no listener.
  bool listen(std::string* error, bool ephemeral = false);
  [[nodiscard]] std::uint16_t listen_port() const {
    return env_->transport().listen_port();
  }

  /// Creates a local client. Before connect()/start() only (the client's
  /// pid must make it into the HELLO announcement).
  core::Client& add_client(const std::string& name);

  /// Dials every remote replica of `resolved` (the config with real ports)
  /// and installs the WAN delay model. Before start().
  void connect(const ClusterConfig& resolved);

  /// Starts the HTTP introspection server (net/introspect.hpp) on `port`
  /// (0 = ephemeral, see introspect_port()), serving the standard endpoint
  /// set: /metrics (Prometheus text), /healthz (liveness + consensus
  /// progress JSON), /spans (raw span drain for the collector, ?from=
  /// cursor), /dump (delivery dump on demand) and /clock (timestamp echo
  /// for collector-side offset estimation). Call between construction and
  /// start()/run(); the server shares the node's event loop, so handlers
  /// read all process state race-free.
  bool start_introspect(std::uint16_t port, std::string* error);
  [[nodiscard]] std::uint16_t introspect_port() const {
    return introspect_ ? introspect_->port() : 0;
  }
  [[nodiscard]] IntrospectServer* introspect() { return introspect_.get(); }

  /// Publishes the local seat's replica counters (replica.*; ghosts
  /// publish nothing) and the transport / NetEnv / link-clock stats (net.*)
  /// into the metrics registry. Called by the /metrics handler before
  /// rendering and by the daemon before writing artifacts.
  void refresh_net_metrics();

  /// The node's /healthz document (byzcast-healthz-v1).
  [[nodiscard]] Json healthz_json();

  void start() { env_->start(); }  // background loop thread
  void run() { env_->run(); }      // blocking (daemon main)
  void stop() { env_->stop(); }

  [[nodiscard]] NetEnv& env() { return *env_; }
  [[nodiscard]] core::ByzCastSystem& system() { return *system_; }
  [[nodiscard]] const ClusterConfig& config() const { return cfg_; }
  [[nodiscard]] const std::optional<NodeIdentity>& self() const {
    return self_;
  }
  [[nodiscard]] ProcessId self_pid() const { return self_pid_; }
  /// "g2_r0" for replica seats, "client" otherwise; names dump files.
  [[nodiscard]] std::string node_name() const;
  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] MonitorHub& monitors() { return monitors_; }
  [[nodiscard]] SpanLog& spans() { return spans_; }
  [[nodiscard]] core::DeliveryLog& delivery_log() {
    return system_->delivery_log();
  }
  [[nodiscard]] const std::vector<std::unique_ptr<core::Client>>& clients()
      const {
    return clients_;
  }

 private:
  /// The replica this process owns; null for a client-only node.
  [[nodiscard]] const bft::Replica* seat() const;

  ClusterConfig cfg_;
  std::optional<NodeIdentity> self_;
  ProcessId self_pid_;
  MetricsRegistry metrics_;
  MonitorHub monitors_;
  SpanLog spans_;
  std::unique_ptr<NetEnv> env_;
  std::unique_ptr<core::ByzCastSystem> system_;
  std::unique_ptr<IntrospectServer> introspect_;
  std::vector<std::unique_ptr<core::Client>> clients_;
};

class InProcessCluster {
 public:
  /// One ClusterNode per replica seat plus one client-only node, each
  /// listening on an ephemeral port. Every node (client included) also gets
  /// an ephemeral introspection server; the real ports are folded into
  /// resolved(), so a collector can scrape the in-process cluster exactly
  /// like a multi-process one. Add clients (add_client) before start().
  explicit InProcessCluster(ClusterConfig cfg);
  ~InProcessCluster();

  core::Client& add_client(const std::string& name) {
    return client_node_->add_client(name);
  }

  /// Connects everyone against the resolved (real-port) config and starts
  /// every loop.
  void start();
  void stop();

  /// Simulates a process kill mid-run: stops the node's loop and tears its
  /// sockets down; peers reconnect-retry against nothing. The seat is
  /// excluded from the correct set of check_properties().
  void kill_replica(GroupId g, int replica);

  [[nodiscard]] ClusterNode& replica_node(GroupId g, int replica);
  [[nodiscard]] ClusterNode& client_node() { return *client_node_; }
  [[nodiscard]] const ClusterConfig& resolved() const { return resolved_; }

  /// Sum of a-deliveries across live replica nodes (quiescence poll).
  [[nodiscard]] std::uint64_t total_deliveries() const;
  [[nodiscard]] std::uint64_t total_monitor_violations() const;

  /// Merges the per-node delivery logs and checks the five properties
  /// against `sent`; killed seats are not required to have delivered.
  [[nodiscard]] core::PropertyResult check_properties(
      const std::vector<core::SentMessage>& sent) const;

 private:
  [[nodiscard]] std::size_t node_index(GroupId g, int replica) const;

  ClusterConfig resolved_;
  std::vector<std::unique_ptr<ClusterNode>> replica_nodes_;  // pid order
  std::unique_ptr<ClusterNode> client_node_;
  std::set<std::pair<std::int32_t, int>> killed_;
  bool started_ = false;
};

}  // namespace byzcast::net
