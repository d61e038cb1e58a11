// The two real-stack backends behind the client-loop seam. Both build the
// checked-in 3-group tree (g0 root, g1 and g2 its children, every group a
// target, f = 1) from the same ClusterConfig and the same protocol profile;
// the runtime one switches to real HMAC-SHA256 MACs.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <thread>

#include "client_loop.hpp"
#include "common/monitor.hpp"
#include "net/cluster.hpp"
#include "net/config.hpp"
#include "runtime/parallel_system.hpp"

namespace perfbench {

namespace {

constexpr int kGroups = 3;
// Executor workers of the runtime backend. Fixed, so the workload is the
// same on every host: three workers leave a core of a 4-core host to the
// load generator and the timer wheel, and more threads than cores would
// time the host's scheduler rather than the program.
constexpr std::size_t kRuntimeWorkers = 3;

net::ClusterConfig tree_config(std::uint64_t seed) {
  std::string text = R"({"name": "perfbench", "f": 1, "seed": )" +
                     std::to_string(seed) + R"(, "groups": [)";
  for (int g = 0; g < kGroups; ++g) {
    text += g == 0 ? "" : ",";
    text += R"({"id": )" + std::to_string(g) + R"(, "target": true, "parent": )";
    text += g == 0 ? "null" : "0";
    text += R"(, "replicas": [)";
    for (int r = 0; r < 4; ++r) {
      text += r == 0 ? "" : ",";
      // Nominal ports: InProcessCluster listens on ephemeral ones.
      text += R"({"host": "127.0.0.1", "port": )" +
              std::to_string(11000 + g * 10 + r) + "}";
    }
    text += "]}";
  }
  text += "]}";
  std::string err;
  auto cfg = net::ClusterConfig::parse(text, &err);
  if (!cfg) {
    std::fprintf(stderr, "perfbench: cluster config: %s\n", err.c_str());
    std::abort();
  }
  return *cfg;
}

void add_counters(ReplicaTotals& t, const bft::Replica& r) {
  const auto& c = r.counters();
  t.views_installed += c.views_installed;
  t.state_transfers += c.state_transfers;
  t.rejected_requests += c.rejected_requests;
  t.buffered_decisions += c.buffered_decisions;
  t.executed_requests += r.executed_requests();
  t.decided_instances += r.decided_instances();
  t.mac_memo_hits += r.mac_memo_hits();
}

class RuntimeBackend final : public Backend {
 public:
  explicit RuntimeBackend(const BackendOptions& opts)
      : cfg_(tree_config(opts.seed)), system_(cfg_.tree(), cfg_.f, [&] {
          runtime::ParallelOptions p;
          p.runtime.seed = opts.seed;
          p.runtime.workers = kRuntimeWorkers;
          p.runtime.profile = cfg_.profile();
          p.runtime.profile.fast_macs = false;  // real HMAC-SHA256
          p.obs.monitors = &monitors_;
          if (opts.trace_sample_every > 0) p.obs.spans = &spans_;
          return p;
        }()) {
    client_ = &system_.add_client("client0");
    client_->set_trace_sample_every(opts.trace_sample_every);
    system_.start();
  }

  core::Client& client() override { return *client_; }
  void post(std::function<void()> fn) override {
    system_.env().run_on(client_->id(), std::move(fn));
  }
  std::uint64_t total_deliveries() override {
    return system_.delivery_log().total_deliveries();
  }
  int replicas_per_group() const override { return cfg_.replicas_per_group(); }
  void stop() override { system_.stop(); }
  const core::DeliveryLog& delivery_log() override {
    return system_.delivery_log();
  }
  std::map<GroupId, std::vector<ProcessId>> correct_replicas() override {
    std::map<GroupId, std::vector<ProcessId>> out;
    for (int g = 0; g < kGroups; ++g) {
      auto& grp = system_.system().group(GroupId{g});
      for (const int i : grp.correct_indices()) {
        out[GroupId{g}].push_back(grp.replica(i).id());
      }
    }
    return out;
  }
  std::uint64_t monitor_violations() override {
    return monitors_.total_violations();
  }
  ReplicaTotals replica_totals() override {
    ReplicaTotals t;
    for (int g = 0; g < kGroups; ++g) {
      auto& grp = system_.system().group(GroupId{g});
      for (const int i : grp.correct_indices()) add_counters(t, grp.replica(i));
    }
    return t;
  }
  std::uint64_t wire_messages() override {
    return system_.env().network().sent();
  }
  void collect_spans(SpanLog& out) override {
    for (const Span& s : spans_.spans()) out.record(s);
  }

 private:
  net::ClusterConfig cfg_;
  MonitorHub monitors_;
  SpanLog spans_;
  runtime::ParallelSystem system_;  // after what its options point at
  core::Client* client_ = nullptr;
};

class NetBackend final : public Backend {
 public:
  explicit NetBackend(const BackendOptions& opts)
      : cluster_(tree_config(opts.seed)) {
    client_ = &cluster_.add_client("client0");
    client_->set_trace_sample_every(opts.trace_sample_every);
    cluster_.start();
    // Set-up ends once the client is connected to every replica.
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    while (!client_connected()) {
      if (Clock::now() > deadline) {
        std::fprintf(stderr, "perfbench: client never connected\n");
        std::abort();
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  ~NetBackend() override { NetBackend::stop(); }

  core::Client& client() override { return *client_; }
  void post(std::function<void()> fn) override {
    cluster_.client_node().env().post(std::move(fn));
  }
  std::uint64_t total_deliveries() override {
    return cluster_.total_deliveries();
  }
  int replicas_per_group() const override {
    return cluster_.resolved().replicas_per_group();
  }
  void stop() override {
    if (stopped_) return;
    stopped_ = true;
    cluster_.stop();
    // Each node's log holds exactly its own replica's records, so
    // concatenation keeps every per-replica delivery order.
    for_each_replica([&](GroupId, int, net::ClusterNode& node) {
      for (const auto& rec : node.delivery_log().records()) {
        merged_.record(rec.group, rec.replica, rec.msg, rec.when);
      }
    });
  }
  const core::DeliveryLog& delivery_log() override { return merged_; }
  std::map<GroupId, std::vector<ProcessId>> correct_replicas() override {
    std::map<GroupId, std::vector<ProcessId>> out;
    for_each_replica([&](GroupId g, int i, net::ClusterNode&) {
      out[g].push_back(cluster_.resolved().pid_of(g, i));
    });
    return out;
  }
  std::uint64_t monitor_violations() override {
    return cluster_.total_monitor_violations();
  }
  ReplicaTotals replica_totals() override {
    ReplicaTotals t;
    for_each_replica([&](GroupId g, int i, net::ClusterNode& node) {
      add_counters(t, node.system().group(g).replica(i));
    });
    return t;
  }
  std::uint64_t wire_messages() override { return net_totals().messages_sent; }
  NetTotals net_totals() override {
    NetTotals t;
    const auto add = [&t](net::ClusterNode& node) {
      const auto s = node.env().transport().stats();
      t.messages_sent += s.messages_sent;
      t.bytes_sent += s.bytes_sent;
      t.reconnects += s.reconnects;
      t.dropped_frames +=
          s.dropped_no_route + s.dropped_queue_full + s.dropped_decode;
      t.send_queue_high_water = std::max<std::uint64_t>(
          t.send_queue_high_water, s.send_queue_high_water);
    };
    for_each_replica([&](GroupId, int, net::ClusterNode& node) { add(node); });
    add(cluster_.client_node());
    return t;
  }
  /// Every node stamps spans on its own loop clock (steady ns since that
  /// loop was built); shift them all onto the client node's clock. The
  /// offsets are read back to back in one process, so they are exact to
  /// well under a microsecond.
  void collect_spans(SpanLog& out) override {
    net::ClusterNode& ref = cluster_.client_node();
    const auto shift = [&](net::ClusterNode& node) {
      const Time offset = node.env().loop().now() - ref.env().loop().now();
      for (Span s : node.spans().spans()) {
        s.begin -= offset;
        s.end -= offset;
        out.record(s);
      }
    };
    for_each_replica([&](GroupId, int, net::ClusterNode& node) { shift(node); });
    shift(ref);
  }

 private:
  template <typename Fn>
  void for_each_replica(Fn&& fn) {
    for (int g = 0; g < kGroups; ++g) {
      for (int i = 0; i < cluster_.resolved().replicas_per_group(); ++i) {
        fn(GroupId{g}, i, cluster_.replica_node(GroupId{g}, i));
      }
    }
  }

  bool client_connected() {
    auto done = std::make_shared<std::promise<bool>>();
    auto answer = done->get_future();
    net::ClusterNode& node = cluster_.client_node();
    node.env().post([&node, done] {
      done->set_value(node.env().transport().all_peers_connected());
    });
    return answer.get();
  }

  net::InProcessCluster cluster_;
  core::Client* client_ = nullptr;
  core::DeliveryLog merged_;
  bool stopped_ = false;
};

}  // namespace

std::unique_ptr<Backend> make_runtime_backend(const BackendOptions& opts) {
  return std::make_unique<RuntimeBackend>(opts);
}

std::unique_ptr<Backend> make_net_backend(const BackendOptions& opts) {
  return std::make_unique<NetBackend>(opts);
}

}  // namespace perfbench
