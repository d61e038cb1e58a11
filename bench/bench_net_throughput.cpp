// Net backend vs runtime backend on the same workload: the cost of real TCP.
//
// Both backends run the identical 3-target-group tree (root g0 with children
// g1, g2 — the checked-in deployment shape), f=1, closed-loop clients, 50%
// global messages. The runtime backend is threads + in-process mailboxes;
// the net backend is an InProcessCluster — 12 replica processes' worth of
// ClusterNodes plus a client node, each on its own event loop, talking over
// real localhost sockets. The delta between the two columns is the wire:
// framing, syscalls, epoll wakeups.
//
// Emits BENCH_net.json with both backends' numbers, the net/runtime ratio,
// and the verdict of the five atomic-multicast property checkers per run (a
// throughput figure from a run that broke ordering would be meaningless).
// Exits nonzero on any incomplete workload or property violation.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.hpp"
#include "core/properties.hpp"
#include "net/cluster.hpp"
#include "net/config.hpp"
#include "runtime/parallel_system.hpp"
#include "workload/driver.hpp"
#include "workload/report.hpp"

namespace {

using namespace byzcast;

constexpr int kClients = 2;
constexpr int kMsgsPerClient = 150;
constexpr std::size_t kPayload = 64;
constexpr double kGlobalFraction = 0.5;

struct BackendResult {
  std::string backend;
  int completed = 0;
  double elapsed_ms = 0.0;
  double throughput = 0.0;
  double latency_mean_ms = 0.0;
  double latency_p95_ms = 0.0;
  std::uint64_t deliveries = 0;
  bool properties_ok = false;
  std::string properties_error;
  // net only: summed over the replica nodes' registries
  std::uint64_t wire_messages = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t views_installed = 0;
  std::uint64_t state_transfers = 0;
  std::uint64_t snapshot_restores = 0;
};

using Counters = bft::Replica::Counters;
using TransportStats = net::Transport::Stats;

/// Sum over `nodes` of every counter whose name starts with `prefix`.
std::uint64_t sum_counters(const std::vector<MetricsRegistry*>& nodes,
                           const std::string& prefix) {
  std::uint64_t total = 0;
  for (const MetricsRegistry* reg : nodes) total += reg->counter_sum(prefix);
  return total;
}

/// The catch-up counters a net row and its FAIL: line carry.
std::string catch_ups(const BackendResult& r) {
  return "views_installed=" + std::to_string(r.views_installed) +
         " state_transfers=" + std::to_string(r.state_transfers) +
         " snapshot_restores=" + std::to_string(r.snapshot_restores);
}

net::ClusterConfig cluster_config() {
  std::string text = R"({"name": "bench", "f": 1, "seed": 29, "groups": [)";
  for (int g = 0; g < 3; ++g) {
    if (g > 0) text += ",";
    text += R"({"id": )" + std::to_string(g) + R"(, "target": true,)";
    text += g == 0 ? R"( "parent": null,)" : R"( "parent": 0,)";
    text += R"( "replicas": [)";
    for (int r = 0; r < 4; ++r) {
      if (r > 0) text += ",";
      text += R"({"host": "127.0.0.1", "port": )" +
              std::to_string(11000 + g * 10 + r) + "}";
    }
    text += "]}";
  }
  text += "]}";
  std::string err;
  auto cfg = net::ClusterConfig::parse(text, &err);
  if (!cfg) {
    std::fprintf(stderr, "config: %s\n", err.c_str());
    std::abort();
  }
  return *cfg;
}

/// Completion count, rate and latency of one column, from its driver.
void fill_client_side(BackendResult& r, workload::ClientDriver& driver,
                      std::chrono::steady_clock::time_point t0,
                      std::chrono::steady_clock::time_point t1) {
  const LatencyRecorder& latency = driver.sinks().latency_all;
  r.completed = static_cast<int>(driver.completed());
  r.elapsed_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  r.throughput = r.completed / (r.elapsed_ms / 1000.0);
  r.latency_mean_ms = latency.mean_ms();
  r.latency_p95_ms = latency.percentile_ms(95);
}

constexpr workload::ClientDriver::Options kDriverOptions{
    .payload_size = kPayload, .per_client_cap = kMsgsPerClient};

/// Both columns run the same workload: kMsgsPerClient closed-loop messages
/// per client, client c drawing destinations from the c-th fork of
/// Rng(cfg.seed).
workload::DestinationDraw mixed_draw() {
  return workload::pair_draw({GroupId{0}, GroupId{1}, GroupId{2}},
                             kGlobalFraction);
}

void add_clients(workload::ClientDriver& driver,
                 const std::vector<core::Client*>& clients,
                 std::uint64_t seed) {
  Rng seeder(seed);
  for (core::Client* client : clients) {
    driver.add_client(*client, seeder.fork());
  }
}

BackendResult run_runtime(const net::ClusterConfig& cfg) {
  runtime::ParallelOptions opts;
  opts.runtime.seed = cfg.seed;
  runtime::ParallelSystem system(cfg.tree(), cfg.f, opts);

  std::vector<core::Client*> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(&system.add_client("client" + std::to_string(c)));
  }
  workload::ClientDriver driver(system.env(), kDriverOptions, mixed_draw());
  add_clients(driver, clients, cfg.seed);

  system.start();
  const auto t0 = std::chrono::steady_clock::now();
  driver.start_closed_loop();
  driver.await_completed(kClients * kMsgsPerClient, std::chrono::minutes(5));
  const auto t1 = std::chrono::steady_clock::now();
  system.stop();

  BackendResult r;
  r.backend = "runtime";
  fill_client_side(r, driver, t0, t1);
  r.deliveries = system.delivery_log().total_deliveries();

  core::PropertyInput in;
  in.log = &system.delivery_log();
  in.sent = driver.sent();
  for (int g = 0; g < 3; ++g) {
    auto& grp = system.system().group(GroupId{g});
    for (const int i : grp.correct_indices()) {
      in.correct_replicas[GroupId{g}].push_back(grp.replica(i).id());
    }
  }
  const core::PropertyResult verdict = core::check_all_properties(in);
  r.properties_ok = verdict.ok;
  r.properties_error = verdict.error;
  return r;
}

/// `trace_sample_every` = 0 runs untraced; N traces every Nth message per
/// client (the deployment default is 64). The throughput delta between the
/// two net rows is the tracing overhead at that sampling rate.
BackendResult run_net(const net::ClusterConfig& cfg,
                      std::uint32_t trace_sample_every,
                      const std::string& backend_name) {
  net::InProcessCluster cluster(cfg);
  std::vector<core::Client*> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(&cluster.add_client("client" + std::to_string(c)));
    clients.back()->set_trace_sample_every(trace_sample_every);
  }
  cluster.start();

  workload::ClientDriver driver(cluster.client_node().env(), kDriverOptions,
                                mixed_draw());
  add_clients(driver, clients, cfg.seed);

  const auto t0 = std::chrono::steady_clock::now();
  driver.start_closed_loop();
  driver.await_completed(kClients * kMsgsPerClient, std::chrono::minutes(5));
  const auto t1 = std::chrono::steady_clock::now();

  // Stragglers catch up via anti-entropy (liveness cadence 1s, state
  // transfer rate limit 500ms): wait for cluster-wide delivery stability
  // longer than that cadence before reading the logs.
  std::uint64_t last = cluster.total_deliveries();
  auto stable_since = std::chrono::steady_clock::now();
  const auto drain_deadline = stable_since + std::chrono::seconds(60);
  while (std::chrono::steady_clock::now() < drain_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const std::uint64_t now = cluster.total_deliveries();
    if (now != last) {
      last = now;
      stable_since = std::chrono::steady_clock::now();
    } else if (std::chrono::steady_clock::now() - stable_since >
               std::chrono::milliseconds(2500)) {
      break;
    }
  }

  BackendResult r;
  r.backend = backend_name;
  fill_client_side(r, driver, t0, t1);
  r.deliveries = cluster.total_deliveries();
  cluster.stop();

  // Every replica node publishes its own seat and transport, as on a
  // /metrics scrape; the loops are stopped, so the reads are race-free.
  std::vector<MetricsRegistry*> nodes;
  for (int g = 0; g < 3; ++g) {
    for (int i = 0; i < 4; ++i) {
      net::ClusterNode& node = cluster.replica_node(GroupId{g}, i);
      node.refresh_net_metrics();
      nodes.push_back(&node.metrics());
    }
  }
  const auto transport = [&](std::uint64_t TransportStats::*field) {
    return sum_counters(nodes, std::string("net.transport.") +
                                   stat_name(net::Transport::kStatFields,
                                             field));
  };
  r.wire_messages = transport(&TransportStats::messages_sent);
  r.wire_bytes = transport(&TransportStats::bytes_sent);
  r.reconnects = transport(&TransportStats::reconnects);
  const auto replica = [&](std::uint64_t Counters::*field) {
    return sum_counters(nodes, std::string("replica.") +
                                   stat_name(bft::Replica::kCounterFields,
                                             field) +
                                   ".");
  };
  r.views_installed = replica(&Counters::views_installed);
  r.state_transfers = replica(&Counters::state_transfers);
  r.snapshot_restores = replica(&Counters::snapshot_restores);

  core::PropertyResult verdict = cluster.check_properties(driver.sent());
  if (verdict.ok && cluster.total_monitor_violations() > 0) {
    verdict.ok = false;
    verdict.error = "online monitor violations";
  }
  r.properties_ok = verdict.ok;
  r.properties_error = verdict.error;
  return r;
}

void write_bench_json(const std::vector<BackendResult>& results) {
  std::ofstream out("BENCH_net.json");
  if (!out) return;
  out << "{\"bench\":\"net_vs_runtime\",\"groups\":3,\"f\":1,"
      << "\"clients\":" << kClients
      << ",\"msgs_per_client\":" << kMsgsPerClient
      << ",\"global_fraction\":" << kGlobalFraction << ",\"backends\":[";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const BackendResult& r = results[i];
    if (i > 0) out << ",";
    out << "{\"backend\":\"" << r.backend << "\",\"completed\":" << r.completed
        << ",\"elapsed_ms\":" << r.elapsed_ms
        << ",\"throughput_msgs_s\":" << r.throughput
        << ",\"latency_mean_ms\":" << r.latency_mean_ms
        << ",\"latency_p95_ms\":" << r.latency_p95_ms
        << ",\"a_deliveries\":" << r.deliveries
        << ",\"properties_ok\":" << (r.properties_ok ? "true" : "false");
    if (!r.properties_ok) {
      out << ",\"properties_error\":\"" << r.properties_error << "\"";
    }
    if (r.backend != "runtime") {
      out << ",\"wire_messages\":" << r.wire_messages
          << ",\"wire_bytes\":" << r.wire_bytes
          << ",\"reconnects\":" << r.reconnects
          << ",\"views_installed\":" << r.views_installed
          << ",\"state_transfers\":" << r.state_transfers
          << ",\"snapshot_restores\":" << r.snapshot_restores;
    }
    out << "}";
  }
  out << "]";
  const auto by_name = [&](const std::string& name) -> const BackendResult* {
    for (const BackendResult& r : results) {
      if (r.backend == name) return &r;
    }
    return nullptr;
  };
  const BackendResult* rt = by_name("runtime");
  const BackendResult* net = by_name("net");
  const BackendResult* traced = by_name("net_traced");
  if (rt != nullptr && net != nullptr && rt->throughput > 0.0) {
    out << ",\"net_vs_runtime_throughput_ratio\":"
        << net->throughput / rt->throughput;
  }
  if (net != nullptr && traced != nullptr && net->throughput > 0.0) {
    // < 1.0 means tracing cost throughput; 1 - ratio is the overhead
    // fraction at the default 1/64 sampling.
    out << ",\"traced_vs_untraced_throughput_ratio\":"
        << traced->throughput / net->throughput;
  }
  out << "}\n";
}

}  // namespace

int main() {
  using workload::fmt;
  workload::print_header(
      "Net backend (real TCP) vs runtime backend, 3 groups, f=1, mixed");

  const net::ClusterConfig cfg = cluster_config();
  std::vector<BackendResult> results;
  results.push_back(run_runtime(cfg));
  results.push_back(run_net(cfg, /*trace_sample_every=*/0, "net"));
  results.push_back(run_net(cfg, /*trace_sample_every=*/64, "net_traced"));

  std::vector<std::vector<std::string>> rows;
  for (const BackendResult& r : results) {
    rows.push_back({r.backend, std::to_string(r.completed), fmt(r.throughput, 0),
                    fmt(r.latency_mean_ms, 2), fmt(r.latency_p95_ms, 2),
                    r.properties_ok ? "ok" : "VIOLATED"});
  }
  workload::print_table(
      {"backend", "completed", "msgs/s", "mean ms", "p95 ms", "properties"},
      rows);
  const BackendResult& nr = results[1];
  std::printf(
      "\nnet run: %llu wire messages, %.1f MiB on the wire, %llu reconnects. "
      "Wall-clock numbers are host-dependent; the runtime/net delta is the "
      "cost of framing + syscalls + epoll.\n",
      (unsigned long long)nr.wire_messages,
      static_cast<double>(nr.wire_bytes) / (1024.0 * 1024.0),
      (unsigned long long)nr.reconnects);
  for (const BackendResult& r : results) {
    if (r.backend != "runtime") {
      std::printf("%s catch-ups: %s\n", r.backend.c_str(),
                  catch_ups(r).c_str());
    }
  }

  write_bench_json(results);

  int failures = 0;
  for (const BackendResult& r : results) {
    const std::string counters =
        r.backend == "runtime" ? "" : " (" + catch_ups(r) + ")";
    if (r.completed != kClients * kMsgsPerClient) {
      std::printf("FAIL: %s backend completed %d/%d%s\n", r.backend.c_str(),
                  r.completed, kClients * kMsgsPerClient, counters.c_str());
      ++failures;
    }
    if (!r.properties_ok) {
      std::printf("FAIL: %s backend violates properties: %s%s\n",
                  r.backend.c_str(), r.properties_error.c_str(),
                  counters.c_str());
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}
