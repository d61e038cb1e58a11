// byzcast-loadgen: load generator for a running byzcastd cluster, plus the
// offline dump checker that turns per-process artifacts back into a global
// property verdict. Both load modes run workload::ClientDriver — the same
// client loop the simulator harness and the wall-clock benches use — on
// this process's NetEnv; the driver enters the client node's event loop
// through NetEnv::run_on.
//
// Load mode (default):
//   byzcast-loadgen --config cluster.json --out-dir run/ \
//       --clients 2 --msgs 100 --global-fraction 0.5 --payload 64
// Issues `msgs` messages per client closed-loop (next message from the
// completion callback), a `global-fraction` share addressed to a random
// pair of target groups and the rest to a single random target. Writes the
// sent dump (sent_client.json), a latency/throughput summary
// (loadgen_summary.json) and a CSV series row (loadgen.csv) to --out-dir.
// Exit 0 iff every message completed before --timeout-s.
//
// Workload mode:
//   byzcast-loadgen --config cluster.json --workload spec.json --out-dir run/
// Drives the cluster OPEN-LOOP from a workload spec
// (configs/workloads/*.json): a wall-clock RateController on the main
// thread paces Poisson arrivals (ClientDriver::fire) at the spec's rate
// (fixed or step schedule; drift-corrected, so scheduler jitter does not
// shave the offered load), destinations come from the spec's pattern —
// including Zipf skew and the per-class local/global rate split — and
// clients_per_group / payload / warmup / duration are read from the spec.
// Emits the same artifacts as load mode. Exit 0 iff every fired arrival
// completed before the post-run grace timeout.
//
// Check mode:
//   byzcast-loadgen --check-dumps --config cluster.json --dir run/ \
//       [--exclude g0:r1 ...]
// Merges every delivery_*.json / sent_*.json under --dir and runs the five
// atomic-multicast property checkers plus the online-monitor violation sum.
// Exit 0 iff everything holds. --exclude marks seats (killed daemons) whose
// dumps impose no obligations.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.hpp"
#include "net/cluster.hpp"
#include "net/dump.hpp"
#include "workload/driver.hpp"
#include "workload/rate.hpp"
#include "workload/report.hpp"
#include "workload/spec.hpp"

namespace {

using namespace byzcast;

struct Args {
  std::string config;
  std::string out_dir = ".";
  std::string dir;
  std::string workload;  // spec path; non-empty selects workload mode
  bool check_dumps = false;
  int clients = 2;
  int msgs = 100;
  double global_fraction = 0.5;
  std::size_t payload = 64;
  int timeout_s = 120;
  /// Span-tracing sampling period: every n-th message per client is traced.
  /// -1 = auto: 64 when the config enables client introspection, else off.
  int trace_sample_every = -1;
  /// Keep the client process alive (serving its introspection endpoints)
  /// for this long after the run, so a collector can scrape the
  /// client-side end-to-end spans before they vanish with the process.
  int linger_s = 0;
  std::set<std::pair<std::int32_t, int>> excluded;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "byzcast-loadgen: %s needs a value\n",
                     a.c_str());
        return nullptr;
      }
      return argv[++i];
    };
    if (a == "--check-dumps") {
      args.check_dumps = true;
    } else if (a == "--config") {
      const char* v = value();
      if (!v) return std::nullopt;
      args.config = v;
    } else if (a == "--out-dir") {
      const char* v = value();
      if (!v) return std::nullopt;
      args.out_dir = v;
    } else if (a == "--dir") {
      const char* v = value();
      if (!v) return std::nullopt;
      args.dir = v;
    } else if (a == "--workload") {
      const char* v = value();
      if (!v) return std::nullopt;
      args.workload = v;
    } else if (a == "--clients") {
      const char* v = value();
      if (!v) return std::nullopt;
      args.clients = std::atoi(v);
    } else if (a == "--msgs") {
      const char* v = value();
      if (!v) return std::nullopt;
      args.msgs = std::atoi(v);
    } else if (a == "--global-fraction") {
      const char* v = value();
      if (!v) return std::nullopt;
      args.global_fraction = std::atof(v);
    } else if (a == "--payload") {
      const char* v = value();
      if (!v) return std::nullopt;
      args.payload = static_cast<std::size_t>(std::atol(v));
    } else if (a == "--timeout-s") {
      const char* v = value();
      if (!v) return std::nullopt;
      args.timeout_s = std::atoi(v);
    } else if (a == "--trace-sample-every") {
      const char* v = value();
      if (!v) return std::nullopt;
      args.trace_sample_every = std::atoi(v);
    } else if (a == "--linger-s") {
      const char* v = value();
      if (!v) return std::nullopt;
      args.linger_s = std::atoi(v);
    } else if (a == "--exclude") {
      const char* v = value();
      if (!v) return std::nullopt;
      int g = -1;
      int r = -1;
      if (std::sscanf(v, "g%d:r%d", &g, &r) != 2) {
        std::fprintf(stderr,
                     "byzcast-loadgen: --exclude expects gN:rM, got %s\n", v);
        return std::nullopt;
      }
      args.excluded.insert({g, r});
    } else {
      std::fprintf(stderr, "byzcast-loadgen: unknown argument %s\n",
                   a.c_str());
      return std::nullopt;
    }
  }
  if (args.config.empty() || (args.check_dumps && args.dir.empty())) {
    std::fprintf(stderr,
                 "usage: byzcast-loadgen --config FILE [--out-dir DIR "
                 "--clients N --msgs N --global-fraction F --payload B "
                 "--timeout-s S --trace-sample-every N --linger-s S]\n"
                 "       byzcast-loadgen --config FILE --workload SPEC.json "
                 "[--out-dir DIR --timeout-s S]\n"
                 "       byzcast-loadgen --check-dumps --config FILE "
                 "--dir DIR [--exclude gN:rM ...]\n");
    return std::nullopt;
  }
  return args;
}

int run_check(const Args& args, const net::ClusterConfig& cfg) {
  const net::DumpCheckResult r =
      net::check_cluster_dumps(cfg, args.dir, args.excluded);
  std::printf(
      "check-dumps: %s (%zu delivery files, %zu sent files, %zu "
      "deliveries, %zu sent, %llu monitor violations)\n",
      r.ok ? "OK" : "FAIL", r.delivery_files, r.sent_files, r.deliveries,
      r.sent_messages,
      static_cast<unsigned long long>(r.monitor_violations));
  if (!r.ok) std::fprintf(stderr, "check-dumps: %s\n", r.error.c_str());
  return r.ok ? 0 : 1;
}

/// Client-side observability setup shared by both load modes: starts the
/// introspection server when the config assigns the load generator one
/// (client_introspect_port), so a collector can scrape the client's
/// end-to-end spans, and resolves the span-sampling period (explicit flag
/// wins; otherwise sampling defaults on at 1/64 exactly when introspection
/// is on — spans nobody can scrape are wasted memory).
bool setup_client_observability(const net::ClusterConfig& cfg,
                                net::ClusterNode& node) {
  if (cfg.client_introspect_port == 0) return true;
  std::string error;
  if (!node.start_introspect(cfg.client_introspect_port, &error)) {
    std::fprintf(stderr, "byzcast-loadgen: %s\n", error.c_str());
    return false;
  }
  return true;
}

std::uint32_t effective_sample_every(const Args& args,
                                     const net::ClusterConfig& cfg) {
  if (args.trace_sample_every >= 0) {
    return static_cast<std::uint32_t>(args.trace_sample_every);
  }
  return cfg.client_introspect_port != 0 ? 64 : 0;
}

/// --linger-s: hold the process (and its introspection endpoints) open
/// after the run so the collector can still scrape /spans.
void linger(const Args& args) {
  if (args.linger_s <= 0) return;
  std::fprintf(stderr, "byzcast-loadgen: lingering %ds for collector scrapes\n",
               args.linger_s);
  std::this_thread::sleep_for(std::chrono::seconds(args.linger_s));
}

/// Connects and starts the client node, then waits for the full mesh
/// before offering load, so the first messages are not spent discovering
/// which daemons are still booting. False (node stopped) after 30 s.
bool start_connected(const net::ClusterConfig& cfg, net::ClusterNode& node) {
  node.connect(cfg);
  node.start();
  const auto connect_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!node.env().transport().all_peers_connected() &&
         std::chrono::steady_clock::now() < connect_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (!node.env().transport().all_peers_connected()) {
    std::fprintf(stderr,
                 "byzcast-loadgen: cluster not fully reachable after 30s\n");
    node.stop();
    return false;
  }
  return true;
}

std::vector<GroupId> target_ids(const net::ClusterConfig& cfg) {
  std::vector<GroupId> out;
  for (const net::GroupSpec& g : cfg.groups) {
    if (g.is_target) out.push_back(g.id);
  }
  return out;
}

/// Shared artifact emission for both load modes: sent dump (the checker's
/// ground truth for validity), JSON summary and CSV row.
void write_load_artifacts(const Args& args, net::ClusterNode& node,
                          workload::ClientDriver& driver, net::Json summary,
                          const char* csv_mode, int issued_total,
                          int completed, double elapsed_ms) {
  net::SentDump dump;
  dump.node = "client";
  dump.sent = driver.sent();
  std::string error;
  if (!net::write_json_file(args.out_dir + "/sent_client.json",
                            net::sent_dump_to_json(dump), &error)) {
    std::fprintf(stderr, "byzcast-loadgen: %s\n", error.c_str());
  }

  const LatencyRecorder& latency = driver.sinks().latency_all;
  const double throughput = completed / (elapsed_ms / 1000.0);
  summary.set("completed", net::Json::number(completed));
  summary.set("total", net::Json::number(issued_total));
  summary.set("elapsed_ms", net::Json::number(elapsed_ms));
  summary.set("throughput_msgs_s", net::Json::number(throughput));
  summary.set("latency_mean_ms", net::Json::number(latency.mean_ms()));
  summary.set("latency_p50_ms", net::Json::number(latency.percentile_ms(50)));
  summary.set("latency_p95_ms", net::Json::number(latency.percentile_ms(95)));
  summary.set("latency_p99_ms", net::Json::number(latency.percentile_ms(99)));
  const net::Json transport = net::stats_json(
      net::Transport::kStatFields, node.env().transport().stats());
  for (const auto& [key, value] : transport.members()) summary.set(key, value);
  if (!net::write_json_file(args.out_dir + "/loadgen_summary.json", summary,
                            &error)) {
    std::fprintf(stderr, "byzcast-loadgen: %s\n", error.c_str());
  }
  workload::write_series_csv(
      args.out_dir + "/loadgen.csv",
      {"mode", "clients", "total", "completed", "elapsed_ms",
       "throughput_msgs_s", "latency_mean_ms", "latency_p95_ms"},
      {{csv_mode, std::to_string(driver.clients()),
        std::to_string(issued_total), std::to_string(completed),
        std::to_string(elapsed_ms), std::to_string(throughput),
        std::to_string(latency.mean_ms()),
        std::to_string(latency.percentile_ms(95))}});
}

/// Open-loop workload mode: wall-clock RateControllers pace Poisson
/// arrivals per the spec's schedule; the loop thread owns generators,
/// recorders and the send path, the main thread only decides *when*.
int run_workload_load(const Args& args, const net::ClusterConfig& cfg,
                      const workload::WorkloadSpec& spec) {
  if (spec.schedule.kind == workload::RateSchedule::Kind::kSweep) {
    std::fprintf(stderr,
                 "byzcast-loadgen: sweep schedules are sim-only (run "
                 "bench_sweep); use a fixed or step rate over TCP\n");
    return 2;
  }
  const std::vector<double> rates =
      spec.schedule.kind == workload::RateSchedule::Kind::kStep
          ? spec.schedule.rates
          : std::vector<double>{spec.schedule.fixed_rate};
  for (const double r : rates) {
    if (r <= 0.0) {
      std::fprintf(stderr,
                   "byzcast-loadgen: workload mode needs a positive rate\n");
      return 2;
    }
  }

  net::ClusterNode node(cfg, std::nullopt);
  if (!setup_client_observability(cfg, node)) return 1;
  const std::uint32_t sample_every = effective_sample_every(args, cfg);

  const std::vector<GroupId> targets = target_ids(cfg);
  const int ngroups = static_cast<int>(targets.size());
  const int nclients = spec.base.clients_per_group * ngroups;

  workload::ClientDriver driver(
      node.env(), {.payload_size = spec.base.payload_size},
      workload::pattern_draw(spec.base.workload, targets,
                             static_cast<std::size_t>(nclients)));
  for (int c = 0; c < nclients; ++c) {
    core::Client& client = node.add_client("client" + std::to_string(c));
    client.set_trace_sample_every(sample_every);
    driver.add_client(client, node.env().fork_rng());
  }
  if (!start_connected(cfg, node)) return 1;

  const auto t0 = std::chrono::steady_clock::now();
  const auto elapsed_ns = [&t0] {
    return static_cast<Time>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
  };
  driver.sinks().latency_all.set_warmup(node.env().now() + spec.base.warmup);

  // One or two arrival processes, each with drift correction against the
  // shared wall clock; the main thread sleeps to the earliest next arrival.
  struct Proc {
    workload::RateController ctl;
    workload::DestClass cls;
    Time next_at;
  };
  const double share = spec.base.open_loop_local_share;
  std::vector<Proc> procs;
  Rng seed_rng(spec.base.seed ^ 0x9e3779b97f4a7c15ULL);
  const auto add_proc = [&](double rate, workload::DestClass cls) {
    if (rate <= 0.0) return;
    procs.push_back(Proc{workload::RateController(rate, seed_rng.fork(), 0),
                         cls, 0});
  };
  const auto retarget = [&](double total) {
    std::size_t i = 0;
    const auto apply = [&](double rate) {
      if (rate > 0.0 && i < procs.size()) procs[i++].ctl.set_rate(rate);
    };
    if (share >= 0.0) {
      const double s = std::min(1.0, std::max(0.0, share));
      apply(total * s);
      apply(total * (1.0 - s));
    } else {
      apply(total);
    }
  };
  if (share >= 0.0) {
    const double s = std::min(1.0, std::max(0.0, share));
    add_proc(rates[0] * s, workload::DestClass::kLocal);
    add_proc(rates[0] * (1.0 - s), workload::DestClass::kGlobal);
  } else {
    add_proc(rates[0], workload::DestClass::kPattern);
  }
  for (Proc& p : procs) p.next_at = p.ctl.next_delay(0);

  // Segments: warmup rides the first one; each subsequent step rate gets a
  // full `duration` window of its own.
  const Time segment = spec.base.duration;
  const Time horizon =
      spec.base.warmup + segment * static_cast<Time>(rates.size());
  std::size_t current_rate = 0;
  std::uint64_t fired = 0;
  while (true) {
    const Time now = elapsed_ns();
    if (now >= horizon) break;
    const std::size_t want = now <= spec.base.warmup + segment
        ? 0
        : static_cast<std::size_t>(
              (now - spec.base.warmup - 1) / segment);
    if (want > current_rate && want < rates.size()) {
      current_rate = want;
      retarget(rates[current_rate]);
    }
    Proc* next = &procs[0];
    for (Proc& p : procs) {
      if (p.next_at < next->next_at) next = &p;
    }
    if (next->next_at > now) {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(next->next_at - now));
    }
    driver.fire(next->cls);
    ++fired;
    next->next_at = elapsed_ns() + next->ctl.next_delay(elapsed_ns());
  }

  // Open loop has in-flight messages at the horizon; grant a grace window
  // for the tail to drain so the dump checker sees every send delivered.
  // Each fire() issues one message once its post runs on the loop thread,
  // so wait for as many completions as arrivals fired (counting issues
  // instead can miss a still-queued post and call the tail drained early).
  driver.await_completed(fired, std::chrono::seconds(args.timeout_s));
  const int issued_total = static_cast<int>(fired);
  const double elapsed_ms =
      static_cast<double>(elapsed_ns()) / 1e6;
  linger(args);
  node.stop();

  const int completed = static_cast<int>(driver.completed());
  double offered = 0.0;
  std::uint64_t behind = 0;
  for (const Proc& p : procs) behind += p.ctl.behind_ns();
  for (const double r : rates) offered += r;
  offered /= static_cast<double>(rates.size());

  net::Json summary = net::Json::object();
  summary.set("mode", net::Json::string("workload"));
  summary.set("workload", net::Json::string(spec.name));
  summary.set("offered_rate_msgs_s", net::Json::number(offered));
  summary.set("rate_behind_ns",
              net::Json::number(static_cast<double>(behind)));
  write_load_artifacts(args, node, driver, std::move(summary), "workload",
                       issued_total, completed, elapsed_ms);

  const LatencyRecorder& latency = driver.sinks().latency_all;
  std::printf(
      "loadgen[workload %s]: %d/%d completed in %.1f ms (offered %.0f "
      "msg/s, mean %.2f ms, p95 %.2f ms)\n",
      spec.name.c_str(), completed, issued_total, elapsed_ms, offered,
      latency.mean_ms(), latency.percentile_ms(95));
  return completed == issued_total ? 0 : 1;
}

int run_load(const Args& args, const net::ClusterConfig& cfg) {
  net::ClusterNode node(cfg, std::nullopt);
  if (!setup_client_observability(cfg, node)) return 1;
  const std::uint32_t sample_every = effective_sample_every(args, cfg);

  workload::ClientDriver driver(
      node.env(),
      {.payload_size = args.payload,
       .per_client_cap = static_cast<std::uint64_t>(args.msgs)},
      workload::pair_draw(target_ids(cfg), args.global_fraction));
  for (int c = 0; c < args.clients; ++c) {
    core::Client& client = node.add_client("client" + std::to_string(c));
    client.set_trace_sample_every(sample_every);
    driver.add_client(client, node.env().fork_rng());
  }
  if (!start_connected(cfg, node)) return 1;

  const int total = args.clients * args.msgs;
  const auto t0 = std::chrono::steady_clock::now();
  driver.start_closed_loop();
  driver.await_completed(static_cast<std::uint64_t>(total),
                         std::chrono::seconds(args.timeout_s));
  const auto t1 = std::chrono::steady_clock::now();
  linger(args);
  node.stop();

  const int completed = static_cast<int>(driver.completed());
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();

  net::Json summary = net::Json::object();
  summary.set("mode", net::Json::string("closed-loop"));
  summary.set("global_fraction", net::Json::number(args.global_fraction));
  write_load_artifacts(args, node, driver, std::move(summary), "closed-loop",
                       total, completed, elapsed_ms);

  std::printf(
      "loadgen: %d/%d completed in %.1f ms (%.0f msgs/s, mean %.2f ms, "
      "p95 %.2f ms)\n",
      completed, total, elapsed_ms, completed / (elapsed_ms / 1000.0),
      driver.sinks().latency_all.mean_ms(),
      driver.sinks().latency_all.percentile_ms(95));
  return completed == total ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse_args(argc, argv);
  if (!args) return 2;
  std::string error;
  const auto cfg = net::ClusterConfig::load_file(args->config, &error);
  if (!cfg) {
    std::fprintf(stderr, "byzcast-loadgen: %s\n", error.c_str());
    return 2;
  }
  if (args->check_dumps) return run_check(*args, *cfg);
  if (!args->workload.empty()) {
    const auto spec = workload::load_workload_spec(args->workload, &error);
    if (!spec) {
      std::fprintf(stderr, "byzcast-loadgen: %s\n", error.c_str());
      return 2;
    }
    return run_workload_load(*args, *cfg, *spec);
  }
  return run_load(*args, *cfg);
}
