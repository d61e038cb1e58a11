// Wall-clock throughput of the runtime backend: real msgs/s sustained by
// closed-loop clients over 1..N target groups at f=1, local-only and mixed
// (50% global pairs) workloads, on real threads (thread-per-group + one
// client worker). The simulator's counterpart figures are Fig. 4/5; here the
// numbers are host-dependent wall-clock measurements, not simulated-time
// reproductions — the point is exercising the concurrent backend end to end
// and giving the optimizer a real-hardware reference curve.
//
// Emits bench_csv/runtime_throughput.csv (series), the standard metrics
// sidecar bench_csv/runtime_metrics.json (from the largest mixed config),
// BENCH_runtime.json (machine-readable summary of every config), and
// BENCH_wire.json (before/after comparison against the BENCH_runtime.json
// found at startup — i.e. the previous run's numbers — plus the verdict of
// the five atomic-multicast property checkers over each config's
// DeliveryLog; a throughput number from a run that broke ordering would be
// meaningless).
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/properties.hpp"
#include "core/tree.hpp"
#include "runtime/parallel_system.hpp"
#include "workload/driver.hpp"
#include "workload/report.hpp"

namespace {

using namespace byzcast;

constexpr int kClients = 2;
constexpr int kMsgsPerClient = 150;
constexpr std::size_t kPayload = 64;

struct ConfigResult {
  int groups = 0;
  std::string pattern;
  std::size_t workers = 0;
  int completed = 0;
  double elapsed_ms = 0.0;
  double throughput = 0.0;  // client completions / wall second
  double latency_mean_ms = 0.0;
  double latency_p95_ms = 0.0;
  std::uint64_t deliveries = 0;
  std::uint64_t wire_messages = 0;
  bool properties_ok = false;
  std::string properties_error;
};

core::OverlayTree make_tree(const std::vector<GroupId>& targets) {
  return targets.size() == 1
             ? core::OverlayTree::single(targets[0])
             : core::OverlayTree::two_level(targets, GroupId{100});
}

/// Runs one closed-loop configuration; `global_fraction` of messages go to
/// a random pair of distinct groups, the rest to one random group. When
/// `sidecar` is non-null the run records observability into it.
ConfigResult run_config(int groups, double global_fraction,
                        workload::ExperimentResult* sidecar) {
  runtime::ParallelOptions opts;
  opts.runtime.seed = 97;
  if (sidecar != nullptr) {
    sidecar->metrics = std::make_shared<MetricsRegistry>();
    sidecar->spans = std::make_shared<SpanLog>();
    opts.obs = Observability{.metrics = sidecar->metrics.get(),
                             .spans = sidecar->spans.get()};
  }
  std::vector<GroupId> targets;
  for (int g = 0; g < groups; ++g) targets.push_back(GroupId{g});
  runtime::ParallelSystem system(make_tree(targets), /*f=*/1, opts);

  workload::ClientDriver driver(
      system.env(),
      {.payload_size = kPayload, .per_client_cap = kMsgsPerClient},
      workload::pair_draw(targets, global_fraction));
  for (int c = 0; c < kClients; ++c) {
    auto& client = system.add_client("client" + std::to_string(c));
    if (sidecar != nullptr) {
      client.set_trace_sample_every(workload::kSidecarSpanSampleEvery);
    }
    driver.add_client(client, system.env().fork_rng());
  }

  system.start();
  const auto t0 = std::chrono::steady_clock::now();
  driver.start_closed_loop();
  driver.await_completed(kClients * kMsgsPerClient, std::chrono::minutes(5));
  const auto t1 = std::chrono::steady_clock::now();
  system.stop();

  ConfigResult r;
  r.groups = groups;
  r.pattern = global_fraction > 0.0 ? "mixed" : "local";
  r.workers = system.env().executor().workers();
  r.completed = static_cast<int>(driver.completed());
  r.elapsed_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  r.throughput = r.completed / (r.elapsed_ms / 1000.0);
  const LatencyRecorder& latency = driver.sinks().latency_all;
  r.latency_mean_ms = latency.mean_ms();
  r.latency_p95_ms = latency.percentile_ms(95);
  r.deliveries = system.delivery_log().total_deliveries();
  r.wire_messages = system.env().network().sent();

  // Validate the run's DeliveryLog against the §II-B properties (threads
  // have quiesced after stop(), so the structural readers are safe).
  core::PropertyInput in;
  in.log = &system.delivery_log();
  in.sent = driver.sent();
  for (int g = 0; g < groups; ++g) {
    auto& grp = system.system().group(GroupId{g});
    for (const int i : grp.correct_indices()) {
      in.correct_replicas[GroupId{g}].push_back(grp.replica(i).id());
    }
  }
  const core::PropertyResult verdict = core::check_all_properties(in);
  r.properties_ok = verdict.ok;
  r.properties_error = verdict.error;
  if (sidecar != nullptr) {
    sidecar->throughput = r.throughput;
    sidecar->completed = static_cast<std::uint64_t>(r.completed);
    sidecar->a_deliveries = r.deliveries;
    sidecar->wire_messages = r.wire_messages;
    sidecar->latency_all = latency;
  }
  return r;
}

/// Prior throughput per (groups, pattern), scraped from the
/// BENCH_runtime.json present at startup (the previous run of this binary —
/// e.g. the committed pre-zero-copy baseline). Empty when absent.
std::map<std::pair<int, std::string>, double> read_baseline() {
  std::map<std::pair<int, std::string>, double> out;
  std::ifstream file("BENCH_runtime.json");
  if (!file) return out;
  std::stringstream ss;
  ss << file.rdbuf();
  const std::string text = ss.str();
  // The file is machine-written by write_bench_json below, so a flat scan
  // for its fixed key order is sufficient — no JSON library needed.
  std::size_t pos = 0;
  while ((pos = text.find("{\"groups\":", pos)) != std::string::npos) {
    const std::size_t end = text.find('}', pos);
    if (end == std::string::npos) break;
    const std::string obj = text.substr(pos, end - pos);
    pos = end;
    const auto field = [&obj](const std::string& key) -> std::string {
      const std::size_t at = obj.find("\"" + key + "\":");
      if (at == std::string::npos) return {};
      std::size_t start = at + key.size() + 3;
      if (start < obj.size() && obj[start] == '"') {
        const std::size_t close = obj.find('"', start + 1);
        return obj.substr(start + 1, close - start - 1);
      }
      const std::size_t close = obj.find_first_of(",}", start);
      return obj.substr(start, close - start);
    };
    const std::string groups = field("groups");
    const std::string pattern = field("pattern");
    const std::string thr = field("throughput_msgs_s");
    if (groups.empty() || pattern.empty() || thr.empty()) continue;
    out[{std::stoi(groups), pattern}] = std::stod(thr);
  }
  return out;
}

/// Before/after record of the zero-copy wire fabric change: prior numbers
/// (when a baseline file existed), this run's numbers, the improvement, and
/// whether the run's DeliveryLog passed the atomic multicast checkers.
void write_wire_json(
    const std::vector<ConfigResult>& results,
    const std::map<std::pair<int, std::string>, double>& baseline) {
  std::ofstream out("BENCH_wire.json");
  if (!out) return;
  out << "{\"bench\":\"wire_fabric_before_after\",\"backend\":\"runtime\","
      << "\"f\":1,\"clients\":" << kClients
      << ",\"msgs_per_client\":" << kMsgsPerClient
      << ",\"baseline_source\":\""
      << (baseline.empty() ? "none" : "BENCH_runtime.json") << "\","
      << "\"configs\":[";
  bool first = true;
  for (const auto& r : results) {
    if (!first) out << ",";
    first = false;
    out << "{\"groups\":" << r.groups << ",\"pattern\":\"" << r.pattern
        << "\",\"throughput_after_msgs_s\":" << r.throughput;
    const auto it = baseline.find({r.groups, r.pattern});
    if (it != baseline.end() && it->second > 0.0) {
      const double pct = 100.0 * (r.throughput - it->second) / it->second;
      out << ",\"throughput_before_msgs_s\":" << it->second
          << ",\"improvement_pct\":" << pct;
    }
    out << ",\"latency_mean_ms\":" << r.latency_mean_ms
        << ",\"latency_p95_ms\":" << r.latency_p95_ms
        << ",\"properties_ok\":" << (r.properties_ok ? "true" : "false");
    if (!r.properties_ok) {
      out << ",\"properties_error\":\"" << r.properties_error << "\"";
    }
    out << "}";
  }
  out << "]}\n";
}

void write_bench_json(const std::vector<ConfigResult>& results) {
  std::ofstream out("BENCH_runtime.json");
  if (!out) return;
  out << "{\"bench\":\"runtime_throughput\",\"backend\":\"runtime\","
      << "\"f\":1,\"clients\":" << kClients
      << ",\"msgs_per_client\":" << kMsgsPerClient << ",\"configs\":[";
  bool first = true;
  for (const auto& r : results) {
    if (!first) out << ",";
    first = false;
    out << "{\"groups\":" << r.groups << ",\"pattern\":\"" << r.pattern
        << "\",\"workers\":" << r.workers << ",\"completed\":" << r.completed
        << ",\"elapsed_ms\":" << r.elapsed_ms
        << ",\"throughput_msgs_s\":" << r.throughput
        << ",\"latency_mean_ms\":" << r.latency_mean_ms
        << ",\"latency_p95_ms\":" << r.latency_p95_ms
        << ",\"a_deliveries\":" << r.deliveries
        << ",\"wire_messages\":" << r.wire_messages << "}";
  }
  out << "]}\n";
}

}  // namespace

int main() {
  using workload::fmt;
  workload::print_header(
      "Runtime backend: wall-clock throughput, 1..4 groups, f=1");

  // Prior numbers (if any) before this run overwrites BENCH_runtime.json.
  const auto baseline = read_baseline();

  std::vector<ConfigResult> results;
  workload::ExperimentResult probe;
  std::vector<std::vector<std::string>> rows;
  for (const int groups : {1, 2, 4}) {
    const auto local = run_config(groups, 0.0, nullptr);
    results.push_back(local);
    std::vector<std::string> row = {std::to_string(groups),
                                    fmt(local.throughput, 0)};
    if (groups > 1) {
      // The 4-group mixed run feeds the observability sidecar.
      const auto mixed =
          run_config(groups, 0.5, groups == 4 ? &probe : nullptr);
      results.push_back(mixed);
      row.push_back(fmt(mixed.throughput, 0));
    } else {
      row.push_back("-");
    }
    rows.push_back(row);
  }
  workload::print_table({"groups", "local msgs/s", "mixed msgs/s"}, rows);

  const auto& last = results.back();
  std::printf(
      "\n%d-group mixed run: %zu workers, %d msgs in %.0f ms "
      "(mean %.2f ms, p95 %.2f ms). Wall-clock numbers are host-dependent; "
      "compare shapes, not absolutes, against the simulated Fig. 4/5.\n",
      last.groups, last.workers, last.completed, last.elapsed_ms,
      last.latency_mean_ms, last.latency_p95_ms);

  workload::write_series_csv("bench_csv/runtime_throughput.csv",
                             {"groups", "local msgs/s", "mixed msgs/s"},
                             rows);
  workload::write_metrics_sidecar("bench_csv/runtime_metrics.json", probe);
  write_bench_json(results);
  write_wire_json(results, baseline);

  int failures = 0;
  for (const auto& r : results) {
    if (r.completed != kClients * kMsgsPerClient) {
      std::printf("WARN: %d-group %s run completed %d/%d\n", r.groups,
                  r.pattern.c_str(), r.completed, kClients * kMsgsPerClient);
      ++failures;
    }
    if (!r.properties_ok) {
      std::printf("FAIL: %d-group %s run violates properties: %s\n",
                  r.groups, r.pattern.c_str(), r.properties_error.c_str());
      ++failures;
    }
    const auto it = baseline.find({r.groups, r.pattern});
    if (it != baseline.end() && it->second > 0.0) {
      std::printf("%d-group %s: %.0f -> %.0f msgs/s (%+.1f%%)\n", r.groups,
                  r.pattern.c_str(), it->second, r.throughput,
                  100.0 * (r.throughput - it->second) / it->second);
    }
  }
  return failures == 0 ? 0 : 1;
}
