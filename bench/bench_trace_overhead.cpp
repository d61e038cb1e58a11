// Tracing overhead on the wall-clock runtime backend: the same 4-group
// mixed closed-loop workload as bench_runtime_throughput, run with span
// tracing off, sampled (every 16th message per client) and full (every
// message), on real threads. Writes BENCH_trace.json with the measured
// throughput of each mode and the overhead relative to off.
//
// The knob is Client::set_trace_sample_every(n) — 0 disables tracing, n
// traces every n-th message of that client's stream (uid % n == 0) —
// surfaced as ExperimentConfig::span_sample_every for the simulator
// harness. The target for the sampled mode is <5% regression; each mode
// runs several times and the best throughput is kept, since single
// wall-clock runs on a shared host are noisy.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/span.hpp"
#include "core/tree.hpp"
#include "runtime/parallel_system.hpp"
#include "workload/driver.hpp"
#include "workload/report.hpp"

namespace {

using namespace byzcast;

constexpr int kGroups = 4;
constexpr int kClients = 2;
constexpr int kMsgsPerClient = 150;
constexpr int kRepeats = 3;
constexpr std::size_t kPayload = 64;

struct ModeResult {
  std::string mode;
  std::uint32_t sample_every = 0;
  double throughput = 0.0;       // best over kRepeats
  std::uint64_t spans = 0;       // spans recorded in the best run
  std::uint64_t dropped = 0;
};

std::vector<GroupId> make_targets() {
  std::vector<GroupId> targets;
  for (int i = 0; i < kGroups; ++i) targets.push_back(GroupId{i});
  return targets;
}

double run_once(std::uint32_t sample_every, std::uint64_t* spans,
                std::uint64_t* dropped) {
  runtime::ParallelOptions opts;
  opts.runtime.seed = 97;
  SpanLog span_log;
  if (sample_every > 0) opts.obs.spans = &span_log;
  const std::vector<GroupId> targets = make_targets();
  runtime::ParallelSystem system(
      core::OverlayTree::two_level(targets, GroupId{100}), /*f=*/1, opts);

  // Mixed workload: half the messages go to a random pair of distinct
  // groups, half to one random group (same shape as runtime_throughput).
  workload::ClientDriver driver(
      system.env(),
      {.payload_size = kPayload, .per_client_cap = kMsgsPerClient},
      workload::pair_draw(targets, 0.5));
  for (int c = 0; c < kClients; ++c) {
    auto& client = system.add_client("client" + std::to_string(c));
    client.set_trace_sample_every(sample_every);
    driver.add_client(client, system.env().fork_rng());
  }

  system.start();
  const auto t0 = std::chrono::steady_clock::now();
  driver.start_closed_loop();
  driver.await_completed(kClients * kMsgsPerClient, std::chrono::minutes(5));
  const auto t1 = std::chrono::steady_clock::now();
  system.stop();

  if (spans != nullptr) *spans = span_log.spans().size();
  if (dropped != nullptr) *dropped = span_log.dropped();
  const double elapsed_s =
      std::chrono::duration<double>(t1 - t0).count();
  return static_cast<double>(driver.completed()) / elapsed_s;
}

ModeResult run_mode(const std::string& mode, std::uint32_t sample_every) {
  ModeResult r;
  r.mode = mode;
  r.sample_every = sample_every;
  for (int i = 0; i < kRepeats; ++i) {
    std::uint64_t spans = 0;
    std::uint64_t dropped = 0;
    const double thr = run_once(sample_every, &spans, &dropped);
    if (thr > r.throughput) {
      r.throughput = thr;
      r.spans = spans;
      r.dropped = dropped;
    }
  }
  return r;
}

}  // namespace

int main() {
  using workload::fmt;
  workload::print_header(
      "Tracing overhead: runtime backend, 4 groups mixed, f=1");

  const ModeResult off = run_mode("off", 0);
  const ModeResult sampled = run_mode("sampled", 16);
  const ModeResult full = run_mode("full", 1);

  const auto pct = [&off](const ModeResult& r) {
    return off.throughput > 0.0
               ? 100.0 * (off.throughput - r.throughput) / off.throughput
               : 0.0;
  };
  std::vector<std::vector<std::string>> rows;
  for (const ModeResult* r : {&off, &sampled, &full}) {
    rows.push_back({r->mode, std::to_string(r->sample_every),
                    fmt(r->throughput, 0),
                    r == &off ? "-" : fmt(pct(*r), 1),
                    std::to_string(r->spans)});
  }
  workload::print_table(
      {"mode", "sample_every", "msgs/s", "overhead %", "spans"}, rows);
  std::printf(
      "\nknob: Client::set_trace_sample_every / "
      "ExperimentConfig::span_sample_every (0 = off). Target: sampled "
      "overhead < 5%%.\n");

  std::ofstream out("BENCH_trace.json");
  if (out) {
    out << "{\"bench\":\"trace_overhead\",\"backend\":\"runtime\",\"f\":1,"
        << "\"groups\":" << kGroups << ",\"pattern\":\"mixed\",\"clients\":"
        << kClients << ",\"msgs_per_client\":" << kMsgsPerClient
        << ",\"repeats\":" << kRepeats
        << ",\"knob\":\"Client::set_trace_sample_every "
           "(ExperimentConfig::span_sample_every); 0 = off\""
        << ",\"target_sampled_overhead_pct\":5,\"configs\":[";
    bool first = true;
    for (const ModeResult* r : {&off, &sampled, &full}) {
      if (!first) out << ",";
      first = false;
      out << "{\"mode\":\"" << r->mode << "\",\"sample_every\":"
          << r->sample_every << ",\"throughput_msgs_s\":" << r->throughput;
      if (r != &off) out << ",\"overhead_pct\":" << pct(*r);
      out << ",\"spans_recorded\":" << r->spans << ",\"spans_dropped\":"
          << r->dropped << "}";
    }
    out << "]}\n";
  }

  // Completion is the only hard gate; overhead numbers are host-dependent.
  int failures = 0;
  for (const ModeResult* r : {&off, &sampled, &full}) {
    if (r->throughput <= 0.0) {
      std::printf("FAIL: %s mode did not complete\n", r->mode.c_str());
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}
