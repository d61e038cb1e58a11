// The benchmark's one issue -> complete -> record client loop, shared by the
// runtime and the real-TCP workloads behind a small backend seam: make the
// client, post to the client's thread, count deliveries, and after stop()
// hand over the delivery log, the correct replica set and the counters the
// per-layer ledger reads. Two load generators run on top of it: an open-loop
// Poisson schedule (workload::RateController, latency timed from when each
// multicast was due) and a closed loop with a fixed window of outstanding
// multicasts. judge() then runs the §II-B checkers: a safety violation
// fails the run, a liveness shortfall after the fixed drain window counts
// as failed multicasts.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/span.hpp"
#include "core/client.hpp"
#include "core/delivery_log.hpp"
#include "core/properties.hpp"

namespace perfbench {

using namespace byzcast;
using Clock = std::chrono::steady_clock;

/// Replica::counters() and friends, summed over the correct replicas of
/// every target group.
struct ReplicaTotals {
  std::uint64_t views_installed = 0;
  std::uint64_t state_transfers = 0;
  std::uint64_t rejected_requests = 0;
  std::uint64_t buffered_decisions = 0;
  std::uint64_t executed_requests = 0;
  std::uint64_t decided_instances = 0;
  std::uint64_t mac_memo_hits = 0;
};

/// Transport::stats() summed over every node (net backend only).
struct NetTotals {
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t dropped_frames = 0;
  std::uint64_t send_queue_high_water = 0;
};

struct BackendOptions {
  std::uint64_t seed = 1;
  /// Client::set_trace_sample_every; 0 runs untraced.
  std::uint32_t trace_sample_every = 0;
};

class Backend {
 public:
  virtual ~Backend() = default;

  /// The one load-generating client.
  virtual core::Client& client() = 0;
  /// Runs `fn` on the client's thread (FIFO). Safe from any thread.
  virtual void post(std::function<void()> fn) = 0;
  /// a-deliveries recorded so far; safe mid-run.
  virtual std::uint64_t total_deliveries() = 0;
  /// Replicas per group (3f+1), for the expected-delivery count.
  virtual int replicas_per_group() const = 0;

  /// Quiesces every thread. Idempotent; the readers below need it first.
  virtual void stop() = 0;
  virtual const core::DeliveryLog& delivery_log() = 0;
  virtual std::map<GroupId, std::vector<ProcessId>> correct_replicas() = 0;
  virtual std::uint64_t monitor_violations() = 0;
  virtual ReplicaTotals replica_totals() = 0;
  /// Wire messages sent by every process (ThreadNetwork / Transport).
  virtual std::uint64_t wire_messages() = 0;
  virtual NetTotals net_totals() { return {}; }
  /// Appends the run's spans, on one clock, to `out`.
  virtual void collect_spans(SpanLog& out) = 0;
};

/// Runtime backend: runtime::ParallelSystem with real HMAC-SHA256 MACs.
std::unique_ptr<Backend> make_runtime_backend(const BackendOptions& opts);
/// Net backend: net::InProcessCluster over localhost TCP; returns once the
/// client is connected to every replica.
std::unique_ptr<Backend> make_net_backend(const BackendOptions& opts);

/// Destination mix over the 3-group tree: one random group, or with
/// probability `global_share` a random pair of distinct groups.
struct Mix {
  int groups = 3;
  double global_share = 0.1;
  std::size_t payload = 64;
};

struct LoopState;

/// What one phase issued and observed. Message k of the phase is the
/// client's k-th a-multicast, i.e. MessageId{client, k}.
struct PhaseLog {
  std::shared_ptr<LoopState> state;
  double goodput_msgs_s = 0.0;   // closed loop: completions / window second
  std::vector<double> gen_late_us;  // open loop: post time - due, per arrival
  std::uint64_t rate_behind_ns = 0;  // RateController::behind_ns
};

/// Multicasts issued in the phase.
std::uint64_t issued(const PhaseLog& log);
/// Completion latencies of one message class (read after judge()).
std::vector<double> latencies_ms(const PhaseLog& log, bool global);

/// Offers `rate` msg/s for `warmup_s + seconds` from the calling thread,
/// then waits for the drain window. Latency is completion minus due time,
/// sampled for multicasts due after the warm-up.
PhaseLog run_open_loop(Backend& b, const Mix& mix, Rng rng, double rate,
                       double warmup_s, double seconds, double drain_s);

/// Keeps `window` multicasts outstanding for `warmup_s + seconds`; goodput
/// counts completions inside the last `seconds`. Then drains.
PhaseLog run_closed_loop(Backend& b, const Mix& mix, Rng rng, int window,
                         double warmup_s, double seconds, double drain_s);

struct Verdict {
  bool safe = true;
  std::string error;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // not completed, or not a-delivered everywhere
};

/// Stops the backend and checks the phase's outputs.
Verdict judge(Backend& b, const PhaseLog& log);

}  // namespace perfbench
