// ClientDriver: the one client workload every backend runs — the paper's
// closed-loop clients (issue the next message from the completion) and the
// workload engine's open-loop arrivals — over core::Client actors on any
// sim::ExecutionEnv. It owns what every driving site needs: each client's
// destination draw and Rng, the per-client message cap and stop-issuing
// time, the per-class latency/throughput sinks, and the canonical
// destinations of every issued message for the property checkers.
//
// Threading: the driver enters a client's thread only through
// ExecutionEnv::run_on (a direct call on the simulator, a post onto the
// owner's worker or event loop on the wall-clock backends); completions run
// on that thread and re-issue directly. Open-loop pacing stays with the
// caller, which calls fire() from one pacing thread: a scheduler event on
// the simulator, a sleeping wall-clock thread on the real backends (the
// runtime's timer wheel rounds sub-millisecond delays to "now", and the net
// event loop's timers belong to its loop thread).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <mutex>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/client.hpp"
#include "core/properties.hpp"
#include "sim/env.hpp"
#include "workload/generator.hpp"

namespace byzcast::workload {

/// Destination class of one message: kPattern lets the client's draw pick
/// it; kLocal / kGlobal force it (per-class open-loop pacing).
enum class DestClass { kPattern, kLocal, kGlobal };

/// Where client `c` (registration index) sends its next message, drawn
/// from that client's own Rng.
using DestinationDraw =
    std::function<std::vector<GroupId>(std::size_t c, Rng&, DestClass)>;

/// Client c draws from DestinationGenerator(config, targets,
/// c % targets.size()) — next, next_local or next_global by class.
[[nodiscard]] DestinationDraw pattern_draw(GeneratorConfig config,
                                           std::vector<GroupId> targets,
                                           std::size_t clients);

/// Every client draws pair_or_single(rng, targets, global_fraction). Closed
/// loop only: the fraction sets the mix, so a forced class is a contract
/// violation.
[[nodiscard]] DestinationDraw pair_draw(std::vector<GroupId> targets,
                                        double global_fraction);

class ClientDriver {
 public:
  struct Options {
    std::size_t payload_size = 64;
    /// Messages each client issues at most.
    std::uint64_t per_client_cap = std::numeric_limits<std::uint64_t>::max();
    /// Nothing is issued at or after this env time.
    Time stop_issuing = std::numeric_limits<Time>::max();
    /// Latency samples completing before this env time are not reported.
    Time warmup = 0;
  };

  /// Measurement sinks, split by the class of the drawn destination
  /// (one group = local). Guarded while clients run; read after the run.
  struct Sinks {
    LatencyRecorder latency_all, latency_local, latency_global;
    ThroughputMeter all, local, global;
  };

  ClientDriver(sim::ExecutionEnv& env, Options opts, DestinationDraw draw);
  ClientDriver(const ClientDriver&) = delete;
  ClientDriver& operator=(const ClientDriver&) = delete;

  /// Registers a client before the run starts. The driver must be the only
  /// issuer on `client`: its k-th issue is MessageId{client.id(), k}.
  void add_client(core::Client& client, Rng rng);

  /// Open-loop runs: the offered load bounds the sample count, so reserve
  /// up front (no reallocation in the measurement path) and cap at a loose
  /// multiple of the expectation — a runaway shows up as a nonzero
  /// overflow() instead of eating the host's memory. Closed-loop runs are
  /// completion-paced and self-limiting.
  void reserve_open_loop(double rate_per_sec, Time duration, Time horizon);

  /// Closed loop: every client issues one message and re-issues on each
  /// completion, until its cap or the stop time.
  void start_closed_loop();

  /// One open-loop arrival of class `cls`, issued by the next client of
  /// that class's own round robin. Call from one pacing thread.
  void fire(DestClass cls);

  /// Records a completion measured outside the driver (the single-group
  /// BFT-SMaRt clients, which are not core::Clients).
  void record_completion(Time latency, bool is_local);

  /// Blocks the driving thread until `n` completions or `timeout` elapses
  /// (wall-clock backends). True iff `n` completions were reached.
  bool await_completed(std::uint64_t n,
                       std::chrono::steady_clock::duration timeout) const;

  [[nodiscard]] std::uint64_t completed() const { return completed_.load(); }
  [[nodiscard]] std::size_t clients() const { return slots_.size(); }
  [[nodiscard]] Sinks& sinks() { return sinks_; }

  /// Every issued message with its canonical destinations, client by client
  /// in registration order, then in issue order — the input of
  /// check_all_properties, InProcessCluster::check_properties and
  /// net::SentDump. Call once no client thread runs.
  [[nodiscard]] std::vector<core::SentMessage> sent() const;

 private:
  struct Slot {
    core::Client* client;
    Rng rng;
    std::vector<std::vector<GroupId>> dsts;  // canonical, issue order
  };

  /// Runs on client `c`'s thread.
  void issue(std::size_t c, DestClass cls, bool reissue);

  sim::ExecutionEnv& env_;
  Options opts_;
  DestinationDraw draw_;
  std::vector<Slot> slots_;
  std::size_t cursor_[3] = {0, 0, 0};  // per DestClass, pacing thread only
  std::atomic<std::uint64_t> completed_{0};
  std::mutex sinks_mu_;
  Sinks sinks_;
};

}  // namespace byzcast::workload
