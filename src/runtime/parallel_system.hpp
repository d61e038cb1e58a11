// ParallelSystem: the runtime sibling of wiring core::ByzCastSystem against
// a Simulation. Owns a RuntimeEnv sized thread-per-group (one worker per
// overlay group plus one shared by the clients, unless overridden), the
// ByzCastSystem built on it, and the clients; adds the lifecycle and
// quiescence plumbing a wall-clock run needs that the simulator gets for
// free from run_to_quiescence().
#pragma once

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "core/system.hpp"
#include "runtime/env.hpp"

namespace byzcast::runtime {

struct ParallelOptions {
  RuntimeOptions runtime;  // .workers == 0 resolves to #groups + 1
  core::FaultPlan faults;
  core::Routing routing = core::Routing::kGenuine;
  Observability obs;
};

class ParallelSystem {
 public:
  ParallelSystem(core::OverlayTree tree, int f, ParallelOptions opts = {});
  ~ParallelSystem();  // stops the backend before any actor dies

  ParallelSystem(const ParallelSystem&) = delete;
  ParallelSystem& operator=(const ParallelSystem&) = delete;

  [[nodiscard]] RuntimeEnv& env() { return env_; }
  [[nodiscard]] core::ByzCastSystem& system() { return system_; }
  [[nodiscard]] core::DeliveryLog& delivery_log() {
    return system_.delivery_log();
  }
  [[nodiscard]] int f() const { return system_.f(); }

  /// Clients are owned by the system (they must not outlive the env).
  core::Client& add_client(const std::string& name);
  [[nodiscard]] const std::vector<std::unique_ptr<core::Client>>& clients()
      const {
    return clients_;
  }

  void start() { env_.start(); }
  /// Stops the backend, then publishes every replica's counters into the
  /// attached MetricsRegistry (when one is attached).
  void stop();

  /// a-multicasts from `client`, posted to the client's worker with
  /// backpressure (this is the load-injection edge; call from outside the
  /// pool). The completion runs on the client's worker.
  bool a_multicast(core::Client& client, std::vector<GroupId> dst,
                   Bytes payload, core::Client::Completion on_done = {});

  /// Polls the delivery log until it holds >= `expected` records; the
  /// runtime's quiescence barrier. False on timeout.
  bool await_total_deliveries(std::size_t expected,
                              std::chrono::milliseconds timeout);

  /// Deliveries a fully quiescent run must reach: every destination replica
  /// of every message delivers exactly once. (Multiply out the dst lists.)
  [[nodiscard]] std::size_t expected_deliveries(
      const std::vector<std::vector<GroupId>>& dsts) const;

 private:
  RuntimeEnv env_;
  MetricsRegistry* metrics_;  // non-owning; null = not published
  core::ByzCastSystem system_;
  std::vector<std::unique_ptr<core::Client>> clients_;
};

}  // namespace byzcast::runtime
