// The benchmark's workloads:
//   rt-hmac-mix   runtime::ParallelSystem, real HMAC-SHA256 MACs
//   net-mix       net::InProcessCluster over localhost TCP
//   sim-lan-hmac  the deterministic simulator on the LAN sweep settings,
//                 real HMAC-SHA256 MACs
//   sim-wan-mix   the deterministic simulator on the WAN sweep settings
// BENCHMARK.json gates the two simulator workloads; the real-stack ones run
// by name (perfbench/README.md says why).
// An untraced run reports the end-to-end metrics; a traced run reports the
// per-layer ledger (with the untraced and traced end-to-end figures in the
// ledger lines, and their ratio as the tracing overhead).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "report.hpp"

namespace perfbench {

struct Outcome {
  bool safe = true;  // no safety violation, no monitor violation
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Runs `name`; nullopt if no such workload.
[[nodiscard]] std::optional<Outcome> run_workload(const std::string& name,
                                                  std::uint64_t seed,
                                                  double seconds, bool trace,
                                                  Report& rep);

}  // namespace perfbench
