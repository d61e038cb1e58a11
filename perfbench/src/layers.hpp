// Per-layer microtimings: public functions of each module timed from
// outside, with inputs shaped like the end-to-end run's (payload size,
// observed mean batch size, the PROPOSE frame that batch makes).
#pragma once

#include <cstddef>
#include <cstdint>

#include "client_loop.hpp"
#include "report.hpp"

namespace perfbench {

struct LayerInputs {
  std::uint64_t seed = 1;
  std::size_t payload = 64;
  std::size_t batch = 1;  // requests per PROPOSE, rounded run mean
};

/// Adds the common.*, bft.*_ns, runtime.post_ns, net.*_ns/_us and
/// sim.event_ns metrics to `out`.
void time_layers(const LayerInputs& in, Report& out);

}  // namespace perfbench
