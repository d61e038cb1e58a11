// The per-optimization ablation switches must actually reach the layer they
// claim to disable: zero_copy_off deep-copies every send, pipeline_off caps
// the WAN pipeline at depth 1 and costs real throughput. Each test observes
// the mechanism, not just the flag.
#include <gtest/gtest.h>

#include <cstdint>

#include "common/buffer.hpp"
#include "workload/experiment.hpp"

namespace byzcast::workload {
namespace {

ExperimentConfig small_lan() {
  ExperimentConfig cfg;
  cfg.num_groups = 2;
  cfg.clients_per_group = 10;
  cfg.workload.pattern = Pattern::kMixed;
  cfg.warmup = 300 * kMillisecond;
  cfg.duration = 1 * kSecond;
  cfg.seed = 5;
  return cfg;
}

TEST(Ablation, ZeroCopyOffMaterializesEverySend) {
  auto cfg = small_lan();
  const std::uint64_t before_on = Buffer::materializations();
  (void)run_experiment(cfg);
  const std::uint64_t with_zero_copy = Buffer::materializations() - before_on;

  cfg.zero_copy_off = true;
  const std::uint64_t before_off = Buffer::materializations();
  (void)run_experiment(cfg);
  const std::uint64_t without = Buffer::materializations() - before_off;

  // With the fan-out optimization a message materializes once and is
  // ref-counted through its sends; with it off, every send deep-copies.
  // (Replies and other point-to-point traffic materialize either way, so
  // the delta is well short of the raw fan-out factor.)
  EXPECT_GT(without, with_zero_copy + with_zero_copy / 2);
}

TEST(Ablation, PipelineOffCostsWanThroughput) {
  // PR 6's consensus pipelining is worth ~2x on the WAN (depth-1 ceiling is
  // ~2.9k msg/s, the preset depth ~6k). Offer 4000/s open loop: the
  // pipelined run sustains it, the depth-1 run saturates well below.
  ExperimentConfig cfg;
  cfg.environment = Environment::kWan;
  cfg.num_groups = 2;
  cfg.clients_per_group = 100;
  cfg.workload.pattern = Pattern::kMixed;
  cfg.open_loop_total_rate = 4000.0;
  cfg.warmup = 1 * kSecond;
  cfg.duration = 3 * kSecond;
  cfg.seed = 5;
  const auto base = run_experiment(cfg);

  cfg.pipeline_off = true;
  const auto off = run_experiment(cfg);

  EXPECT_GT(base.throughput, 3'500.0);
  EXPECT_GT(base.throughput, off.throughput * 1.2);
}

}  // namespace
}  // namespace byzcast::workload
