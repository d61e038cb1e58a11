// Smoke tests of the experiment harness (short runs): every protocol
// completes traffic, reports sane statistics, and the headline qualitative
// relations of §V hold even at reduced scale.
#include "workload/experiment.hpp"

#include <gtest/gtest.h>

namespace byzcast::workload {
namespace {

ExperimentConfig quick(Protocol protocol, Pattern pattern, int groups,
                       int clients_per_group) {
  ExperimentConfig cfg;
  cfg.protocol = protocol;
  cfg.num_groups = groups;
  cfg.clients_per_group = clients_per_group;
  cfg.workload.pattern = pattern;
  cfg.warmup = 500 * kMillisecond;
  cfg.duration = 1500 * kMillisecond;
  cfg.seed = 99;
  return cfg;
}

TEST(Experiment, ByzCastLocalTrafficFlows) {
  const auto res = run_experiment(
      quick(Protocol::kByzCast2Level, Pattern::kLocalOnly, 2, 10));
  EXPECT_GT(res.throughput, 100.0);
  EXPECT_GT(res.completed, 100u);
  EXPECT_EQ(res.throughput_global, 0.0);
  EXPECT_GT(res.latency_local.count(), 0u);
  EXPECT_GT(res.a_deliveries, 0u);
}

TEST(Experiment, ByzCastGlobalTrafficFlows) {
  const auto res = run_experiment(
      quick(Protocol::kByzCast2Level, Pattern::kGlobalUniformPairs, 2, 10));
  EXPECT_GT(res.throughput, 50.0);
  EXPECT_EQ(res.throughput_local, 0.0);
  EXPECT_GT(res.latency_global.count(), 0u);
}

TEST(Experiment, BaselineFlows) {
  const auto res =
      run_experiment(quick(Protocol::kBaseline, Pattern::kMixed, 2, 10));
  EXPECT_GT(res.throughput, 50.0);
}

TEST(Experiment, BftSmartFlows) {
  const auto res =
      run_experiment(quick(Protocol::kBftSmart, Pattern::kLocalOnly, 1, 20));
  EXPECT_GT(res.throughput, 100.0);
  EXPECT_EQ(res.throughput, res.throughput_local);
}

TEST(Experiment, ThreeLevelFlows) {
  const auto res = run_experiment(quick(
      Protocol::kByzCast3Level, Pattern::kGlobalUniformPairs, 4, 5));
  EXPECT_GT(res.throughput, 50.0);
}

TEST(Experiment, GlobalLatencyRoughlyTwiceLocal) {
  // Single client, no contention (paper Fig. 7): global ≈ 2x local.
  auto local_cfg =
      quick(Protocol::kByzCast2Level, Pattern::kLocalOnly, 2, 1);
  local_cfg.clients_per_group = 1;
  const auto local = run_experiment(local_cfg);

  auto global_cfg =
      quick(Protocol::kByzCast2Level, Pattern::kGlobalUniformPairs, 2, 1);
  global_cfg.clients_per_group = 1;
  const auto global = run_experiment(global_cfg);

  ASSERT_GT(local.latency_local.count(), 0u);
  ASSERT_GT(global.latency_global.count(), 0u);
  const double ratio =
      global.latency_global.median_ms() / local.latency_local.median_ms();
  EXPECT_GT(ratio, 1.5);
  EXPECT_LT(ratio, 3.5);
}

TEST(Experiment, ByzCastLocalBeatsBaselineLocal) {
  // Partial genuineness: with local-only traffic on 2 groups, ByzCast
  // reaches roughly double the Baseline's throughput (Baseline routes
  // everything through one root).
  const auto byz = run_experiment(
      quick(Protocol::kByzCast2Level, Pattern::kLocalOnly, 2, 40));
  const auto base =
      run_experiment(quick(Protocol::kBaseline, Pattern::kLocalOnly, 2, 40));
  EXPECT_GT(byz.throughput, base.throughput * 1.2);
}

TEST(Experiment, WanLatencyDominatedByRegionRtt) {
  auto cfg = quick(Protocol::kByzCast2Level, Pattern::kLocalOnly, 2, 1);
  cfg.environment = Environment::kWan;
  cfg.warmup = 2 * kSecond;
  cfg.duration = 20 * kSecond;
  const auto res = run_experiment(cfg);
  ASSERT_GT(res.latency_local.count(), 0u);
  // Quorum formation spans continents: tens to hundreds of ms.
  EXPECT_GT(res.latency_local.median_ms(), 50.0);
  EXPECT_LT(res.latency_local.median_ms(), 2000.0);
}

TEST(Experiment, DeterministicAcrossRuns) {
  const auto a = run_experiment(
      quick(Protocol::kByzCast2Level, Pattern::kMixed, 2, 5));
  const auto b = run_experiment(
      quick(Protocol::kByzCast2Level, Pattern::kMixed, 2, 5));
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_DOUBLE_EQ(a.throughput, b.throughput);
  EXPECT_DOUBLE_EQ(a.latency_all.mean_ms(), b.latency_all.mean_ms());
}

/// Spans are stamped beside the protocol, never into it: the same seed with
/// spans off, sampled at 1/64 and on every message must simulate the very
/// same run. The metrics sidecars of the figure benches rely on this.
void expect_spans_leave_run_unchanged(Environment env) {
  auto cfg = quick(Protocol::kByzCast2Level, Pattern::kMixed, 2, 20);
  cfg.environment = env;
  if (env == Environment::kWan) cfg.duration = 3 * kSecond;
  const auto untraced = run_experiment(cfg);
  ASSERT_GT(untraced.completed, 0u);
  ASSERT_EQ(untraced.spans, nullptr);
  for (const std::uint32_t every : {64u, 1u}) {
    cfg.span_tracing = true;
    cfg.span_sample_every = every;
    const auto traced = run_experiment(cfg);
    ASSERT_NE(traced.spans, nullptr);
    EXPECT_FALSE(traced.spans->spans().empty()) << "1/" << every;
    EXPECT_EQ(traced.completed, untraced.completed) << "1/" << every;
    EXPECT_EQ(traced.wire_messages, untraced.wire_messages) << "1/" << every;
    EXPECT_EQ(traced.a_deliveries, untraced.a_deliveries) << "1/" << every;
    EXPECT_EQ(traced.latency_all.cdf(traced.latency_all.count()),
              untraced.latency_all.cdf(untraced.latency_all.count()))
        << "1/" << every;
  }
}

TEST(Experiment, SpanTracingNeverPerturbsLanRun) {
  expect_spans_leave_run_unchanged(Environment::kLan);
}

TEST(Experiment, SpanTracingNeverPerturbsWanRun) {
  expect_spans_leave_run_unchanged(Environment::kWan);
}

}  // namespace
}  // namespace byzcast::workload
