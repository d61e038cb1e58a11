// End-to-end span tracing through the simulator: a traced message leaves the
// Algorithm 1 hop events as spans (ordering, relay into each child,
// a-delivery), and a traced mixed workload produces well-formed span trees
// whose critical-path decomposition sums to the measured end-to-end latency
// exactly — including under message loss, Byzantine fault injection, and
// span-log truncation.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/metrics.hpp"
#include "common/span.hpp"
#include "core/critical_path.hpp"
#include "support/byzcast_harness.hpp"

namespace byzcast::core {
namespace {

using ::byzcast::testing::ByzCastHarness;
using ::byzcast::testing::HarnessConfig;

/// Every third message global to {g0, g1}, the rest local to the client's
/// home group.
std::vector<GroupId> mixed_dst(int c, int k, Rng&) {
  if (k % 3 == 2) return {GroupId{0}, GroupId{1}};
  return {GroupId{c % 2}};
}

void expect_exact_decomposition(const SpanLog& log, int f,
                                std::size_t* complete_local = nullptr,
                                std::size_t* complete_global = nullptr) {
  CriticalPathAnalyzer analyzer(log, CriticalPathAnalyzer::Options{f});
  for (const auto& m : analyzer.messages()) {
    if (!m.complete) continue;
    if (complete_local != nullptr && !m.is_global) ++*complete_local;
    if (complete_global != nullptr && m.is_global) ++*complete_global;
    EXPECT_EQ(m.totals.total(), m.end_to_end)
        << "inexact decomposition for " << to_string(m.id);
    EXPECT_GE(m.totals.queueing, 0);
    EXPECT_GE(m.totals.cpu, 0);
    EXPECT_GE(m.totals.network, 0);
    EXPECT_GE(m.totals.quorum_wait, 0);
    EXPECT_FALSE(m.hops.empty());
  }
}

/// The spans of one message, by group, kind and stamping replica.
using HopSpans = std::map<GroupId, std::map<SpanKind, std::vector<Span>>>;

HopSpans hop_spans(const SpanLog& log, const MessageId& id) {
  HopSpans out;
  for (const Span& s : log.of(id)) {
    if (s.group.valid()) out[s.group][s.kind].push_back(s);
  }
  return out;
}

Time earliest(const std::vector<Span>& spans, Time Span::*edge) {
  Time t = spans.at(0).*edge;
  for (const Span& s : spans) t = std::min(t, s.*edge);
  return t;
}

TEST(SpanIntegration, TwoGroupGlobalMessagePath) {
  MetricsRegistry metrics;
  SpanLog spans;
  HarnessConfig cfg;
  cfg.num_targets = 2;
  cfg.obs = Observability{.metrics = &metrics, .spans = &spans};
  cfg.trace_sample_every = 1;
  ByzCastHarness h(cfg);
  h.run_tracked(1, 1, [](int, int, Rng&) {
    return std::vector<GroupId>{GroupId{0}, GroupId{1}};
  });
  ASSERT_EQ(h.completions, 1);
  ASSERT_EQ(h.sent.size(), 1u);
  EXPECT_EQ(spans.dropped(), 0u);

  const MessageId id = h.sent[0].id;
  HopSpans path = hop_spans(spans, id);
  const GroupId lca{testing::kAuxBase};
  ASSERT_EQ(path.size(), 3u);  // lca + both children

  // The lca orders the message on the direct path (no f+1 wait: no
  // kOrderWait) at hop 0, then every replica relays it once into each
  // child, naming the child in `detail`. It a-delivers nothing.
  auto& at_lca = path[lca];
  ASSERT_EQ(at_lca[SpanKind::kExecute].size(), 4u);
  for (const Span& s : at_lca[SpanKind::kExecute]) EXPECT_EQ(s.detail, 0);
  EXPECT_TRUE(at_lca[SpanKind::kOrderWait].empty());
  EXPECT_TRUE(at_lca[SpanKind::kADeliver].empty());
  ASSERT_EQ(at_lca[SpanKind::kRelay].size(), 8u);
  std::map<std::int64_t, int> relays_per_child;
  for (const Span& s : at_lca[SpanKind::kRelay]) ++relays_per_child[s.detail];
  EXPECT_EQ(relays_per_child, (std::map<std::int64_t, int>{{0, 4}, {1, 4}}));
  const Time lca_ordered = earliest(at_lca[SpanKind::kExecute], &Span::end);
  const Time first_relay = earliest(at_lca[SpanKind::kRelay], &Span::begin);
  EXPECT_LE(lca_ordered, first_relay);

  // Each child waits for f+1 parent copies (kOrderWait), then a-delivers,
  // all at hop 1, and relays nothing further.
  for (const GroupId child : {GroupId{0}, GroupId{1}}) {
    auto& at_child = path[child];
    ASSERT_EQ(at_child[SpanKind::kOrderWait].size(), 4u)
        << "child " << child.value;
    ASSERT_EQ(at_child[SpanKind::kADeliver].size(), 4u)
        << "child " << child.value;
    EXPECT_TRUE(at_child[SpanKind::kRelay].empty());
    for (const SpanKind kind : {SpanKind::kOrderWait, SpanKind::kADeliver}) {
      for (const Span& s : at_child[kind]) {
        EXPECT_EQ(s.detail, 1) << "child " << child.value;
      }
    }
    // Times never go backwards: relayed at the lca -> first copy here ->
    // ordered here -> a-delivered, at every replica.
    std::map<ProcessId, Time> ordered_at;
    for (const Span& s : at_child[SpanKind::kOrderWait]) {
      EXPECT_LE(first_relay, s.begin);
      EXPECT_LE(s.begin, s.end);
      ordered_at[s.where] = s.end;
    }
    for (const Span& s : at_child[SpanKind::kADeliver]) {
      ASSERT_TRUE(ordered_at.contains(s.where));
      EXPECT_LE(ordered_at[s.where], s.begin);
    }
  }

  // The per-group counters published alongside the spans agree with them:
  // every replica of every group ordered the one message, and both target
  // groups a-delivered it (4 replicas each).
  EXPECT_EQ(metrics.counter("node.ordered.g100").value(), 4u);
  EXPECT_EQ(metrics.counter("node.ordered.g0").value(), 4u);
  EXPECT_EQ(metrics.counter("node.a_deliver.g0").value(), 4u);
  EXPECT_EQ(metrics.counter("node.a_deliver.g1").value(), 4u);
  EXPECT_EQ(metrics.counter("node.a_deliver.g100").value(), 0u);
}

TEST(SpanIntegration, LocalMessageNeverLeavesItsGroup) {
  SpanLog spans;
  HarnessConfig cfg;
  cfg.num_targets = 2;
  cfg.obs.spans = &spans;
  cfg.trace_sample_every = 1;
  ByzCastHarness h(cfg);
  h.run_tracked(1, 1, [](int, int, Rng&) {
    return std::vector<GroupId>{GroupId{0}};
  });
  ASSERT_EQ(h.completions, 1);

  // lca({g0}) = g0 itself: a single-group path, all at hop 0, no relay.
  HopSpans path = hop_spans(spans, h.sent[0].id);
  ASSERT_EQ(path.size(), 1u);
  ASSERT_TRUE(path.contains(GroupId{0}));
  auto& at_g0 = path[GroupId{0}];
  EXPECT_TRUE(at_g0[SpanKind::kRelay].empty());
  EXPECT_TRUE(at_g0[SpanKind::kOrderWait].empty());
  ASSERT_EQ(at_g0[SpanKind::kADeliver].size(), 4u);
  for (const Span& s : at_g0[SpanKind::kADeliver]) EXPECT_EQ(s.detail, 0);
}

TEST(SpanIntegration, TracedMixedRunDecomposesExactly) {
  SpanLog spans;
  HarnessConfig cfg;
  cfg.num_targets = 2;
  cfg.obs.spans = &spans;
  cfg.trace_sample_every = 1;
  ByzCastHarness h(cfg);
  h.run(4, 12, mixed_dst);
  EXPECT_EQ(h.completions, 48);
  EXPECT_EQ(spans.dropped(), 0u);
  EXPECT_EQ(spans.traced_messages().size(), 48u);

  std::size_t local = 0;
  std::size_t global = 0;
  expect_exact_decomposition(spans, cfg.f, &local, &global);
  EXPECT_EQ(local, 32u);
  EXPECT_EQ(global, 16u);

  // Global messages crossed the entry group: the analyzer saw the relay
  // edges from the auxiliary root to both destinations.
  CriticalPathAnalyzer analyzer(spans, CriticalPathAnalyzer::Options{cfg.f});
  EXPECT_FALSE(analyzer.edge_latency().empty());
}

TEST(SpanIntegration, SamplingTracesEveryNthMessage) {
  SpanLog spans;
  HarnessConfig cfg;
  cfg.num_targets = 2;
  cfg.obs.spans = &spans;
  cfg.trace_sample_every = 4;
  ByzCastHarness h(cfg);
  h.run(2, 12, mixed_dst);
  EXPECT_EQ(h.completions, 24);
  // Client uids 0, 4, 8 of each of the two clients.
  EXPECT_EQ(spans.traced_messages().size(), 6u);
  for (const MessageId& id : spans.traced_messages()) {
    EXPECT_EQ(id.seq % 4, 0u);
  }
}

TEST(SpanIntegration, WellFormedUnderMessageLoss) {
  SpanLog spans;
  HarnessConfig cfg;
  cfg.num_targets = 2;
  cfg.obs.spans = &spans;
  cfg.trace_sample_every = 1;
  ByzCastHarness h(cfg);
  h.sim.network().faults().set_loss_probability(0.01);
  h.run(4, 10, mixed_dst);
  EXPECT_GT(h.completions, 0);
  // Loss may leave some traces truncated (complete=false); whatever IS
  // complete must still decompose exactly.
  expect_exact_decomposition(spans, cfg.f);
}

TEST(SpanIntegration, WellFormedUnderByzantineFaults) {
  SpanLog spans;
  HarnessConfig cfg;
  cfg.num_targets = 2;
  cfg.obs.spans = &spans;
  cfg.trace_sample_every = 1;
  // One auxiliary replica goes fully silent, another front-runs toward a
  // child: both the f+1 thresholds and the relay streams are stressed.
  std::vector<bft::FaultSpec> faults(4);
  faults[1].silent = true;
  cfg.faults.by_group[GroupId{testing::kAuxBase}] = faults;
  ByzCastHarness h(cfg);
  std::size_t global = 0;
  h.run(4, 10, mixed_dst);
  EXPECT_EQ(h.completions, 40);
  expect_exact_decomposition(spans, cfg.f, nullptr, &global);
  EXPECT_GT(global, 0u);
}

TEST(SpanIntegration, TruncationByCapacityIsReportedAndHarmless) {
  SpanLog spans(/*capacity=*/200);
  HarnessConfig cfg;
  cfg.num_targets = 2;
  cfg.obs.spans = &spans;
  cfg.trace_sample_every = 1;
  ByzCastHarness h(cfg);
  h.run(4, 12, mixed_dst);
  EXPECT_EQ(h.completions, 48);
  EXPECT_GT(spans.dropped(), 0u);
  EXPECT_EQ(spans.spans().size(), 200u);
  // Truncated span trees analyze without crashing; complete ones (if any)
  // stay exact.
  expect_exact_decomposition(spans, cfg.f);
}

TEST(SpanIntegration, UntracedRunRecordsNothing) {
  SpanLog spans;
  HarnessConfig cfg;
  cfg.num_targets = 2;
  cfg.obs.spans = &spans;
  cfg.trace_sample_every = 0;  // knob off: no client ever sets the flag
  ByzCastHarness h(cfg);
  h.run(2, 6, mixed_dst);
  EXPECT_EQ(h.completions, 12);
  EXPECT_TRUE(spans.spans().empty());
}

}  // namespace
}  // namespace byzcast::core
