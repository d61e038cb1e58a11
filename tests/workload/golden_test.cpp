// Same-seed golden outcomes. One fixed seed on the LAN sweep settings (real
// HMAC-SHA256) and on the WAN sweep settings, in short windows, must keep
// producing exactly these completions, a-deliveries, wire messages and
// latency CDFs. Changes that only make the host faster leave them alone; a
// change that moves one of them altered what the simulation computes, and
// must say so and re-pin the values.
#include <gtest/gtest.h>

#include <bit>

#include "common/bytes.hpp"
#include "common/json.hpp"
#include "common/serde.hpp"
#include "common/sha256.hpp"
#include "workload/experiment.hpp"
#include "workload/spec.hpp"

namespace byzcast::workload {
namespace {

/// configs/workloads/lan_sweep.json's settings at one fixed rate, real MACs.
constexpr const char* kLanSpec = R"({
  "name": "golden-lan-hmac",
  "protocol": "byzcast-2l",
  "environment": "lan",
  "num_groups": 2,
  "f": 1,
  "clients_per_group": 100,
  "payload_size": 64,
  "warmup_ms": 300,
  "duration_ms": 700,
  "seed": 20261018,
  "monitors": true,
  "workload": {"pattern": "mixed", "mixed_local": 10, "mixed_global": 1},
  "rate": {"kind": "fixed", "value": 10000}
})";

/// configs/workloads/wan_sweep.json's settings at one fixed rate.
constexpr const char* kWanSpec = R"({
  "name": "golden-wan",
  "protocol": "byzcast-2l",
  "environment": "wan",
  "num_groups": 2,
  "f": 1,
  "clients_per_group": 100,
  "payload_size": 64,
  "warmup_ms": 1000,
  "duration_ms": 1500,
  "seed": 20261018,
  "monitors": true,
  "workload": {"pattern": "mixed", "mixed_local": 10, "mixed_global": 1},
  "rate": {"kind": "fixed", "value": 6000}
})";

struct Outcome {
  std::uint64_t completed = 0;
  std::uint64_t a_deliveries = 0;
  std::uint64_t wire_messages = 0;
  std::string cdf_digest;  // first 16 hex digits of SHA-256
  std::uint64_t violations = 0;
};

void add_cdf(Writer& w, const LatencyRecorder& rec) {
  const auto points = rec.cdf(22);
  w.u64(rec.count());
  for (const auto& [ms, frac] : points) {
    w.u64(std::bit_cast<std::uint64_t>(ms));
    w.u64(std::bit_cast<std::uint64_t>(frac));
  }
}

Outcome run(const char* spec_text, bool real_macs) {
  std::string err;
  const auto doc = Json::parse(spec_text, &err);
  EXPECT_TRUE(doc.has_value()) << err;
  const auto spec = parse_workload_spec(*doc, &err);
  EXPECT_TRUE(spec.has_value()) << err;
  ExperimentConfig cfg = spec->base;
  cfg.open_loop_total_rate = spec->schedule.fixed_rate;
  cfg.real_macs = real_macs;
  const ExperimentResult res = run_experiment(cfg);

  Writer w;
  add_cdf(w, res.latency_all);
  add_cdf(w, res.latency_local);
  add_cdf(w, res.latency_global);
  Outcome out;
  out.completed = res.completed;
  out.a_deliveries = res.a_deliveries;
  out.wire_messages = res.wire_messages;
  out.cdf_digest = to_hex(Sha256::hash(w.data())).substr(0, 16);
  out.violations = res.monitors ? res.monitors->total_violations() : 0;
  return out;
}

TEST(GoldenSameSeed, LanHmacSweepSettings) {
  const Outcome o = run(kLanSpec, /*real_macs=*/true);
  EXPECT_EQ(o.violations, 0u);
  EXPECT_EQ(o.completed, 9907u);
  EXPECT_EQ(o.a_deliveries, 30761u);
  EXPECT_EQ(o.wire_messages, 144046u);
  EXPECT_EQ(o.cdf_digest, "dc5094cbe6edcafd");
}

TEST(GoldenSameSeed, WanSweepSettings) {
  const Outcome o = run(kWanSpec, /*real_macs=*/false);
  EXPECT_EQ(o.violations, 0u);
  EXPECT_EQ(o.completed, 13205u);
  EXPECT_EQ(o.a_deliveries, 40492u);
  EXPECT_EQ(o.wire_messages, 133137u);
  EXPECT_EQ(o.cdf_digest, "cce9d7f0ada547f9");
}

/// ROADMAP's fault-free bar on both golden settings: the replica counters
/// the run exports show no view change, state transfer or dropped PROPOSE
/// (zero counters are not published, so an absent name counts as 0).
TEST(Experiment, FaultFreeRunInstallsNoViews) {
  for (const auto& [spec_text, real_macs] :
       {std::pair{kLanSpec, true}, std::pair{kWanSpec, false}}) {
    std::string err;
    const auto spec = parse_workload_spec(*Json::parse(spec_text, &err), &err);
    ASSERT_TRUE(spec.has_value()) << err;
    ExperimentConfig cfg = spec->base;
    cfg.open_loop_total_rate = spec->schedule.fixed_rate;
    cfg.real_macs = real_macs;
    const ExperimentResult res = run_experiment(cfg);
    ASSERT_NE(res.metrics, nullptr);

    const auto sum = [&res](const std::string& field) {
      const std::string prefix = "replica." + field + ".";
      std::uint64_t total = 0;
      for (const auto& [name, counter] : res.metrics->counters()) {
        if (name.rfind(prefix, 0) == 0) total += counter.value();
      }
      return total;
    };
    EXPECT_EQ(sum("views_installed"), 0u) << spec->name;
    EXPECT_EQ(sum("state_transfers"), 0u) << spec->name;
    EXPECT_EQ(sum("out_of_window_proposals"), 0u) << spec->name;
    EXPECT_GT(sum("proposals_made"), 0u) << spec->name;  // the export ran
  }
}

}  // namespace
}  // namespace byzcast::workload
