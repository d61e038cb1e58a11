// Workload spec parsing: the JSON schema of configs/workloads/*.json maps
// onto ExperimentConfig/RateSchedule, defaults hold when fields are absent,
// and malformed documents are rejected with a diagnostic instead of running
// a half-configured experiment.
#include "workload/spec.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/json.hpp"

namespace byzcast::workload {
namespace {

std::optional<WorkloadSpec> parse(const std::string& text,
                                  std::string* error = nullptr) {
  std::string json_error;
  const auto doc = Json::parse(text, &json_error);
  EXPECT_TRUE(doc.has_value()) << json_error;
  if (!doc) return std::nullopt;
  return parse_workload_spec(*doc, error);
}

TEST(WorkloadSpec, ParsesFullSweepDocument) {
  const auto spec = parse(R"({
    "name": "wan-sweep",
    "protocol": "byzcast-2l",
    "environment": "wan",
    "num_groups": 2,
    "f": 1,
    "clients_per_group": 100,
    "payload_size": 64,
    "warmup_ms": 2000,
    "duration_ms": 6000,
    "seed": 42,
    "monitors": true,
    "workload": {"pattern": "mixed", "mixed_local": 10, "mixed_global": 1},
    "rate": {"kind": "sweep", "rates": [1500, 3000, 4500],
             "knee_p99_factor": 4.0, "knee_goodput_floor": 0.9,
             "bisect_iters": 2},
    "ablations": ["pipeline_off", "zero_copy_off"]
  })");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->name, "wan-sweep");
  EXPECT_EQ(spec->base.protocol, Protocol::kByzCast2Level);
  EXPECT_EQ(spec->base.environment, Environment::kWan);
  EXPECT_EQ(spec->base.num_groups, 2);
  EXPECT_EQ(spec->base.clients_per_group, 100);
  EXPECT_EQ(spec->base.payload_size, 64u);
  EXPECT_EQ(spec->base.warmup, 2 * kSecond);
  EXPECT_EQ(spec->base.duration, 6 * kSecond);
  EXPECT_EQ(spec->base.seed, 42u);
  EXPECT_TRUE(spec->base.monitors);
  EXPECT_EQ(spec->base.workload.pattern, Pattern::kMixed);
  EXPECT_EQ(spec->schedule.kind, RateSchedule::Kind::kSweep);
  ASSERT_EQ(spec->schedule.rates.size(), 3u);
  EXPECT_DOUBLE_EQ(spec->schedule.rates[1], 3000.0);
  EXPECT_DOUBLE_EQ(spec->schedule.knee_p99_factor, 4.0);
  EXPECT_DOUBLE_EQ(spec->schedule.knee_goodput_floor, 0.9);
  EXPECT_EQ(spec->schedule.bisect_iters, 2);
  ASSERT_EQ(spec->ablations.size(), 2u);
  EXPECT_EQ(spec->ablations[0], "pipeline_off");
  // Listing an ablation must not mutate the base config — sweep mode runs
  // the baseline curve from it.
  EXPECT_FALSE(spec->base.pipeline_off);
  EXPECT_FALSE(spec->base.zero_copy_off);
}

TEST(WorkloadSpec, MinimalDocumentKeepsDefaults) {
  const auto spec = parse(R"({"name": "tiny"})");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->base.protocol, Protocol::kByzCast2Level);
  EXPECT_EQ(spec->base.environment, Environment::kLan);
  EXPECT_EQ(spec->schedule.kind, RateSchedule::Kind::kFixed);
  EXPECT_DOUBLE_EQ(spec->schedule.fixed_rate, 0.0);  // 0 = closed loop
  EXPECT_TRUE(spec->ablations.empty());
  EXPECT_LT(spec->base.open_loop_local_share, 0.0);  // pattern's own mix
}

TEST(WorkloadSpec, ParsesStagePipelineKnobs) {
  const auto spec = parse(R"({
    "name": "vertical",
    "verify_workers": 4,
    "exec_shards": 8,
    "ablations": ["stage_pipeline_off"]
  })");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->base.verify_workers, 4u);
  EXPECT_EQ(spec->base.exec_shards, 8u);
  // The ablation is listed, not applied — sweep mode derives the off-curve.
  EXPECT_FALSE(spec->base.stage_pipeline_off);
  ASSERT_EQ(spec->ablations.size(), 1u);
  EXPECT_EQ(spec->ablations[0], "stage_pipeline_off");

  // Absent knobs default to the serial pipeline.
  const auto plain = parse(R"({"name": "tiny"})");
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(plain->base.verify_workers, 0u);
  EXPECT_EQ(plain->base.exec_shards, 0u);
  EXPECT_FALSE(plain->base.stage_pipeline_off);
}

TEST(WorkloadSpec, ParsesZipfWorkloadAndLocalShare) {
  const auto spec = parse(R"({
    "name": "zipf",
    "workload": {"pattern": "zipf", "zipf_s": 0.99, "global_fanout": 2,
                 "local_share": 0.9},
    "rate": {"kind": "fixed", "value": 4000}
  })");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->base.workload.pattern, Pattern::kZipf);
  EXPECT_DOUBLE_EQ(spec->base.workload.zipf_s, 0.99);
  EXPECT_DOUBLE_EQ(spec->base.open_loop_local_share, 0.9);
  EXPECT_DOUBLE_EQ(spec->schedule.fixed_rate, 4000.0);
}

TEST(WorkloadSpec, RejectsBadDocuments) {
  const struct {
    const char* text;
    const char* why;
  } cases[] = {
      {R"({})", "missing name"},
      {R"({"name": "x", "protocol": "paxos"})", "unknown protocol"},
      {R"({"name": "x", "environment": "moon"})", "unknown environment"},
      {R"({"name": "x", "workload": {"pattern": "hot"}})", "unknown pattern"},
      {R"({"name": "x", "workload": {"zipf_s": -1}})", "negative zipf_s"},
      {R"({"name": "x", "workload": {"local_share": 1.5}})",
       "local_share > 1"},
      {R"({"name": "x", "rate": {"kind": "warp"}})", "unknown rate kind"},
      {R"({"name": "x", "rate": {"kind": "sweep", "rates": []}})",
       "empty rates"},
      {R"({"name": "x", "rate": {"kind": "sweep", "rates": [100, 100]}})",
       "non-increasing rates"},
      {R"({"name": "x", "rate": {"kind": "step", "rates": [0, 100]}})",
       "non-positive rate"},
      {R"({"name": "x", "rate": {"kind": "sweep", "rates": [1, 2],
           "knee_p99_factor": 1.0}})",
       "knee factor must exceed 1"},
      {R"({"name": "x", "rate": {"kind": "sweep", "rates": [1, 2],
           "knee_goodput_floor": 1.5}})",
       "goodput floor above 1"},
      {R"({"name": "x", "ablations": ["warp_drive_off"]})",
       "unknown ablation"},
      {R"({"name": "x", "num_groups": 0})", "no groups"},
      {R"({"name": "x", "duration_ms": 0})", "empty window"},
  };
  for (const auto& c : cases) {
    std::string error;
    EXPECT_FALSE(parse(c.text, &error).has_value()) << c.why;
    EXPECT_FALSE(error.empty()) << c.why;
  }
}

TEST(WorkloadSpec, RejectsMonitorsOrSpansWithoutObservability) {
  // run_experiment only builds monitors and spans when observability is on,
  // so such a spec would pass a zero-violations gate without checking.
  for (const char* text :
       {R"({"name": "x", "observability": false, "monitors": true})",
        R"({"name": "x", "observability": false, "span_tracing": true})"}) {
    std::string error;
    EXPECT_FALSE(parse(text, &error).has_value()) << text;
    EXPECT_NE(error.find("observability"), std::string::npos) << error;
  }
  const auto plain = parse(R"({"name": "x", "observability": false})");
  ASSERT_TRUE(plain.has_value());
  EXPECT_FALSE(plain->base.observability);
}

TEST(WorkloadSpec, ApplyAblationSetsExactlyTheNamedSwitch) {
  ExperimentConfig cfg;
  EXPECT_TRUE(apply_ablation(cfg, "zero_copy_off"));
  EXPECT_TRUE(cfg.zero_copy_off);
  EXPECT_FALSE(cfg.pipeline_off);

  cfg = ExperimentConfig{};
  EXPECT_TRUE(apply_ablation(cfg, "pipeline_off"));
  EXPECT_TRUE(cfg.pipeline_off);

  cfg = ExperimentConfig{};
  EXPECT_TRUE(apply_ablation(cfg, "batch_adapt_off"));
  EXPECT_TRUE(cfg.batch_adapt_off);

  cfg = ExperimentConfig{};
  EXPECT_TRUE(apply_ablation(cfg, "stage_pipeline_off"));
  EXPECT_TRUE(cfg.stage_pipeline_off);

  cfg = ExperimentConfig{};
  EXPECT_FALSE(apply_ablation(cfg, "warp_drive_off"));
  // The MAC verify memo and its ablation pair are gone.
  EXPECT_FALSE(apply_ablation(cfg, "mac_memo_off"));
  EXPECT_FALSE(apply_ablation(cfg, "mac_memo_on"));
}

TEST(WorkloadSpec, LoadsCheckedInSpecFiles) {
  // The shipped spec files must stay parseable — they are the CI sweep's
  // and the cluster smoke's inputs.
  for (const char* name :
       {"wan_sweep.json", "lan_sweep.json", "zipf_mix.json",
        "net_smoke.json", "ci_sweep.json"}) {
    std::string error;
    const auto spec = load_workload_spec(
        std::string(BZC_CONFIGS_DIR) + "/workloads/" + name, &error);
    EXPECT_TRUE(spec.has_value()) << name << ": " << error;
  }
}

TEST(WorkloadSpec, LoadReportsMissingFile) {
  std::string error;
  EXPECT_FALSE(load_workload_spec("/nonexistent/spec.json", &error));
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

}  // namespace
}  // namespace byzcast::workload
