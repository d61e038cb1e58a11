#include "workload/report.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>

namespace byzcast::workload {
namespace {

TEST(Report, FmtPrecision) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(3.14159, 0), "3");
  EXPECT_EQ(fmt(1234.5, 1), "1234.5");
  EXPECT_EQ(fmt(-0.5, 1), "-0.5");
}

TEST(Report, TableAlignsColumns) {
  ::testing::internal::CaptureStdout();
  print_table({"col", "value"},
              {{"aaaa", "1"}, {"b", "22222"}});
  const std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("col"), std::string::npos);
  EXPECT_NE(out.find("aaaa"), std::string::npos);
  EXPECT_NE(out.find("22222"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(Report, HeaderFormat) {
  ::testing::internal::CaptureStdout();
  print_header("Figure 42");
  const std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_EQ(out, "\n== Figure 42 ==\n");
}

TEST(Report, CdfPrintsPoints) {
  LatencyRecorder rec;
  for (int i = 1; i <= 10; ++i) rec.record(i, i * kMillisecond);
  ::testing::internal::CaptureStdout();
  print_cdf("test", rec, 5);
  const std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("test latency CDF (n=10):"), std::string::npos);
  EXPECT_NE(out.find("1.000"), std::string::npos);  // reaches CDF 1.0
}

TEST(Report, CdfCsvWritesFile) {
  LatencyRecorder rec;
  for (int i = 1; i <= 20; ++i) rec.record(i, i * kMillisecond);
  const std::string path = ::testing::TempDir() + "bzc_cdf_test.csv";
  write_cdf_csv(path, rec, 10);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "latency_ms,cdf");
  int lines = 0;
  std::string line;
  while (std::getline(in, line)) ++lines;
  EXPECT_GT(lines, 5);
}

ExperimentConfig sidecar_config() {
  ExperimentConfig cfg;
  cfg.protocol = Protocol::kByzCast2Level;
  cfg.num_groups = 2;
  cfg.clients_per_group = 2;
  cfg.workload.pattern = Pattern::kGlobalUniformPairs;
  cfg.warmup = 200 * kMillisecond;
  cfg.duration = 1 * kSecond;
  cfg.seed = 5;
  return cfg;
}

std::string write_and_read_sidecar(const ExperimentResult& result,
                                   const std::string& name) {
  const std::string path = ::testing::TempDir() + name;
  write_metrics_sidecar(path, result);
  std::ifstream in(path);
  EXPECT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(Report, MetricsSidecarWritesObservabilityJson) {
  ExperimentConfig cfg = sidecar_config();
  enable_sidecar_spans(cfg);
  const ExperimentResult result = run_experiment(cfg);
  ASSERT_NE(result.metrics, nullptr);
  ASSERT_NE(result.spans, nullptr);
  const std::string json =
      write_and_read_sidecar(result, "bzc_metrics_test.json");

  // Acceptance-criterion contents: per-group a-delivery counters, per-replica
  // CPU-busy fractions, and the span-built critical path of one global
  // message: the entry group, then a destination, each with its components.
  EXPECT_NE(json.find("\"group.a_deliveries.g0\""), std::string::npos);
  EXPECT_NE(json.find("\"group.a_deliveries.g1\""), std::string::npos);
  EXPECT_NE(json.find("\"replica.cpu_busy_mean.g0.r0\""), std::string::npos);
  EXPECT_NE(json.find("\"actor.queue_depth.g0.r0\""), std::string::npos);
  EXPECT_NE(json.find("\"spans_recorded\""), std::string::npos);
  EXPECT_NE(json.find("\"spans_dropped\":0"), std::string::npos);
  EXPECT_NE(json.find("\"example_multi_hop\":{\"msg\""), std::string::npos);
  EXPECT_NE(json.find("\"hops\":[{\"group\":2,"), std::string::npos);
  EXPECT_NE(json.find("\"quorum_wait_ns\""), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(Report, MetricsSidecarTraceIsNullWithoutSpans) {
  const ExperimentResult result = run_experiment(sidecar_config());
  ASSERT_NE(result.metrics, nullptr);
  ASSERT_EQ(result.spans, nullptr);
  const std::string json =
      write_and_read_sidecar(result, "bzc_metrics_untraced_test.json");
  EXPECT_NE(json.find("\"group.a_deliveries.g0\""), std::string::npos);
  EXPECT_NE(json.find(",\"trace\":null}"), std::string::npos);
}

TEST(Report, MetricsSidecarIsNoOpWithoutObservability) {
  ExperimentResult result;  // metrics/spans left null
  const std::string path =
      ::testing::TempDir() + "bzc_metrics_absent_test.json";
  write_metrics_sidecar(path, result);
  std::ifstream in(path);
  EXPECT_FALSE(in.good());
}

TEST(Report, SeriesCsvWritesRows) {
  const std::string path = ::testing::TempDir() + "bzc_series_test.csv";
  write_series_csv(path, {"a", "b"}, {{"1", "2"}, {"3", "4"}});
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2");
  std::getline(in, line);
  EXPECT_EQ(line, "3,4");
}

}  // namespace
}  // namespace byzcast::workload
