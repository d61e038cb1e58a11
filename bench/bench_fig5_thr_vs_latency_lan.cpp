// Figure 5: LAN throughput versus latency as the number of closed-loop
// clients grows. (a) local messages (ByzCast / Baseline, 2 and 4 groups,
// BFT-SMaRt reference); (b) global messages. Expected shapes: for local
// traffic ByzCast sustains ~2x+ the Baseline's throughput at comparable
// latency; for global traffic every protocol saturates below BFT-SMaRt.
#include <cstdio>

#include "workload/experiment.hpp"
#include "workload/report.hpp"

namespace {

using namespace byzcast;
using namespace byzcast::workload;

ExperimentResult g_probe;  // highest-load ByzCast global run, for the sidecar

void sweep(const char* title, Pattern pattern) {
  print_header(title);
  struct Curve {
    const char* name;
    Protocol protocol;
    int groups;
  };
  const Curve curves[] = {
      {"ByzCast-2g", Protocol::kByzCast2Level, 2},
      {"ByzCast-4g", Protocol::kByzCast2Level, 4},
      {"Baseline-2g", Protocol::kBaseline, 2},
      {"Baseline-4g", Protocol::kBaseline, 4},
      {"BFT-SMaRt", Protocol::kBftSmart, 1},
  };
  for (const Curve& curve : curves) {
    std::printf("\n%s:\n", curve.name);
    std::vector<std::vector<std::string>> rows;
    for (const int clients_per_group : {1, 8, 30, 80}) {
      ExperimentConfig cfg;
      cfg.protocol = curve.protocol;
      cfg.num_groups = curve.groups;
      cfg.clients_per_group = clients_per_group;
      cfg.workload.pattern = pattern;
      cfg.warmup = 1 * kSecond;
      cfg.duration = 2500 * kMillisecond;
      cfg.seed = 13;
      const bool probe = curve.protocol == Protocol::kByzCast2Level &&
                         pattern == Pattern::kGlobalUniformPairs;
      if (probe) enable_sidecar_spans(cfg);
      const ExperimentResult res = run_experiment(cfg);
      if (probe) g_probe = res;
      rows.push_back({std::to_string(clients_per_group * curve.groups),
                      fmt(res.throughput, 0),
                      fmt(res.latency_all.mean_ms()),
                      fmt(res.latency_all.percentile_ms(95))});
    }
    print_table({"clients", "throughput msg/s", "mean ms", "p95 ms"}, rows);
    write_series_csv(std::string("bench_csv/fig5_") +
                         (pattern == Pattern::kLocalOnly ? "local_"
                                                         : "global_") +
                         curve.name + ".csv",
                     {"clients", "throughput", "mean_ms", "p95_ms"}, rows);
  }
}

}  // namespace

int main() {
  sweep("Figure 5(a): throughput vs latency, LOCAL messages",
        Pattern::kLocalOnly);
  std::printf(
      "\nPaper: ByzCast is at least twice as fast as Baseline for local "
      "messages (half the latency even with 2 groups).\n");

  sweep("Figure 5(b): throughput vs latency, GLOBAL messages",
        Pattern::kGlobalUniformPairs);
  std::printf(
      "\nPaper: with global messages BFT-SMaRt always performs best; "
      "ByzCast and Baseline saturate below half its throughput.\n");
  write_metrics_sidecar("bench_csv/fig5_metrics.json", g_probe);
  return 0;
}
