// Figure 3: ByzCast global-message throughput and latency CDF with 2-level
// and 3-level trees under the uniform and skewed workloads of Table II.
// Expected shapes (paper §V-C): uniform -> 2-level has lower average latency;
// skewed -> the 2-level root saturates and its latency blows up while the
// 3-level tree splits the load across h2/h3.
#include <cstdio>

#include "workload/experiment.hpp"
#include "workload/report.hpp"

int main() {
  using namespace byzcast;
  using namespace byzcast::workload;

  print_header("Figure 3: overlay tree versus workload (4 target groups)");

  struct Cell {
    const char* workload_name;
    Pattern pattern;
    double offered_rate;  // Table II: ΣF(d), open loop
    const char* tree_name;
    Protocol protocol;
  };
  // Table II uses uniform = 6 pairs x 1200 m/s and skewed = 2 pairs x
  // 9000 m/s, with the skewed per-pair rate chosen just under the group
  // capacity K(h) = 9500 m/s (~0.95 K). Our calibrated simulator's
  // effective per-branch capacity for relayed global traffic is lower, so
  // we preserve the paper's LOAD-TO-CAPACITY RATIOS instead of its absolute
  // rates: uniform well under capacity everywhere, skewed ~0.9x of one
  // branch (fine for the split 3-level tree, overload for the 2-level
  // root, which carries both pairs).
  const Cell cells[] = {
      {"uniform", Pattern::kGlobalUniformPairs, 5400.0, "2-level",
       Protocol::kByzCast2Level},
      {"uniform", Pattern::kGlobalUniformPairs, 5400.0, "3-level",
       Protocol::kByzCast3Level},
      {"skewed", Pattern::kGlobalSkewedPairs, 9600.0, "2-level",
       Protocol::kByzCast2Level},
      {"skewed", Pattern::kGlobalSkewedPairs, 9600.0, "3-level",
       Protocol::kByzCast3Level},
  };

  std::vector<std::vector<std::string>> rows;
  std::vector<std::pair<std::string, LatencyRecorder>> cdfs;
  ExperimentResult probe;  // one instrumented run for the metrics sidecar
  for (const Cell& cell : cells) {
    ExperimentConfig cfg;
    cfg.protocol = cell.protocol;
    cfg.num_groups = 4;
    // Open-loop offered load at the Table II rates: an overloaded layout
    // (the 2-level root under the skewed workload) shows queue growth and
    // a latency blow-up, exactly as in the paper.
    cfg.clients_per_group = 25;
    cfg.open_loop_total_rate = cell.offered_rate;
    cfg.workload.pattern = cell.pattern;
    cfg.warmup = 1 * kSecond;
    cfg.duration = 3 * kSecond;
    cfg.seed = 7;
    if (cell.protocol == Protocol::kByzCast2Level) enable_sidecar_spans(cfg);
    const ExperimentResult res = run_experiment(cfg);
    // The skewed/2-level cell is the interesting one observability-wise:
    // the saturated root's queue depth and CPU-busy fraction explain the
    // latency blow-up.
    if (cell.protocol == Protocol::kByzCast2Level) probe = res;
    rows.push_back({cell.workload_name, cell.tree_name,
                    fmt(res.throughput, 0) + " msg/s",
                    fmt(res.latency_global.mean_ms()) + " ms",
                    fmt(res.latency_global.median_ms()) + " ms",
                    fmt(res.latency_global.percentile_ms(95)) + " ms"});
    cdfs.emplace_back(std::string(cell.workload_name) + "/" + cell.tree_name,
                      res.latency_global);
  }
  print_table({"workload", "tree", "throughput", "mean", "p50", "p95"}, rows);

  std::printf("\n");
  for (const auto& [label, rec] : cdfs) {
    print_cdf(label, rec);
    std::string file = label;
    for (auto& c : file) {
      if (c == '/') c = '_';
    }
    write_cdf_csv("bench_csv/fig3_" + file + ".csv", rec);
  }
  write_series_csv("bench_csv/fig3_throughput.csv",
                   {"workload", "tree", "throughput", "mean_ms", "p50_ms",
                    "p95_ms"},
                   rows);
  write_metrics_sidecar("bench_csv/fig3_metrics.json", probe);

  std::printf(
      "\nPaper Fig. 3: uniform -> 2-level lower average latency; skewed -> "
      "2-level root overloaded (much higher latency), 3-level splits load "
      "across h2/h3.\n");
  return 0;
}
