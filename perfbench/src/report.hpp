// Result record of one benchmark run: named metrics with units and sample
// counts, latency percentiles, and the host fingerprint. The last line a
// run prints is the one-object summary the benchmark contract asks for;
// everything before it is the human-readable ledger and the run record.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;  // observations behind the value (0 = n/a)
  bool in_summary = true;     // false: printed in the ledger only
};

/// Linear-interpolated percentile (p in [0, 100]) of unsorted samples;
/// 0 when empty.
[[nodiscard]] double percentile(std::vector<double> samples, double p);
[[nodiscard]] double median(std::vector<double> samples);

/// Latency summary of one message class: p50/p90 for the metrics, p99 and
/// the highest percentile with at least ten samples beyond it as tail
/// diagnostics.
struct LatencySummary {
  std::uint64_t n = 0;
  double p50 = 0.0, p90 = 0.0, p99 = 0.0;
  double tail_pct = 0.0;  // highest percentile with >= 10 samples above it
  double tail = 0.0;
};
[[nodiscard]] LatencySummary summarize(const std::vector<double>& samples);

class Report {
 public:
  void add(std::string name, double value, std::string unit,
           std::uint64_t samples = 0, bool in_summary = true);
  /// Free-form diagnostics for the run record (not contract metrics).
  void note(const std::string& key, const std::string& json_value);
  void note_latency(const std::string& cls, const LatencySummary& s);

  [[nodiscard]] const Metric* find(const std::string& name) const;

  /// Prints one "metric" line per metric, the run record as one JSON line,
  /// then the contract summary as the final line.
  void print(const std::string& workload, std::uint64_t seed, bool trace,
             bool correct, std::uint64_t attempted,
             std::uint64_t failed) const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> notes_;
};

/// JSON string literal with escaping.
[[nodiscard]] std::string json_str(const std::string& s);
/// A double with all its digits, as a JSON number.
[[nodiscard]] std::string json_num(double v);

}  // namespace perfbench
