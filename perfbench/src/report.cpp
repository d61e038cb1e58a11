#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace perfbench {

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

LatencySummary summarize(const std::vector<double>& samples) {
  LatencySummary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  s.p50 = percentile(sorted, 50.0);
  s.p90 = percentile(sorted, 90.0);
  s.p99 = percentile(sorted, 99.0);
  // Highest percentile that still has ten samples above it.
  const double n = static_cast<double>(sorted.size());
  s.tail_pct = n > 10.0 ? 100.0 * (1.0 - 10.0 / n) : 0.0;
  s.tail = percentile(sorted, s.tail_pct);
  return s;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

namespace {

/// CPU brand string and SHA-extension flag straight from CPUID.
std::pair<std::string, bool> cpu_identity() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned a = 0, b = 0, c = 0, d = 0;
  std::string brand;
  if (__get_cpuid(0x80000000u, &a, &b, &c, &d) && a >= 0x80000004u) {
    for (unsigned leaf = 0x80000002u; leaf <= 0x80000004u; ++leaf) {
      unsigned regs[4] = {0, 0, 0, 0};
      __get_cpuid(leaf, &regs[0], &regs[1], &regs[2], &regs[3]);
      brand.append(reinterpret_cast<const char*>(regs), sizeof regs);
    }
    brand = brand.c_str();  // drop NUL padding
    const auto first = brand.find_first_not_of(' ');
    brand = first == std::string::npos ? "" : brand.substr(first);
  }
  bool sha = false;
  if (__get_cpuid_count(7, 0, &a, &b, &c, &d)) sha = (b >> 29) & 1u;
  return {brand.empty() ? "unknown" : brand, sha};
#else
  return {"unknown", false};
#endif
}

std::string host_json() {
  const auto [cpu, sha] = cpu_identity();
  const char* rev = std::getenv("PERFBENCH_REVISION");
  std::ostringstream o;
  o << "{\"nproc\":" << std::thread::hardware_concurrency()
    << ",\"cpu\":" << json_str(cpu)
    << ",\"sha_ni\":" << (sha ? "true" : "false")
    << ",\"compiler\":" << json_str(PERFBENCH_COMPILER)
    << ",\"build_type\":" << json_str(PERFBENCH_BUILD_TYPE)
    << ",\"revision\":" << json_str(rev != nullptr ? rev : "unknown") << "}";
  return o.str();
}

}  // namespace

void Report::add(std::string name, double value, std::string unit,
                 std::uint64_t samples, bool in_summary) {
  metrics_.push_back(
      Metric{std::move(name), value, std::move(unit), samples, in_summary});
}

void Report::note(const std::string& key, const std::string& json_value) {
  notes_.emplace_back(key, json_value);
}

void Report::note_latency(const std::string& cls, const LatencySummary& s) {
  std::ostringstream o;
  o << "{\"n\":" << s.n << ",\"p50_ms\":" << json_num(s.p50)
    << ",\"p90_ms\":" << json_num(s.p90) << ",\"p99_ms\":" << json_num(s.p99)
    << ",\"tail_pct\":" << json_num(s.tail_pct)
    << ",\"tail_ms\":" << json_num(s.tail) << "}";
  note("latency." + cls, o.str());
}

const Metric* Report::find(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void Report::print(const std::string& workload, std::uint64_t seed,
                   bool trace, bool correct, std::uint64_t attempted,
                   std::uint64_t failed) const {
  for (const Metric& m : metrics_) {
    std::printf("%-7s %-34s %16.6f %-8s n=%llu\n",
                m.in_summary ? "metric" : "ledger", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples));
  }
  std::ostringstream rec;
  rec << "{\"run_record\":{\"workload\":" << json_str(workload)
      << ",\"seed\":" << seed << ",\"trace\":" << (trace ? 1 : 0)
      << ",\"host\":" << host_json() << ",\"samples\":{";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    rec << (i ? "," : "") << json_str(metrics_[i].name) << ":"
        << metrics_[i].samples;
  }
  rec << "}";
  for (const auto& [k, v] : notes_) rec << "," << json_str(k) << ":" << v;
  rec << "}}";
  std::printf("%s\n", rec.str().c_str());

  std::ostringstream out;
  out << "{\"correct\":" << (correct ? "true" : "false")
      << ",\"attempted\":" << attempted << ",\"failed\":" << failed
      << ",\"metrics\":{";
  bool first = true;
  for (const Metric& m : metrics_) {
    if (!m.in_summary) continue;
    out << (first ? "" : ",") << json_str(m.name) << ":{\"value\":"
        << json_num(m.value) << ",\"unit\":" << json_str(m.unit) << "}";
    first = false;
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
