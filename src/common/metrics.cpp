#include "common/metrics.hpp"

#include <algorithm>
#include <bit>
#include <sstream>

#include "common/contracts.hpp"

namespace byzcast {

void Counter::raise_to(std::uint64_t v) {
  const std::uint64_t before = value_.exchange(v, std::memory_order_relaxed);
  BZC_EXPECTS(before <= v);
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1) {
  BZC_EXPECTS(std::is_sorted(bounds_.begin(), bounds_.end()));
}

void Histogram::observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  counts_[static_cast<std::size_t>(it - bounds_.begin())].fetch_add(
      1, std::memory_order_relaxed);
  total_.fetch_add(1, std::memory_order_relaxed);
  // Doubles have no atomic fetch_add guaranteed lock-free everywhere; CAS the
  // bit pattern instead (the loop retries only under a concurrent update).
  std::uint64_t expected = sum_bits_.load(std::memory_order_relaxed);
  while (!sum_bits_.compare_exchange_weak(
      expected, std::bit_cast<std::uint64_t>(std::bit_cast<double>(expected) + v),
      std::memory_order_relaxed)) {
  }
}

std::vector<std::uint64_t> Histogram::counts() const {
  std::vector<std::uint64_t> out;
  out.reserve(counts_.size());
  for (const auto& c : counts_) out.push_back(c.load(std::memory_order_relaxed));
  return out;
}

std::uint64_t Histogram::count() const {
  return total_.load(std::memory_order_relaxed);
}

double Histogram::sum() const {
  return std::bit_cast<double>(sum_bits_.load(std::memory_order_relaxed));
}

Counter& MetricsRegistry::counter(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mu_);
  return counters_[name];
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mu_);
  return gauges_[name];
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  return histograms_.try_emplace(name, std::move(bounds)).first->second;
}

Timeseries& MetricsRegistry::timeseries(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mu_);
  return timeseries_[name];
}

std::uint64_t MetricsRegistry::counter_sum(std::string_view prefix) const {
  std::uint64_t total = 0;
  for (auto it = counters_.lower_bound(std::string(prefix));
       it != counters_.end() && it->first.starts_with(prefix); ++it) {
    total += it->second.value();
  }
  return total;
}

namespace {

void json_number(std::ostream& os, double v) {
  // JSON has no NaN/Inf; clamp to null.
  if (v != v) {
    os << "null";
    return;
  }
  std::ostringstream tmp;
  tmp.precision(12);
  tmp << v;
  os << tmp.str();
}

void json_key(std::ostream& os, const std::string& name, bool& first) {
  if (!first) os << ",";
  first = false;
  os << '"' << name << "\":";  // metric names never need escaping
}

}  // namespace

std::string MetricsRegistry::to_json() const {
  std::ostringstream os;
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    json_key(os, name, first);
    os << c.value();
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    json_key(os, name, first);
    json_number(os, g.value());
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    json_key(os, name, first);
    os << "{\"bounds\":[";
    for (std::size_t i = 0; i < h.bounds().size(); ++i) {
      if (i) os << ",";
      json_number(os, h.bounds()[i]);
    }
    os << "],\"counts\":[";
    for (std::size_t i = 0; i < h.counts().size(); ++i) {
      if (i) os << ",";
      os << h.counts()[i];
    }
    os << "],\"count\":" << h.count() << ",\"sum\":";
    json_number(os, h.sum());
    os << "}";
  }
  os << "},\"timeseries\":{";
  first = true;
  for (const auto& [name, ts] : timeseries_) {
    json_key(os, name, first);
    os << "[";
    for (std::size_t i = 0; i < ts.points().size(); ++i) {
      if (i) os << ",";
      os << "[";
      json_number(os, to_ms(ts.points()[i].first));
      os << ",";
      json_number(os, ts.points()[i].second);
      os << "]";
    }
    os << "]";
  }
  os << "}}";
  return os.str();
}

}  // namespace byzcast
