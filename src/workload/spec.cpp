#include "workload/spec.hpp"

#include <fstream>
#include <sstream>

namespace byzcast::workload {

namespace {

bool fail(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
  return false;
}

bool parse_protocol(const std::string& s, Protocol* out, std::string* error) {
  if (s == "byzcast-2l") *out = Protocol::kByzCast2Level;
  else if (s == "byzcast-3l") *out = Protocol::kByzCast3Level;
  else if (s == "baseline") *out = Protocol::kBaseline;
  else if (s == "bft-smart") *out = Protocol::kBftSmart;
  else return fail(error, "unknown protocol: " + s);
  return true;
}

bool parse_environment(const std::string& s, Environment* out,
                       std::string* error) {
  if (s == "lan") *out = Environment::kLan;
  else if (s == "wan") *out = Environment::kWan;
  else return fail(error, "unknown environment: " + s);
  return true;
}

bool parse_pattern(const std::string& s, Pattern* out, std::string* error) {
  if (s == "local") *out = Pattern::kLocalOnly;
  else if (s == "uniform-pairs") *out = Pattern::kGlobalUniformPairs;
  else if (s == "skewed-pairs") *out = Pattern::kGlobalSkewedPairs;
  else if (s == "mixed") *out = Pattern::kMixed;
  else if (s == "fanout") *out = Pattern::kGlobalFanout;
  else if (s == "zipf") *out = Pattern::kZipf;
  else return fail(error, "unknown pattern: " + s);
  return true;
}

}  // namespace

bool apply_ablation(ExperimentConfig& config, const std::string& name) {
  if (name == "zero_copy_off") config.zero_copy_off = true;
  else if (name == "mac_memo_off") config.mac_memo_off = true;
  else if (name == "mac_memo_on") config.real_macs = true;
  else if (name == "pipeline_off") config.pipeline_off = true;
  else if (name == "batch_adapt_off") config.batch_adapt_off = true;
  else if (name == "stage_pipeline_off") config.stage_pipeline_off = true;
  else return false;
  return true;
}

std::optional<WorkloadSpec> parse_workload_spec(const Json& doc,
                                                std::string* error) {
  if (!doc.is_object()) {
    fail(error, "spec root must be an object");
    return std::nullopt;
  }
  WorkloadSpec spec;
  spec.name = doc.get("name").as_string();
  if (spec.name.empty()) {
    fail(error, "spec requires a non-empty \"name\"");
    return std::nullopt;
  }

  ExperimentConfig& cfg = spec.base;
  if (doc.has("protocol") &&
      !parse_protocol(doc.get("protocol").as_string(), &cfg.protocol, error)) {
    return std::nullopt;
  }
  if (doc.has("environment") &&
      !parse_environment(doc.get("environment").as_string(), &cfg.environment,
                         error)) {
    return std::nullopt;
  }
  cfg.num_groups = static_cast<int>(doc.int_or("num_groups", cfg.num_groups));
  cfg.f = static_cast<int>(doc.int_or("f", cfg.f));
  cfg.clients_per_group = static_cast<int>(
      doc.int_or("clients_per_group", cfg.clients_per_group));
  cfg.payload_size = static_cast<std::size_t>(
      doc.int_or("payload_size", static_cast<std::int64_t>(cfg.payload_size)));
  cfg.warmup =
      doc.int_or("warmup_ms", static_cast<std::int64_t>(to_ms(cfg.warmup))) *
      kMillisecond;
  cfg.duration =
      doc.int_or("duration_ms",
                 static_cast<std::int64_t>(to_ms(cfg.duration))) *
      kMillisecond;
  cfg.seed = static_cast<std::uint64_t>(
      doc.int_or("seed", static_cast<std::int64_t>(cfg.seed)));
  if (cfg.num_groups < 1 || cfg.f < 1 || cfg.clients_per_group < 1 ||
      cfg.warmup < 0 || cfg.duration <= 0) {
    fail(error, "spec has a non-positive population or window field");
    return std::nullopt;
  }
  cfg.verify_workers = static_cast<std::uint32_t>(
      doc.int_or("verify_workers", cfg.verify_workers));
  cfg.exec_shards = static_cast<std::uint32_t>(
      doc.int_or("exec_shards", cfg.exec_shards));
  if (doc.has("monitors")) cfg.monitors = doc.get("monitors").as_bool();
  if (doc.has("span_tracing")) {
    cfg.span_tracing = doc.get("span_tracing").as_bool();
  }
  if (doc.has("observability")) {
    cfg.observability = doc.get("observability").as_bool();
  }
  if (!cfg.observability && (cfg.monitors || cfg.span_tracing)) {
    // run_experiment builds monitors and spans on top of observability; a
    // spec asking for them without it would silently get neither.
    fail(error, "\"monitors\" and \"span_tracing\" require "
                "\"observability\"");
    return std::nullopt;
  }

  const Json& wl = doc.get("workload");
  if (wl.is_object()) {
    if (wl.has("pattern") &&
        !parse_pattern(wl.get("pattern").as_string(), &cfg.workload.pattern,
                       error)) {
      return std::nullopt;
    }
    cfg.workload.zipf_s = wl.num_or("zipf_s", cfg.workload.zipf_s);
    cfg.workload.global_fanout = static_cast<int>(
        wl.int_or("global_fanout", cfg.workload.global_fanout));
    cfg.workload.mixed_local = static_cast<int>(
        wl.int_or("mixed_local", cfg.workload.mixed_local));
    cfg.workload.mixed_global = static_cast<int>(
        wl.int_or("mixed_global", cfg.workload.mixed_global));
    cfg.open_loop_local_share =
        wl.num_or("local_share", cfg.open_loop_local_share);
    if (cfg.workload.zipf_s < 0.0) {
      fail(error, "zipf_s must be >= 0");
      return std::nullopt;
    }
    if (cfg.open_loop_local_share > 1.0) {
      fail(error, "local_share must be <= 1");
      return std::nullopt;
    }
  }

  const Json& rate = doc.get("rate");
  if (rate.is_object()) {
    const std::string kind = rate.get("kind").as_string();
    RateSchedule& sched = spec.schedule;
    if (kind == "fixed" || kind.empty()) {
      sched.kind = RateSchedule::Kind::kFixed;
      sched.fixed_rate = rate.num_or("value", 0.0);
      if (sched.fixed_rate < 0.0) {
        fail(error, "fixed rate must be >= 0");
        return std::nullopt;
      }
    } else if (kind == "step" || kind == "sweep") {
      sched.kind = kind == "step" ? RateSchedule::Kind::kStep
                                  : RateSchedule::Kind::kSweep;
      const Json& rates = rate.get("rates");
      for (std::size_t i = 0; i < rates.size(); ++i) {
        const double r = rates.at(i).as_double();
        if (r <= 0.0) {
          fail(error, "step/sweep rates must be > 0");
          return std::nullopt;
        }
        if (!sched.rates.empty() && r <= sched.rates.back()) {
          fail(error, "step/sweep rates must be strictly increasing");
          return std::nullopt;
        }
        sched.rates.push_back(r);
      }
      if (sched.rates.empty()) {
        fail(error, "step/sweep schedule requires a non-empty \"rates\"");
        return std::nullopt;
      }
      sched.knee_p99_factor =
          rate.num_or("knee_p99_factor", sched.knee_p99_factor);
      sched.knee_goodput_floor =
          rate.num_or("knee_goodput_floor", sched.knee_goodput_floor);
      sched.bisect_iters = static_cast<int>(
          rate.int_or("bisect_iters", sched.bisect_iters));
      if (sched.knee_p99_factor <= 1.0 || sched.knee_goodput_floor <= 0.0 ||
          sched.knee_goodput_floor > 1.0 || sched.bisect_iters < 0) {
        fail(error, "knee parameters out of range");
        return std::nullopt;
      }
    } else {
      fail(error, "unknown rate kind: " + kind);
      return std::nullopt;
    }
  }

  const Json& abl = doc.get("ablations");
  for (std::size_t i = 0; i < abl.size(); ++i) {
    const std::string name = abl.at(i).as_string();
    ExperimentConfig probe;  // validate the name without mutating base
    if (!apply_ablation(probe, name)) {
      fail(error, "unknown ablation: " + name);
      return std::nullopt;
    }
    spec.ablations.push_back(name);
  }
  return spec;
}

std::optional<WorkloadSpec> load_workload_spec(const std::string& path,
                                               std::string* error) {
  std::ifstream in(path);
  if (!in) {
    fail(error, "cannot open workload spec: " + path);
    return std::nullopt;
  }
  std::ostringstream text;
  text << in.rdbuf();
  std::string parse_error;
  const auto doc = Json::parse(text.str(), &parse_error);
  if (!doc) {
    fail(error, path + ": " + parse_error);
    return std::nullopt;
  }
  return parse_workload_spec(*doc, error);
}

}  // namespace byzcast::workload
