// byzcast-ctl: operator tool for a live net-backend cluster. Talks to the
// per-daemon introspection servers (net/introspect.hpp) declared in a
// cluster config:
//
//   byzcast-ctl status --config FILE
//       One line of /healthz per process (view, decided instances,
//       deliveries, monitor violations), plus views installed, state
//       transfers and snapshot restores for each replica seat.
//   byzcast-ctl scrape --config FILE --out DIR
//       Saves every process's raw endpoints: prom_<node>.txt,
//       spans_<node>.json, healthz_<node>.json.
//   byzcast-ctl merge --config FILE --out DIR
//       The collector proper (net/collector.hpp): estimates each daemon's
//       clock offset, drains /spans, aligns everything onto one timeline and
//       writes DIR/cluster_spans.json (merged byzcast-spans-v1 sidecar with
//       cross-process critical-path decomposition) and
//       DIR/cluster_trace.json (Perfetto / chrome://tracing).
//
// Exit status: 0 on success (merge additionally requires at least one
// scraped process), 1 on failure, 2 on usage errors.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "bft/replica.hpp"
#include "net/collector.hpp"
#include "net/config.hpp"

namespace {

using namespace byzcast;
using namespace byzcast::net;

int usage() {
  std::fprintf(stderr,
               "usage: byzcast-ctl <status|scrape|merge> --config FILE\n"
               "                   [--out DIR] [--clock-samples N]\n"
               "                   [--timeout-ms N]\n");
  return 2;
}

bool save(const std::string& path, const std::string& body,
          std::string* error) {
  std::ofstream out(path);
  out << body;
  if (!out.good()) {
    *error = "cannot write " + path;
    return false;
  }
  return true;
}

/// The replica counters `status` shows: the catch-up paths behind a stall.
using Counters = bft::Replica::Counters;
constexpr std::uint64_t Counters::*kStatusCounters[] = {
    &Counters::views_installed, &Counters::state_transfers,
    &Counters::snapshot_restores};

int cmd_status(const ClusterConfig& cfg, int timeout_ms) {
  bool all_ok = true;
  for (const ScrapeTarget& t : introspect_targets(cfg)) {
    std::string error;
    const auto body = http_get(t.host, t.port, "/healthz", timeout_ms, &error);
    const auto h = body ? Json::parse(*body, &error) : std::nullopt;
    if (!h) {
      std::printf("%-8s DOWN  %s\n", t.name.c_str(), error.c_str());
      all_ok = false;
      continue;
    }
    std::printf(
        "%-8s up    view=%lld decided=%lld open=%lld deliveries=%lld "
        "spans=%lld violations=%lld",
        t.name.c_str(), static_cast<long long>(h->int_or("view", -1)),
        static_cast<long long>(h->int_or("decided_instances", -1)),
        static_cast<long long>(h->int_or("open_instances", -1)),
        static_cast<long long>(h->int_or("deliveries", 0)),
        static_cast<long long>(h->int_or("spans_recorded", 0)),
        static_cast<long long>(
            h->get("monitor").int_or("violations_total", 0)));
    const Json& counters = h->get("counters");
    if (counters.is_object()) {
      for (const auto field : kStatusCounters) {
        const char* name = stat_name(bft::Replica::kCounterFields, field);
        std::printf(" %s=%lld", name,
                    static_cast<long long>(counters.int_or(name, 0)));
      }
    }
    std::printf("\n");
  }
  return all_ok ? 0 : 1;
}

int cmd_scrape(const ClusterConfig& cfg, const std::string& out_dir,
               int timeout_ms) {
  std::size_t ok = 0;
  const auto targets = introspect_targets(cfg);
  for (const ScrapeTarget& t : targets) {
    std::string error;
    bool target_ok = true;
    const struct {
      const char* endpoint;
      std::string path;
    } pulls[] = {
        {"/metrics", out_dir + "/prom_" + t.name + ".txt"},
        {"/spans", out_dir + "/spans_" + t.name + ".json"},
        {"/healthz", out_dir + "/healthz_" + t.name + ".json"},
    };
    for (const auto& pull : pulls) {
      const auto body =
          http_get(t.host, t.port, pull.endpoint, timeout_ms, &error);
      if (!body || !save(pull.path, *body, &error)) {
        std::fprintf(stderr, "scrape %s%s: %s\n", t.name.c_str(),
                     pull.endpoint, error.c_str());
        target_ok = false;
        break;
      }
    }
    if (target_ok) ++ok;
  }
  std::printf("scraped %zu/%zu processes into %s\n", ok, targets.size(),
              out_dir.c_str());
  return ok > 0 ? 0 : 1;
}

int cmd_merge(const ClusterConfig& cfg, const std::string& out_dir,
              int clock_samples, int timeout_ms) {
  const MergeResult result =
      collect_and_merge(cfg, out_dir, clock_samples, timeout_ms);
  for (const NodeCapture& node : result.nodes) {
    if (node.ok) {
      std::printf("%-8s ok    offset=%lldns rtt=%lldns spans=%zu\n",
                  node.target.name.c_str(),
                  static_cast<long long>(node.clock.offset),
                  static_cast<long long>(node.clock.min_rtt),
                  node.raw.spans.size());
    } else {
      std::fprintf(stderr, "%-8s FAIL  %s\n", node.target.name.c_str(),
                   node.error.c_str());
    }
  }
  if (!result.ok) {
    std::fprintf(stderr, "merge failed: %s\n", result.error.c_str());
    return 1;
  }
  std::printf(
      "merged %zu spans from %zu/%zu processes: %zu traced messages "
      "(%zu complete), %llu dropped, %llu monitor violations\n",
      result.merged_spans, result.scraped_ok, result.nodes.size(),
      result.traced_messages, result.complete_messages,
      static_cast<unsigned long long>(result.spans_dropped),
      static_cast<unsigned long long>(result.monitor_violations));
  std::printf("wrote %s/cluster_spans.json and %s/cluster_trace.json\n",
              out_dir.c_str(), out_dir.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  std::string config_path;
  std::string out_dir = ".";
  int clock_samples = 7;
  int timeout_ms = 2000;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--config") {
      const char* v = value();
      if (v == nullptr) return usage();
      config_path = v;
    } else if (arg == "--out") {
      const char* v = value();
      if (v == nullptr) return usage();
      out_dir = v;
    } else if (arg == "--clock-samples") {
      const char* v = value();
      if (v == nullptr) return usage();
      clock_samples = std::atoi(v);
    } else if (arg == "--timeout-ms") {
      const char* v = value();
      if (v == nullptr) return usage();
      timeout_ms = std::atoi(v);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return usage();
    }
  }
  if (config_path.empty()) return usage();
  std::string error;
  const auto cfg = ClusterConfig::load_file(config_path, &error);
  if (!cfg) {
    std::fprintf(stderr, "config: %s\n", error.c_str());
    return 1;
  }
  if (cmd == "status") return cmd_status(*cfg, timeout_ms);
  if (cmd == "scrape") return cmd_scrape(*cfg, out_dir, timeout_ms);
  if (cmd == "merge") {
    return cmd_merge(*cfg, out_dir, clock_samples, timeout_ms);
  }
  return usage();
}
