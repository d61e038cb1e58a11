#include "workload/experiment.hpp"

#include <algorithm>
#include <vector>

#include "baseline/baseline.hpp"
#include "bft/client_proxy.hpp"
#include "bft/group.hpp"
#include "common/contracts.hpp"
#include "core/system.hpp"
#include "sim/sampler.hpp"
#include "sim/simulation.hpp"
#include "workload/rate.hpp"

namespace byzcast::workload {

const char* to_string(Protocol p) {
  switch (p) {
    case Protocol::kByzCast2Level: return "ByzCast-2L";
    case Protocol::kByzCast3Level: return "ByzCast-3L";
    case Protocol::kBaseline: return "Baseline";
    case Protocol::kBftSmart: return "BFT-SMaRt";
  }
  return "?";
}

const char* to_string(Environment e) {
  return e == Environment::kLan ? "LAN" : "WAN";
}

namespace {

std::vector<GroupId> make_target_ids(int n) {
  std::vector<GroupId> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) out.push_back(GroupId{i});
  return out;
}

/// Measurement sinks shared by all clients of a run.
struct Sinks {
  Time warmup_cutoff = 0;
  Time stop_issuing = 0;
  ExperimentResult* result = nullptr;
  ThroughputMeter all, local, global;
};

void record_completion(Sinks& sinks, Time now, Time latency, bool is_local) {
  ++sinks.result->completed;
  sinks.all.record(now);
  sinks.result->latency_all.record(now, latency);
  if (is_local) {
    sinks.local.record(now);
    sinks.result->latency_local.record(now, latency);
  } else {
    sinks.global.record(now);
    sinks.result->latency_global.record(now, latency);
  }
}

/// One closed-loop ByzCast/Baseline client with its generator.
struct CoreClientSlot {
  std::unique_ptr<core::Client> client;
  DestinationGenerator generator;
  Rng rng;

  CoreClientSlot(std::unique_ptr<core::Client> c, DestinationGenerator g,
                 Rng r)
      : client(std::move(c)), generator(std::move(g)), rng(r) {}

  void issue(Sinks& sinks, sim::Simulation& sim, std::size_t payload_size) {
    if (sim.now() >= sinks.stop_issuing) return;
    std::vector<GroupId> dst = generator.next(rng);
    const bool is_local = dst.size() == 1;
    Bytes payload(payload_size, 0xAB);
    client->a_multicast(
        std::move(dst), std::move(payload),
        [this, &sinks, &sim, payload_size, is_local](
            const core::MulticastMessage&, Time latency) {
          record_completion(sinks, sim.now(), latency, is_local);
          issue(sinks, sim, payload_size);
        });
  }

  /// Fires exactly one multicast to `dst` (open-loop arrivals; no re-issue
  /// on completion — the RateController owns the pacing).
  void fire_one(Sinks& sinks, sim::Simulation& sim, std::size_t payload_size,
                std::vector<GroupId> dst) {
    const bool is_local = dst.size() == 1;
    client->a_multicast(std::move(dst), Bytes(payload_size, 0xAB),
                        [&sinks, &sim, is_local](const core::MulticastMessage&,
                                                 Time latency) {
                          record_completion(sinks, sim.now(), latency,
                                            is_local);
                        });
  }
};

/// Central open-loop driver: ONE Poisson arrival process over the whole
/// client population (statistically the superposition of the old per-client
/// processes), each arrival fired from the next client round-robin. A class
/// mode of kLocal/kGlobal forces the destination class — two such drivers at
/// split rates implement ExperimentConfig::open_loop_local_share.
struct OpenLoopDriver {
  enum class Class { kPattern, kLocal, kGlobal };

  std::vector<CoreClientSlot>& clients;
  Sinks& sinks;
  sim::Simulation& sim;
  std::size_t payload_size;
  RateController controller;
  Class cls;
  std::size_t cursor = 0;

  OpenLoopDriver(std::vector<CoreClientSlot>& c, Sinks& s,
                 sim::Simulation& sm, std::size_t payload, double rate,
                 Rng rng, Class k)
      : clients(c), sinks(s), sim(sm), payload_size(payload),
        controller(rate, rng, sm.now()), cls(k) {}

  void arm() {
    const Time delay = controller.next_delay(sim.now());
    sim.scheduler().schedule_after(delay, [this] { fire(); });
  }

  void fire() {
    if (sim.now() >= sinks.stop_issuing) return;
    CoreClientSlot& slot = clients[cursor];
    cursor = (cursor + 1) % clients.size();
    std::vector<GroupId> dst;
    switch (cls) {
      case Class::kPattern: dst = slot.generator.next(slot.rng); break;
      case Class::kLocal: dst = slot.generator.next_local(slot.rng); break;
      case Class::kGlobal: dst = slot.generator.next_global(slot.rng); break;
    }
    slot.fire_one(sinks, sim, payload_size, std::move(dst));
    arm();
  }
};

/// One closed-loop client of the plain single-group broadcast.
struct ProxyClientSlot {
  std::unique_ptr<bft::ClientProxy> proxy;

  void issue(Sinks& sinks, sim::Simulation& sim, std::size_t payload_size) {
    if (sim.now() >= sinks.stop_issuing) return;
    Bytes payload(payload_size, 0xAB);
    proxy->invoke(std::move(payload),
                  [this, &sinks, &sim, payload_size](const Bytes&,
                                                     Time latency) {
                    record_completion(sinks, sim.now(), latency,
                                      /*is_local=*/true);
                    issue(sinks, sim, payload_size);
                  });
  }
};

/// Pins every replica of every group to a WAN region (replica i of each
/// group -> region i, as in the paper: "deploy each process of a group in a
/// different region", tolerating the failure of a whole region).
void assign_group_regions(sim::WanLatency& wan,
                          const core::GroupRegistry& registry) {
  for (const auto& [gid, info] : registry) {
    for (std::size_t i = 0; i < info.replicas().size(); ++i) {
      wan.assign(info.replicas()[i],
                 RegionId{static_cast<std::int32_t>(i % wan.num_regions())});
    }
  }
}

std::string replica_label(GroupId g, int index) {
  return to_string(g) + ".r" + std::to_string(index);
}

/// Per-replica protocol counters of one group, pulled into the registry
/// after the run; every protocol publishes the same replica.* names.
void export_replica_counters(MetricsRegistry& reg, bft::Group& grp,
                             Time horizon) {
  for (int i = 0; i < grp.n(); ++i) {
    const auto& rep = grp.replica(i);
    const std::string label = replica_label(grp.id(), i);
    reg.counter("replica.executed." + label).inc(rep.executed_requests());
    reg.counter("replica.decided." + label).inc(rep.decided_instances());
    reg.gauge("replica.cpu_busy_mean." + label)
        .set(static_cast<double>(rep.busy_time()) /
             static_cast<double>(horizon));
  }
}

/// Per-group a-delivery counters restricted to the measurement window, and
/// per-replica protocol counters, pulled into the registry after the run.
void export_run_counters(MetricsRegistry& reg, core::ByzCastSystem& sys,
                         Time warmup, Time horizon) {
  for (const auto& rec : sys.delivery_log().records()) {
    if (rec.when >= warmup && rec.when < horizon) {
      reg.counter("group.a_deliveries." + to_string(rec.group)).inc();
    }
  }
  for (const auto& [gid, info] : sys.registry()) {
    export_replica_counters(reg, sys.group(gid), horizon);
  }
}

}  // namespace

ExperimentResult run_experiment(const ExperimentConfig& config) {
  BZC_EXPECTS(config.num_groups >= 1);
  BZC_EXPECTS(config.clients_per_group >= 1);
  BZC_EXPECTS(config.open_loop_total_rate == 0.0 ||
              config.protocol != Protocol::kBftSmart);

  const bool wan = config.environment == Environment::kWan;
  sim::Profile profile = wan ? sim::Profile::wan() : sim::Profile::lan();
  // Identical simulated behaviour, much cheaper host-side authentication
  // for the large sweeps (see Profile::fast_macs).
  profile.fast_macs = !config.real_macs;
  profile.zero_copy_off = config.zero_copy_off;
  profile.batch_adapt_off = config.batch_adapt_off;
  if (config.pipeline_depth > 0) profile.pipeline_depth = config.pipeline_depth;
  if (config.batch_max > 0) profile.batch_max = config.batch_max;
  if (config.batch_min > 0) profile.batch_min = config.batch_min;
  if (config.batch_timeout > 0) profile.batch_timeout = config.batch_timeout;
  if (config.pipeline_off) profile.pipeline_depth = 1;
  profile.verify_workers = config.verify_workers;
  profile.exec_shards = config.exec_shards;
  profile.stage_pipeline_off = config.stage_pipeline_off;

  std::unique_ptr<sim::Simulation> sim;
  sim::WanLatency* wan_model = nullptr;
  if (wan) {
    auto latency = std::make_unique<sim::WanLatency>(
        sim::WanLatency::ec2_four_regions(profile));
    wan_model = latency.get();
    sim = std::make_unique<sim::Simulation>(config.seed, profile,
                                            std::move(latency));
  } else {
    sim = std::make_unique<sim::Simulation>(config.seed, profile);
  }

  ExperimentResult result;
  Sinks sinks;
  sinks.warmup_cutoff = config.warmup;
  sinks.stop_issuing = config.warmup + config.duration;
  sinks.result = &result;
  result.latency_all.set_warmup(config.warmup);
  result.latency_local.set_warmup(config.warmup);
  result.latency_global.set_warmup(config.warmup);

  const Time horizon = config.warmup + config.duration;

  if (config.open_loop_total_rate > 0.0) {
    // Open loop: the offered load bounds the sample count, so pre-reserve
    // (no mid-run reallocation in the measurement path) and cap at a loose
    // multiple of the expectation — a runaway shows up as a nonzero
    // overflow() counter instead of silently eating the host's memory.
    // Closed-loop runs are completion-paced and self-limiting.
    const auto expected_completions = static_cast<std::size_t>(
        config.open_loop_total_rate * to_sec(config.duration));
    const auto expected_events = static_cast<std::size_t>(
        config.open_loop_total_rate * to_sec(horizon));
    const auto with_margin = [](std::size_t n) { return n + n / 4 + 1024; };
    for (LatencyRecorder* rec :
         {&result.latency_all, &result.latency_local,
          &result.latency_global}) {
      rec->reserve(with_margin(expected_completions));
      rec->set_max_samples(8 * expected_completions + 8192);
    }
    for (ThroughputMeter* meter : {&sinks.all, &sinks.local, &sinks.global}) {
      meter->reserve(with_margin(expected_events));
      meter->set_max_events(8 * expected_events + 8192);
    }
  }

  Observability obs;
  std::unique_ptr<sim::MetricsSampler> sampler;
  if (config.observability) {
    result.metrics = std::make_shared<MetricsRegistry>();
    obs.metrics = result.metrics.get();
    if (config.span_tracing) {
      result.spans = std::make_shared<SpanLog>(config.span_capacity);
      obs.spans = result.spans.get();
    }
    if (config.monitors) {
      result.monitors = std::make_shared<MonitorHub>();
      result.monitors->attach_metrics(result.metrics.get());
      if (config.monitor_pending_bound > 0) {
        result.monitors->set_pending_bound(config.monitor_pending_bound);
      }
      obs.monitors = result.monitors.get();
    }
    sim->attach_observability(obs);
    sampler = std::make_unique<sim::MetricsSampler>(*sim, *result.metrics,
                                                    config.sample_interval);
  }
  const std::vector<GroupId> targets = make_target_ids(config.num_groups);
  const int total_clients = config.clients_per_group * config.num_groups;

  if (config.protocol == Protocol::kBftSmart) {
    // Single group, echo application, plain broadcast clients.
    const bft::AppFactory factory = [](int) {
      return std::make_unique<bft::EchoApplication>();
    };
    bft::Group group(*sim, GroupId{0}, config.f, factory);
    std::vector<ProxyClientSlot> clients;
    clients.reserve(static_cast<std::size_t>(total_clients));
    for (int c = 0; c < total_clients; ++c) {
      clients.push_back(ProxyClientSlot{std::make_unique<bft::ClientProxy>(
          *sim, group.info(), "client" + std::to_string(c))});
    }
    if (wan_model) {
      for (std::size_t i = 0; i < group.info().replicas().size(); ++i) {
        wan_model->assign(group.info().replicas()[i],
                          RegionId{static_cast<std::int32_t>(
                              i % wan_model->num_regions())});
      }
      for (std::size_t c = 0; c < clients.size(); ++c) {
        wan_model->assign(clients[c].proxy->id(),
                          RegionId{static_cast<std::int32_t>(
                              c % wan_model->num_regions())});
      }
    }
    if (sampler) {
      for (int i = 0; i < group.n(); ++i) {
        sampler->watch(group.replica(i), replica_label(group.id(), i));
      }
      sampler->start(horizon);
    }
    for (auto& slot : clients) slot.issue(sinks, *sim, config.payload_size);
    sim->run_until(horizon);
    result.wire_messages = sim->network().messages_sent();
    if (obs.metrics != nullptr) {
      export_replica_counters(*obs.metrics, group, horizon);
    }
  } else {
    // Assemble the tree-based protocols.
    std::unique_ptr<core::ByzCastSystem> system;
    std::unique_ptr<baseline::BaselineSystem> base;
    core::ByzCastSystem* sys = nullptr;
    const GroupId aux_root{config.num_groups};
    switch (config.protocol) {
      case Protocol::kByzCast2Level:
        system = std::make_unique<core::ByzCastSystem>(
            *sim, core::OverlayTree::two_level(targets, aux_root), config.f,
            core::FaultPlan{}, core::Routing::kGenuine, obs);
        sys = system.get();
        break;
      case Protocol::kByzCast3Level: {
        const GroupId h1{config.num_groups};
        const GroupId h2{config.num_groups + 1};
        const GroupId h3{config.num_groups + 2};
        system = std::make_unique<core::ByzCastSystem>(
            *sim, core::OverlayTree::three_level(targets, h1, h2, h3),
            config.f, core::FaultPlan{}, core::Routing::kGenuine, obs);
        sys = system.get();
        break;
      }
      case Protocol::kBaseline:
        base = std::make_unique<baseline::BaselineSystem>(
            *sim, targets, aux_root, config.f, core::FaultPlan{}, obs);
        sys = &base->system();
        break;
      case Protocol::kBftSmart:
        BZC_ASSERT(false);
    }

    if (sampler) {
      for (const auto& [gid, info] : sys->registry()) {
        auto& grp = sys->group(gid);
        for (int i = 0; i < grp.n(); ++i) {
          sampler->watch(grp.replica(i), replica_label(gid, i));
        }
      }
      sampler->start(horizon);
    }

    std::vector<CoreClientSlot> clients;
    clients.reserve(static_cast<std::size_t>(total_clients));
    Rng seeder(config.seed ^ 0x5bd1e995);
    for (int c = 0; c < total_clients; ++c) {
      const auto home =
          static_cast<std::size_t>(c % config.num_groups);
      clients.emplace_back(
          sys->make_client("client" + std::to_string(c)),
          DestinationGenerator(config.workload, targets, home),
          seeder.fork());
      if (obs.spans != nullptr) {
        clients.back().client->set_trace_sample_every(
            config.span_sample_every);
      }
    }
    if (wan_model) {
      assign_group_regions(*wan_model, sys->registry());
      for (std::size_t c = 0; c < clients.size(); ++c) {
        wan_model->assign(clients[c].client->id(),
                          RegionId{static_cast<std::int32_t>(
                              c % wan_model->num_regions())});
      }
    }
    std::vector<std::unique_ptr<OpenLoopDriver>> drivers;
    if (config.open_loop_total_rate > 0.0) {
      Rng driver_rng(config.seed ^ 0x9e3779b97f4a7c15ULL);
      const double total = config.open_loop_total_rate;
      if (config.open_loop_local_share >= 0.0) {
        const double share =
            std::min(1.0, std::max(0.0, config.open_loop_local_share));
        const double local_rate = total * share;
        const double global_rate = total - local_rate;
        if (local_rate > 0.0) {
          drivers.push_back(std::make_unique<OpenLoopDriver>(
              clients, sinks, *sim, config.payload_size, local_rate,
              driver_rng.fork(), OpenLoopDriver::Class::kLocal));
        }
        if (global_rate > 0.0) {
          drivers.push_back(std::make_unique<OpenLoopDriver>(
              clients, sinks, *sim, config.payload_size, global_rate,
              driver_rng.fork(), OpenLoopDriver::Class::kGlobal));
        }
      } else {
        drivers.push_back(std::make_unique<OpenLoopDriver>(
            clients, sinks, *sim, config.payload_size, total,
            driver_rng.fork(), OpenLoopDriver::Class::kPattern));
      }
      for (auto& d : drivers) d->arm();
    } else {
      for (auto& slot : clients) slot.issue(sinks, *sim, config.payload_size);
    }
    sim->run_until(horizon);

    for (const auto& rec : sys->delivery_log().records()) {
      if (rec.when >= config.warmup && rec.when < horizon) {
        ++result.a_deliveries;
      }
    }
    result.wire_messages = sim->network().messages_sent();
    if (obs.metrics != nullptr) {
      export_run_counters(*obs.metrics, *sys, config.warmup, horizon);
    }
  }

  result.throughput = sinks.all.rate_per_sec(config.warmup, horizon);
  result.throughput_local = sinks.local.rate_per_sec(config.warmup, horizon);
  result.throughput_global =
      sinks.global.rate_per_sec(config.warmup, horizon);
  if (obs.metrics != nullptr) {
    // Sampled completion-rate timeseries over the measurement window — the
    // "throughput over time" view that exposes when saturation sets in.
    auto& ts = obs.metrics->timeseries("workload.throughput.all");
    for (const auto& [when, rate] :
         sinks.all.timeseries(config.warmup, horizon,
                              config.sample_interval)) {
      ts.append(when, rate);
    }
  }
  return result;
}

}  // namespace byzcast::workload
