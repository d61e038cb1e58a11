#include "workload/experiment.hpp"

#include <algorithm>
#include <functional>
#include <vector>

#include "baseline/baseline.hpp"
#include "bft/client_proxy.hpp"
#include "bft/group.hpp"
#include "common/contracts.hpp"
#include "core/system.hpp"
#include "sim/sampler.hpp"
#include "sim/simulation.hpp"
#include "workload/driver.hpp"
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

/// One closed-loop client of the plain single-group broadcast. Kept beside
/// the driver because bft::ClientProxy is not a core::Client; its
/// completions land in the driver's sinks.
struct ProxyClientSlot {
  std::unique_ptr<bft::ClientProxy> proxy;

  void issue(ClientDriver& driver, sim::Simulation& sim, Time stop_issuing,
             std::size_t payload_size) {
    if (sim.now() >= stop_issuing) return;
    proxy->invoke(Bytes(payload_size, 0xAB),
                  [this, &driver, &sim, stop_issuing, payload_size](
                      const Bytes&, Time latency) {
                    driver.record_completion(latency, /*is_local=*/true);
                    issue(driver, sim, stop_issuing, payload_size);
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

/// Per-replica protocol counters of one group, published after the run,
/// plus the simulator-only CPU-busy gauge.
void export_replica_counters(MetricsRegistry& reg, bft::Group& grp,
                             Time horizon) {
  for (int i = 0; i < grp.n(); ++i) {
    const auto& rep = grp.replica(i);
    rep.publish_counters(reg);
    reg.gauge("replica.cpu_busy_mean." + rep.metrics_label())
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
  const Time horizon = config.warmup + config.duration;
  const std::vector<GroupId> targets = make_target_ids(config.num_groups);
  const int total_clients = config.clients_per_group * config.num_groups;
  // The BFT-SMaRt clients are not core::Clients and draw no destinations.
  ClientDriver driver(
      *sim,
      {.payload_size = config.payload_size,
       .stop_issuing = horizon,
       .warmup = config.warmup},
      config.protocol == Protocol::kBftSmart
          ? DestinationDraw{}
          : pattern_draw(config.workload, targets,
                         static_cast<std::size_t>(total_clients)));
  if (config.open_loop_total_rate > 0.0) {
    driver.reserve_open_loop(config.open_loop_total_rate, config.duration,
                             horizon);
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
        sampler->watch(group.replica(i), group.replica(i).metrics_label());
      }
      sampler->start(horizon);
    }
    for (auto& slot : clients) {
      slot.issue(driver, *sim, horizon, config.payload_size);
    }
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
          sampler->watch(grp.replica(i), grp.replica(i).metrics_label());
        }
      }
      sampler->start(horizon);
    }

    std::vector<std::unique_ptr<core::Client>> clients;
    clients.reserve(static_cast<std::size_t>(total_clients));
    Rng seeder(config.seed ^ 0x5bd1e995);
    for (int c = 0; c < total_clients; ++c) {
      clients.push_back(sys->make_client("client" + std::to_string(c)));
      driver.add_client(*clients.back(), seeder.fork());
      if (obs.spans != nullptr) {
        clients.back()->set_trace_sample_every(config.span_sample_every);
      }
    }
    if (wan_model) {
      assign_group_regions(*wan_model, sys->registry());
      for (std::size_t c = 0; c < clients.size(); ++c) {
        wan_model->assign(clients[c]->id(),
                          RegionId{static_cast<std::int32_t>(
                              c % wan_model->num_regions())});
      }
    }
    // Open loop: ONE Poisson arrival process over the whole client
    // population (statistically the superposition of per-client processes),
    // or one per class when open_loop_local_share splits the rate. Each
    // pacer is a scheduler event that fires one arrival and re-arms.
    struct Pacer {
      RateController controller;
      DestClass cls;
    };
    std::vector<Pacer> pacers;
    std::function<void(Pacer*)> arm = [&](Pacer* p) {
      sim->scheduler().schedule_after(
          p->controller.next_delay(sim->now()), [&arm, &driver, &sim, p,
                                                 horizon] {
            if (sim->now() >= horizon) return;
            driver.fire(p->cls);
            arm(p);
          });
    };
    if (config.open_loop_total_rate > 0.0) {
      Rng pacer_rng(config.seed ^ 0x9e3779b97f4a7c15ULL);
      const auto add_pacer = [&](double rate, DestClass cls) {
        if (rate <= 0.0) return;
        pacers.push_back(
            Pacer{RateController(rate, pacer_rng.fork(), sim->now()), cls});
      };
      const double total = config.open_loop_total_rate;
      if (config.open_loop_local_share >= 0.0) {
        const double share =
            std::min(1.0, std::max(0.0, config.open_loop_local_share));
        add_pacer(total * share, DestClass::kLocal);
        add_pacer(total - total * share, DestClass::kGlobal);
      } else {
        add_pacer(total, DestClass::kPattern);
      }
      for (Pacer& p : pacers) arm(&p);
    } else {
      driver.start_closed_loop();
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

  ClientDriver::Sinks& sinks = driver.sinks();
  result.completed = driver.completed();
  result.throughput = sinks.all.rate_per_sec(config.warmup, horizon);
  result.throughput_local = sinks.local.rate_per_sec(config.warmup, horizon);
  result.throughput_global =
      sinks.global.rate_per_sec(config.warmup, horizon);
  result.latency_all = std::move(sinks.latency_all);
  result.latency_local = std::move(sinks.latency_local);
  result.latency_global = std::move(sinks.latency_global);
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
