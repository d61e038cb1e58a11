#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <sstream>

#include "client_loop.hpp"
#include "common/buffer.hpp"
#include "common/json.hpp"
#include "core/critical_path.hpp"
#include "layers.hpp"
#include "workload/experiment.hpp"
#include "workload/spec.hpp"

namespace perfbench {

namespace {

constexpr std::uint32_t kTraceSampleEvery = 16;
// Extra build+start cycles before each segment or repetition. Spreading them
// over the run makes their median follow the host's speed over the whole
// run, not over the few milliseconds at its start.
constexpr int kSetupProbes = 5;

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double per(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The end-to-end figures of one pass. Latency and goodput are measured in
/// several segments and reported as the median over segments, so one
/// transient backlog moves a run's figure less.
struct EndToEnd {
  std::vector<double> setup_s;
  std::vector<double> local_ms, global_ms;  // pooled (tail diagnostics)
  std::vector<double> local_p50, local_p90, global_p50, global_p90;
  std::vector<double> goodput_msgs_s;
  std::uint64_t goodput_samples = 0;
  double completed_share = 0.0;
  std::uint64_t attempted = 0;  // multicasts behind completed_share

  void add_latency_segment(const std::vector<double>& local,
                           const std::vector<double>& global) {
    const LatencySummary l = summarize(local), g = summarize(global);
    local_p50.push_back(l.p50);
    local_p90.push_back(l.p90);
    global_p50.push_back(g.p50);
    global_p90.push_back(g.p90);
    local_ms.insert(local_ms.end(), local.begin(), local.end());
    global_ms.insert(global_ms.end(), global.begin(), global.end());
  }
};

void add_end_to_end(Report& rep, const EndToEnd& e, const std::string& prefix,
                    bool in_summary) {
  const LatencySummary l = summarize(e.local_ms);
  const LatencySummary g = summarize(e.global_ms);
  rep.add(prefix + "setup_s", median(e.setup_s), "s", e.setup_s.size(),
          in_summary);
  rep.add(prefix + "local_p50_ms", median(e.local_p50), "ms", l.n, in_summary);
  // p90 is printed but kept out of the summary: on a shared 4-vCPU host
  // its run-to-run spread on the wall-clock backend exceeds any bound the
  // summary may carry.
  rep.add(prefix + "local_p90_ms", median(e.local_p90), "ms", l.n, false);
  rep.add(prefix + "global_p50_ms", median(e.global_p50), "ms", g.n,
          in_summary);
  rep.add(prefix + "global_p90_ms", median(e.global_p90), "ms", g.n, false);
  rep.add(prefix + "goodput_msgs_s", median(e.goodput_msgs_s), "msg/s",
          e.goodput_samples, in_summary);
  rep.add(prefix + "completed_share", e.completed_share, "ratio", e.attempted,
          in_summary);
  rep.note_latency(prefix + "local", l);
  rep.note_latency(prefix + "global", g);
  rep.note(prefix + "segments", std::to_string(e.local_p50.size()));
}

/// traced / untraced for each end-to-end metric.
void add_overhead(Report& rep, const std::string& traced,
                  const std::string& untraced) {
  for (const char* m : {"setup_s", "local_p50_ms", "global_p50_ms",
                        "goodput_msgs_s", "completed_share"}) {
    const Metric* t = rep.find(traced + m);
    const Metric* u = rep.find(untraced + m);
    rep.add(std::string("trace_overhead.") + m,
            per(t ? t->value : 0.0, u ? u->value : 0.0), "ratio");
  }
}

void add_spans(Report& rep, const SpanLog& spans) {
  const core::CriticalPathAnalyzer cp(spans,
                                      core::CriticalPathAnalyzer::Options{1});
  for (const bool global : {false, true}) {
    const core::ClassAggregate a = cp.aggregate(global);
    const std::string cls = global ? "span.global." : "span.local.";
    const auto ms = [](Time t) { return static_cast<double>(t) / 1e6; };
    rep.add(cls + "queueing_ms", ms(a.queueing.p50), "ms", a.n);
    rep.add(cls + "quorum_wait_ms", ms(a.quorum_wait.p50), "ms", a.n);
    // Ledger only: structurally constant on some workload (the simulator
    // charges a fixed CPU cost per step; the runtime has no network hop).
    rep.add(cls + "cpu_ms", ms(a.cpu.p50), "ms", a.n, false);
    rep.add(cls + "network_ms", ms(a.network.p50), "ms", a.n, false);
  }
}

// --- real stack: runtime and net --------------------------------------------

struct RealWorkload {
  std::unique_ptr<Backend> (*make)(const BackendOptions&);
  double rate;      // open-loop offered load, msg/s
  int window;       // closed-loop outstanding multicasts
  double drain_s;   // fixed drain window after each phase
  // Length of one open + closed loop round on fresh systems; a pass runs
  // as many rounds as fit its time (0: a single round).
  double segment_s;
  bool net;
};

/// Everything one pass (open loop + closed loop) measured.
struct RealPass {
  EndToEnd e2e;
  Verdict verdict;  // every measured phase
  std::vector<double> gen_late_us;
  ReplicaTotals replicas;
  NetTotals net;
  std::uint64_t wire = 0, deliveries = 0, materializations = 0;
  std::unique_ptr<SpanLog> spans = std::make_unique<SpanLog>();
};

void accumulate(RealPass& p, Backend& b, const Verdict& v) {
  p.verdict.safe = p.verdict.safe && v.safe;
  if (!v.safe && p.verdict.error.empty()) p.verdict.error = v.error;
  p.verdict.attempted += v.attempted;
  p.verdict.failed += v.failed;
  const ReplicaTotals r = b.replica_totals();
  p.replicas.views_installed += r.views_installed;
  p.replicas.state_transfers += r.state_transfers;
  p.replicas.rejected_requests += r.rejected_requests;
  p.replicas.buffered_decisions += r.buffered_decisions;
  p.replicas.executed_requests += r.executed_requests;
  p.replicas.decided_instances += r.decided_instances;
  p.replicas.mac_memo_hits += r.mac_memo_hits;
  const NetTotals n = b.net_totals();
  p.net.messages_sent += n.messages_sent;
  p.net.bytes_sent += n.bytes_sent;
  p.net.reconnects += n.reconnects;
  p.net.dropped_frames += n.dropped_frames;
  p.net.send_queue_high_water =
      std::max(p.net.send_queue_high_water, n.send_queue_high_water);
  p.wire += b.wire_messages();
  p.deliveries += b.delivery_log().total_deliveries();
}

std::unique_ptr<Backend> timed_setup(const RealWorkload& w,
                                     const BackendOptions& opts,
                                     std::vector<double>& setup_s) {
  const auto t0 = Clock::now();
  auto b = w.make(opts);
  setup_s.push_back(seconds_since(t0));
  return b;
}

RealPass run_real_pass(const RealWorkload& w, Rng& rng, double seconds,
                       std::uint32_t trace_every) {
  RealPass p;
  const Mix mix;
  BackendOptions opts;
  opts.trace_sample_every = trace_every;
  {
    // Warm-up: one second of the open-loop load on a throwaway system, so
    // the first measured segment does not pay for an idle host waking up.
    // Its outputs are checked like any other.
    opts.seed = rng.next_u64();
    auto warm = w.make(opts);
    const PhaseLog wl =
        run_open_loop(*warm, mix, rng.fork(), w.rate, 1.0, 0.0, w.drain_s);
    const Verdict v = judge(*warm, wl);
    p.verdict.safe = v.safe;
    p.verdict.error = v.error;
  }
  const int segments =
      w.segment_s > 0.0
          ? std::max(1, static_cast<int>(std::lround(seconds / w.segment_s)))
          : 1;
  const double open_s = 0.6 * seconds / segments;
  const double closed_s = 0.4 * seconds / segments;
  for (int seg = 0; seg < segments; ++seg) {
    for (int i = 0; i < kSetupProbes; ++i) {
      opts.seed = rng.next_u64();
      timed_setup(w, opts, p.e2e.setup_s)->stop();
    }
    const std::uint64_t mat0 = Buffer::materializations();
    // Open-loop Poisson load well under capacity -> latency.
    opts.seed = rng.next_u64();
    auto open = timed_setup(w, opts, p.e2e.setup_s);
    const double ol_warmup = std::min(1.0, 0.1 * open_s);
    const PhaseLog ol = run_open_loop(*open, mix, rng.fork(), w.rate,
                                      ol_warmup, open_s - ol_warmup,
                                      w.drain_s);
    accumulate(p, *open, judge(*open, ol));
    p.e2e.add_latency_segment(latencies_ms(ol, false), latencies_ms(ol, true));
    p.gen_late_us.insert(p.gen_late_us.end(), ol.gen_late_us.begin(),
                         ol.gen_late_us.end());
    // Runs reuse client ids; keep the first segment's spans.
    if (seg == 0) open->collect_spans(*p.spans);
    open.reset();

    // Closed loop with a fixed window on a fresh system -> capacity.
    opts.seed = rng.next_u64();
    auto closed = timed_setup(w, opts, p.e2e.setup_s);
    const double cl_warmup = std::min(1.0, 0.1 * closed_s);
    const PhaseLog cl =
        run_closed_loop(*closed, mix, rng.fork(), w.window, cl_warmup,
                        closed_s - cl_warmup, w.drain_s);
    accumulate(p, *closed, judge(*closed, cl));
    p.e2e.goodput_msgs_s.push_back(cl.goodput_msgs_s);
    p.e2e.goodput_samples += issued(cl);
    closed.reset();
    p.materializations += Buffer::materializations() - mat0;
  }

  p.e2e.completed_share =
      1.0 - per(static_cast<double>(p.verdict.failed),
                static_cast<double>(p.verdict.attempted));
  p.e2e.attempted = p.verdict.attempted;
  return p;
}

void note_pass(Report& rep, const std::string& prefix, const RealPass& p) {
  std::ostringstream o;
  o << "{\"attempted\":" << p.verdict.attempted
    << ",\"failed\":" << p.verdict.failed << ",\"failed_share\":"
    << json_num(per(static_cast<double>(p.verdict.failed),
                    static_cast<double>(p.verdict.attempted)))
    << ",\"views_installed\":" << p.replicas.views_installed
    << ",\"state_transfers\":" << p.replicas.state_transfers
    << ",\"safe\":" << (p.verdict.safe ? "true" : "false")
    << ",\"error\":" << json_str(p.verdict.error) << "}";
  rep.note(prefix + "outcome", o.str());
}

Outcome run_real(const RealWorkload& w, std::uint64_t seed, double seconds,
                 bool trace, Report& rep) {
  Rng rng(seed);
  if (!trace) {
    const RealPass p = run_real_pass(w, rng, seconds, 0);
    add_end_to_end(rep, p.e2e, "", true);
    // The same figures under the names the capacity and liveness
    // discussions use.
    rep.add("peak_goodput_msgs_s", median(p.e2e.goodput_msgs_s), "msg/s",
            p.e2e.goodput_samples, false);
    rep.add("failed_share", 1.0 - p.e2e.completed_share, "ratio",
            p.e2e.attempted, false);
    note_pass(rep, "", p);
    return Outcome{p.verdict.safe, p.verdict.attempted, p.verdict.failed};
  }
  // Traced run: an untraced pass (counters, overhead base) and a traced
  // pass (spans), each on half the time, then the microtimings.
  const RealPass u = run_real_pass(w, rng, seconds / 2, 0);
  const RealPass t = run_real_pass(w, rng, seconds / 2, kTraceSampleEvery);
  add_end_to_end(rep, u.e2e, "untraced.", false);
  add_end_to_end(rep, t.e2e, "traced.", false);
  note_pass(rep, "untraced.", u);
  note_pass(rep, "traced.", t);

  const std::uint64_t issued = u.verdict.attempted;
  const double n = static_cast<double>(issued);
  const double batch = per(static_cast<double>(u.replicas.executed_requests),
                           static_cast<double>(u.replicas.decided_instances));
  rep.add("common.memo_hits_per_msg",
          per(static_cast<double>(u.replicas.mac_memo_hits), n), "1/msg",
          issued);
  rep.add("common.buffer_copies_per_msg",
          per(static_cast<double>(u.materializations), n), "1/msg", issued);
  rep.add("bft.batch_mean", batch, "req/inst",
          u.replicas.decided_instances);
  rep.add("bft.wire_msgs_per_msg", per(static_cast<double>(u.wire), n),
          "1/msg", issued);
  rep.add("bft.views_installed",
          static_cast<double>(u.replicas.views_installed), "count");
  rep.add("bft.state_transfers",
          static_cast<double>(u.replicas.state_transfers), "count");
  rep.add("bft.rejected_requests",
          static_cast<double>(u.replicas.rejected_requests), "count");
  rep.add("bft.buffered_decisions",
          static_cast<double>(u.replicas.buffered_decisions), "count");
  rep.add("core.deliveries_per_msg",
          per(static_cast<double>(u.deliveries), n), "1/msg", issued);
  add_spans(rep, *t.spans);
  rep.add("runtime.wire_msgs_per_msg",
          w.net ? 0.0 : per(static_cast<double>(u.wire), n), "1/msg",
          w.net ? 0 : issued);
  // Ledger only: transport counters exist on net-mix alone, and generator
  // lateness checks the benchmark rather than a layer of the program.
  rep.add("net.bytes_per_msg", per(static_cast<double>(u.net.bytes_sent), n),
          "B/msg", w.net ? issued : 0, false);
  rep.add("net.reconnects", static_cast<double>(u.net.reconnects), "count",
          0, false);
  rep.add("net.dropped_frames", static_cast<double>(u.net.dropped_frames),
          "count", 0, false);
  rep.add("net.send_queue_high_water",
          static_cast<double>(u.net.send_queue_high_water), "B", 0, false);
  const LatencySummary late = summarize(u.gen_late_us);
  rep.add("workload.gen_late_us", late.p50, "us", late.n, false);
  rep.note("workload.gen_late_us",
           "{\"p50\":" + json_num(late.p50) + ",\"p90\":" +
               json_num(late.p90) + ",\"p99\":" + json_num(late.p99) +
               ",\"mean\":" +
               json_num(per(std::accumulate(u.gen_late_us.begin(),
                                            u.gen_late_us.end(), 0.0),
                            static_cast<double>(late.n))) +
               "}");
  add_overhead(rep, "traced.", "untraced.");
  time_layers(LayerInputs{seed, Mix{}.payload,
                          static_cast<std::size_t>(std::lround(batch))},
              rep);
  return Outcome{u.verdict.safe && t.verdict.safe,
                 u.verdict.attempted + t.verdict.attempted,
                 u.verdict.failed + t.verdict.failed};
}

// --- simulator: the WAN and LAN sweep settings at one fixed rate -----------

/// configs/workloads/wan_sweep.json's settings (WAN preset with the
/// Table I matrix, 2 groups x 100 clients, 10:1 mixed, monitors on) with
/// its rate grid replaced by one fixed rate.
constexpr const char* kSimWanSpec = R"({
  "name": "sim-wan-mix",
  "protocol": "byzcast-2l",
  "environment": "wan",
  "num_groups": 2,
  "f": 1,
  "clients_per_group": 100,
  "payload_size": 64,
  "warmup_ms": 2000,
  "duration_ms": 6000,
  "seed": 42,
  "monitors": true,
  "workload": {"pattern": "mixed", "mixed_local": 10, "mixed_global": 1},
  "rate": {"kind": "fixed", "value": 6000}
})";

/// configs/workloads/lan_sweep.json's settings (LAN preset, 2 groups x 100
/// clients, 10:1 mixed, monitors on) at one fixed rate, well under its
/// 26,000 msg/s knee, with a 0.5 s warm-up and a 1.5 s window so that one
/// repetition takes about 5 s of wall time. Run with real HMAC-SHA256 MACs.
constexpr const char* kSimLanSpec = R"({
  "name": "sim-lan-hmac",
  "protocol": "byzcast-2l",
  "environment": "lan",
  "num_groups": 2,
  "f": 1,
  "clients_per_group": 100,
  "payload_size": 64,
  "warmup_ms": 500,
  "duration_ms": 1500,
  "seed": 42,
  "monitors": true,
  "workload": {"pattern": "mixed", "mixed_local": 10, "mixed_global": 1},
  "rate": {"kind": "fixed", "value": 10000}
})";

workload::WorkloadSpec sim_spec(const char* text) {
  std::string err;
  const auto doc = Json::parse(text, &err);
  auto spec = doc ? workload::parse_workload_spec(*doc, &err) : std::nullopt;
  if (!spec) {
    std::fprintf(stderr, "perfbench: sim spec: %s\n", err.c_str());
    std::abort();
  }
  return *spec;
}

std::uint64_t sum_counters(const MetricsRegistry& m, const std::string& prefix) {
  std::uint64_t total = 0;
  for (const auto& [name, c] : m.counters()) {
    if (name.rfind(prefix, 0) == 0) total += c.value();
  }
  return total;
}

struct SimPass {
  EndToEnd e2e;
  bool safe = true;
  std::string error;
  std::uint64_t completed = 0, window_completions = 0, a_deliveries = 0,
                wire = 0, executed = 0, decided = 0, memo_hits = 0,
                materializations = 0;
  std::unique_ptr<SpanLog> spans = std::make_unique<SpanLog>();
};

/// Repeats the simulation while one more repetition, as long as the last
/// one took, still fits in `seconds` of wall time; at least once.
SimPass run_sim_pass(const workload::WorkloadSpec& spec, Rng& rng,
                     double seconds, bool traced) {
  SimPass p;
  const double rate = spec.schedule.fixed_rate;
  double share_sum = 0.0;
  const auto pass_start = Clock::now();
  double rep_s = 0.0;
  int r = 0;
  for (; r == 0 || seconds_since(pass_start) + rep_s <= seconds; ++r) {
    const auto rep_start = Clock::now();
    // Set-up: build and start the simulated deployment (a 1 ms horizon).
    for (int i = 0; i < kSetupProbes; ++i) {
      workload::ExperimentConfig tiny = spec.base;
      tiny.seed = rng.next_u64();
      tiny.warmup = 0;
      tiny.duration = kMillisecond;
      tiny.open_loop_total_rate = rate;
      const auto t0 = Clock::now();
      (void)workload::run_experiment(tiny);
      p.e2e.setup_s.push_back(seconds_since(t0));
    }
    workload::ExperimentConfig cfg = spec.base;
    cfg.seed = rng.next_u64();
    cfg.open_loop_total_rate = rate;
    cfg.span_tracing = traced;
    cfg.span_sample_every = kTraceSampleEvery;
    const std::uint64_t mat0 = Buffer::materializations();
    const auto t0 = Clock::now();
    const workload::ExperimentResult res = workload::run_experiment(cfg);
    p.materializations += Buffer::materializations() - mat0;
    // Host speed drifts by tens of percent within seconds on a shared
    // host; the median over repetitions is steadier than the total.
    p.e2e.goodput_msgs_s.push_back(
        per(static_cast<double>(res.completed), seconds_since(t0)));

    const std::uint64_t violations =
        res.monitors ? res.monitors->total_violations() : 0;
    const std::uint64_t overflow = res.latency_all.overflow() +
                                   res.latency_local.overflow() +
                                   res.latency_global.overflow();
    if (violations > 0 || overflow > 0) {
      p.safe = false;
      p.error = std::to_string(violations) + " monitor violations, " +
                std::to_string(overflow) + " recorder overflows";
    }
    // A CDF with one point per sample is the sorted sample list.
    std::vector<double> local, global;
    for (const auto& [ms, frac] :
         res.latency_local.cdf(res.latency_local.count())) {
      local.push_back(ms);
    }
    for (const auto& [ms, frac] :
         res.latency_global.cdf(res.latency_global.count())) {
      global.push_back(ms);
    }
    p.e2e.add_latency_segment(local, global);
    share_sum += res.throughput / rate;
    p.completed += res.completed;
    p.window_completions += static_cast<std::uint64_t>(
        std::llround(res.throughput * to_sec(cfg.duration)));
    p.a_deliveries += res.a_deliveries;
    p.wire += res.wire_messages;
    if (res.metrics) {
      p.executed += sum_counters(*res.metrics, "replica.executed.");
      p.decided += sum_counters(*res.metrics, "replica.decided.");
      p.memo_hits += sum_counters(*res.metrics, "replica.mac_memo_hits.");
    }
    if (res.spans) {
      for (const Span& s : res.spans->spans()) {
        // Runs reuse client ids; keep one run's spans.
        if (r == 0) p.spans->record(s);
      }
    }
    rep_s = seconds_since(rep_start);
  }
  p.e2e.goodput_samples = p.completed;
  p.e2e.completed_share = share_sum / r;
  p.e2e.attempted = p.window_completions;
  return p;
}

Outcome run_sim(const char* spec_text, bool real_macs, std::uint64_t seed,
                double seconds, bool trace, Report& rep) {
  workload::WorkloadSpec spec = sim_spec(spec_text);
  spec.base.real_macs = real_macs;
  Rng rng(seed);
  if (!trace) {
    const SimPass p = run_sim_pass(spec, rng, seconds, false);
    add_end_to_end(rep, p.e2e, "", true);
    rep.add("sim_msgs_per_wall_s", median(p.e2e.goodput_msgs_s), "msg/s",
            p.e2e.goodput_samples, false);
    if (!p.error.empty()) rep.note("error", json_str(p.error));
    return Outcome{p.safe, p.completed, 0};
  }
  const SimPass u = run_sim_pass(spec, rng, seconds / 2, false);
  const SimPass t = run_sim_pass(spec, rng, seconds / 2, true);
  add_end_to_end(rep, u.e2e, "untraced.", false);
  add_end_to_end(rep, t.e2e, "traced.", false);

  const double n = static_cast<double>(u.completed);
  const double batch =
      per(static_cast<double>(u.executed), static_cast<double>(u.decided));
  rep.add("common.memo_hits_per_msg",
          per(static_cast<double>(u.memo_hits), n), "1/msg", u.completed);
  rep.add("common.buffer_copies_per_msg",
          per(static_cast<double>(u.materializations), n), "1/msg",
          u.completed);
  rep.add("bft.batch_mean", batch, "req/inst", u.decided);
  rep.add("bft.wire_msgs_per_msg", per(static_cast<double>(u.wire), n),
          "1/msg", u.completed);
  // The simulator harness returns no replica handles, so these replica
  // counters cannot be read from outside; they are reported as 0 and named
  // in the run record.
  for (const char* m : {"bft.views_installed", "bft.state_transfers",
                        "bft.rejected_requests", "bft.buffered_decisions"}) {
    rep.add(m, 0.0, "count");
  }
  rep.note("not_observable",
           "[\"bft.views_installed\",\"bft.state_transfers\","
           "\"bft.rejected_requests\",\"bft.buffered_decisions\"]");
  rep.add("core.deliveries_per_msg",
          per(static_cast<double>(u.a_deliveries),
              static_cast<double>(u.window_completions)),
          "1/msg", u.window_completions);
  add_spans(rep, *t.spans);
  rep.add("runtime.wire_msgs_per_msg", 0.0, "1/msg");
  add_overhead(rep, "traced.", "untraced.");
  time_layers(LayerInputs{seed, spec.base.payload_size,
                          static_cast<std::size_t>(std::lround(batch))},
              rep);
  return Outcome{u.safe && t.safe, u.completed + t.completed, 0};
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "rt-hmac-mix", "net-mix", "sim-wan-mix", "sim-lan-hmac"};
  return names;
}

std::optional<Outcome> run_workload(const std::string& name,
                                    std::uint64_t seed, double seconds,
                                    bool trace, Report& rep) {
  if (name == "rt-hmac-mix") {
    // 500 msg/s is about a tenth of the closed-loop capacity, so the open
    // loop measures latency rather than queueing behind a slowed host: with
    // the run confined to two cores of a 4-vCPU Xeon VM, local p50 ranged
    // over 0.5-1.9 ms in three runs at 1000 msg/s and 0.37-0.38 ms at 500.
    return run_real(
        RealWorkload{make_runtime_backend, 500.0, 32, 2.0, 4.0, false}, seed,
        seconds, trace, rep);
  }
  if (name == "net-mix") {
    return run_real(RealWorkload{make_net_backend, 1000.0, 32, 2.0, 0.0, true},
                    seed, seconds, trace, rep);
  }
  if (name == "sim-wan-mix") {
    return run_sim(kSimWanSpec, false, seed, seconds, trace, rep);
  }
  if (name == "sim-lan-hmac") {
    return run_sim(kSimLanSpec, true, seed, seconds, trace, rep);
  }
  return std::nullopt;
}

}  // namespace perfbench
