// ClientDriver: the one closed/open-loop client workload shared by the
// simulator harness, the wall-clock benches and the load generator. On the
// simulator: per-client caps, the sent() record the property checkers
// consume, per-class open-loop rates and the stop-issuing time. On the
// runtime backend: a real-thread run checked by the five §II-B properties.
// And a pin that the shared pair_or_single picker draws exactly what the
// benches' hand-rolled pickers drew.
#include "workload/driver.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "core/properties.hpp"
#include "core/system.hpp"
#include "runtime/parallel_system.hpp"
#include "sim/simulation.hpp"
#include "workload/rate.hpp"

namespace byzcast::workload {
namespace {

const std::vector<GroupId> kTargets{GroupId{0}, GroupId{1}, GroupId{2}};

/// A 2-level ByzCast deployment over three target groups on the simulator.
struct SimRig {
  explicit SimRig(std::uint64_t seed)
      : sim(seed, sim::Profile::lan()),
        system(sim, core::OverlayTree::two_level(kTargets, GroupId{100}),
               /*f=*/1) {}

  core::Client& add_client() {
    clients.push_back(
        system.make_client("client" + std::to_string(clients.size())));
    return *clients.back();
  }

  core::PropertyInput property_input(const ClientDriver& driver) {
    core::PropertyInput in;
    in.log = &system.delivery_log();
    in.sent = driver.sent();
    for (const GroupId g : kTargets) {
      for (const int i : system.group(g).correct_indices()) {
        in.correct_replicas[g].push_back(system.group(g).replica(i).id());
      }
    }
    return in;
  }

  sim::Simulation sim;
  core::ByzCastSystem system;
  std::vector<std::unique_ptr<core::Client>> clients;
};

TEST(ClientDriver, ClosedLoopCapIssuesExactlyNPerClient) {
  SimRig rig(3);
  ClientDriver driver(rig.sim, {.per_client_cap = 7},
                      pair_draw(kTargets, 0.5));
  Rng seeder(11);
  for (int c = 0; c < 3; ++c) {
    driver.add_client(rig.add_client(), seeder.fork());
  }
  driver.start_closed_loop();
  rig.sim.run_until(30 * kSecond);

  EXPECT_EQ(driver.sent().size(), 21u);
  EXPECT_EQ(driver.completed(), 21u);
  std::map<ProcessId, int> per_client;
  for (const core::SentMessage& s : driver.sent()) ++per_client[s.id.origin];
  ASSERT_EQ(per_client.size(), 3u);
  for (const auto& client : rig.clients) {
    EXPECT_EQ(per_client[client->id()], 7);
    EXPECT_EQ(client->completed(), 7u);
  }
  EXPECT_TRUE(core::check_all_properties(rig.property_input(driver)).ok);
}

TEST(ClientDriver, SentIsCanonicalDestinationsInIssueOrder) {
  SimRig rig(5);
  // Each client logs what it drew: unsorted, with a duplicate, alternating
  // with a local message.
  std::vector<std::vector<std::vector<GroupId>>> drawn(2);
  ClientDriver driver(
      rig.sim, {.per_client_cap = 4}, [&drawn](std::size_t c, Rng&, DestClass) {
        auto& log = drawn.at(c);
        std::vector<GroupId> dst =
            log.size() % 2 == 0
                ? std::vector<GroupId>{GroupId{2}, GroupId{0}, GroupId{2}}
                : std::vector<GroupId>{GroupId{1}};
        log.push_back(dst);
        return dst;
      });
  for (int c = 0; c < 2; ++c) driver.add_client(rig.add_client(), Rng(c));
  driver.start_closed_loop();
  rig.sim.run_until(30 * kSecond);

  const std::vector<core::SentMessage> sent = driver.sent();
  ASSERT_EQ(sent.size(), 8u);
  std::size_t i = 0;
  for (std::size_t c = 0; c < rig.clients.size(); ++c) {
    const auto& client = rig.clients[c];
    const auto& log = drawn.at(c);
    ASSERT_EQ(log.size(), 4u);
    for (std::size_t k = 0; k < log.size(); ++k, ++i) {
      EXPECT_EQ(sent[i].id, (MessageId{client->id(), k}));
      EXPECT_EQ(sent[i].dst, k % 2 == 0
                                 ? (std::vector<GroupId>{GroupId{0},
                                                         GroupId{2}})
                                 : std::vector<GroupId>{GroupId{1}});
    }
  }
  // The ids are the ones the clients really used: the checkers find every
  // delivered message among them.
  const core::PropertyResult verdict =
      core::check_all_properties(rig.property_input(driver));
  EXPECT_TRUE(verdict.ok) << verdict.error;
}

TEST(ClientDriver, OpenLoopClassSplitMeetsTheOfferedRates) {
  SimRig rig(7);
  const Time warmup = 500 * kMillisecond;
  const Time horizon = warmup + 3 * kSecond;
  ClientDriver driver(rig.sim, {.stop_issuing = horizon, .warmup = warmup},
                      pattern_draw({.pattern = Pattern::kMixed}, kTargets, 6));
  driver.reserve_open_loop(500.0, horizon - warmup, horizon);
  Rng seeder(13);
  for (int c = 0; c < 6; ++c) {
    driver.add_client(rig.add_client(), seeder.fork());
  }
  // Two scheduler-event pacers, as in run_experiment's per-class split.
  struct Pacer {
    RateController controller;
    DestClass cls;
  };
  Pacer pacers[] = {{RateController(400.0, Rng(1)), DestClass::kLocal},
                    {RateController(100.0, Rng(2)), DestClass::kGlobal}};
  std::function<void(Pacer*)> arm = [&](Pacer* p) {
    rig.sim.scheduler().schedule_after(
        p->controller.next_delay(rig.sim.now()), [&arm, &driver, p] {
          driver.fire(p->cls);
          arm(p);
        });
  };
  for (Pacer& p : pacers) arm(&p);
  rig.sim.run_until(horizon);

  ClientDriver::Sinks& sinks = driver.sinks();
  EXPECT_NEAR(sinks.local.rate_per_sec(warmup, horizon), 400.0, 40.0);
  EXPECT_NEAR(sinks.global.rate_per_sec(warmup, horizon), 100.0, 15.0);
  EXPECT_EQ(sinks.local.overflow() + sinks.global.overflow(), 0u);
  // Forced classes: locals went to one group, globals to two; each class
  // spreads round-robin over all six clients.
  std::map<ProcessId, int> locals;
  std::map<ProcessId, int> globals;
  for (const core::SentMessage& s : driver.sent()) {
    ASSERT_TRUE(s.dst.size() == 1 || s.dst.size() == 2);
    ++(s.dst.size() == 1 ? locals : globals)[s.id.origin];
  }
  ASSERT_EQ(locals.size(), 6u);
  ASSERT_EQ(globals.size(), 6u);
  for (const auto& [pid, n] : locals) {
    EXPECT_LE(std::abs(n - locals.begin()->second), 1);
  }
  for (const auto& [pid, n] : globals) {
    EXPECT_LE(std::abs(n - globals.begin()->second), 1);
  }
}

TEST(ClientDriver, NothingIssuedAfterTheStopTime) {
  SimRig rig(9);
  const Time stop = 1 * kSecond;
  ClientDriver driver(rig.sim, {.stop_issuing = stop},
                      pair_draw(kTargets, 0.3));
  Rng seeder(17);
  for (int c = 0; c < 3; ++c) {
    driver.add_client(rig.add_client(), seeder.fork());
  }
  driver.start_closed_loop();
  rig.sim.run_until(stop);
  const std::size_t at_stop = driver.sent().size();
  EXPECT_GT(at_stop, 0u);

  driver.fire(DestClass::kPattern);  // an arrival past the stop time
  rig.sim.run_until(stop + 10 * kSecond);
  EXPECT_EQ(driver.sent().size(), at_stop);
  EXPECT_EQ(driver.completed(), at_stop);  // the tail drained
}

TEST(ClientDriverRuntime, ParallelSystemRunPassesProperties) {
  runtime::ParallelOptions opts;
  opts.runtime.seed = 23;
  runtime::ParallelSystem system(
      core::OverlayTree::two_level(kTargets, GroupId{100}), /*f=*/1, opts);
  ClientDriver driver(system.env(), {.per_client_cap = 40},
                      pair_draw(kTargets, 0.5));
  Rng seeder(29);
  for (int c = 0; c < 2; ++c) {
    driver.add_client(system.add_client("client" + std::to_string(c)),
                      seeder.fork());
  }
  system.start();
  driver.start_closed_loop();
  ASSERT_TRUE(driver.await_completed(80, std::chrono::minutes(2)));

  // Every client reached its cap, so the issue record is final.
  core::PropertyInput in;
  in.sent = driver.sent();
  ASSERT_EQ(in.sent.size(), 80u);
  std::vector<std::vector<GroupId>> dsts;
  for (const core::SentMessage& s : in.sent) dsts.push_back(s.dst);
  ASSERT_TRUE(system.await_total_deliveries(system.expected_deliveries(dsts),
                                            std::chrono::minutes(2)));
  system.stop();

  in.log = &system.delivery_log();
  for (const GroupId g : kTargets) {
    auto& grp = system.system().group(g);
    for (const int i : grp.correct_indices()) {
      in.correct_replicas[g].push_back(grp.replica(i).id());
    }
  }
  const core::PropertyResult verdict = core::check_all_properties(in);
  EXPECT_TRUE(verdict.ok) << verdict.error;
  EXPECT_EQ(driver.sinks().latency_all.count(), 80u);
}

// The pickers pair_or_single replaced, verbatim in behaviour: the three-group
// one of bench_net_throughput and net_cluster_test, and the n-group one of
// bench_runtime_throughput, bench_trace_overhead and byzcast-loadgen.
std::vector<GroupId> three_group_picker(Rng& rng, double global_fraction) {
  if (rng.next_bool(global_fraction)) {
    const auto a = static_cast<std::int32_t>(rng.next_below(3));
    const auto b = static_cast<std::int32_t>(rng.next_below(2));
    return {GroupId{a}, GroupId{b < a ? b : b + 1}};
  }
  return {GroupId{static_cast<std::int32_t>(rng.next_below(3))}};
}

std::vector<GroupId> n_group_picker(Rng& rng, int groups,
                                    double global_fraction) {
  if (groups > 1 && rng.next_bool(global_fraction)) {
    const auto a = static_cast<std::int32_t>(
        rng.next_below(static_cast<std::uint64_t>(groups)));
    const auto b = static_cast<std::int32_t>(
        rng.next_below(static_cast<std::uint64_t>(groups - 1)));
    return {GroupId{a}, GroupId{b < a ? b : b + 1}};
  }
  return {GroupId{static_cast<std::int32_t>(
      rng.next_below(static_cast<std::uint64_t>(groups)))}};
}

TEST(ClientDriver, PairOrSingleDrawsWhatTheDeletedPickersDrew) {
  for (const double fraction : {0.0, 0.3, 0.5, 1.0}) {
    Rng a(97);
    Rng b(97);
    for (int i = 0; i < 2000; ++i) {
      ASSERT_EQ(pair_or_single(a, kTargets, fraction),
                three_group_picker(b, fraction));
    }
    EXPECT_EQ(a.next_u64(), b.next_u64());
    for (const int groups : {1, 2, 4}) {
      std::vector<GroupId> targets;
      for (int g = 0; g < groups; ++g) targets.push_back(GroupId{g});
      Rng c(29);
      Rng d(29);
      for (int i = 0; i < 2000; ++i) {
        ASSERT_EQ(pair_or_single(c, targets, fraction),
                  n_group_picker(d, groups, fraction));
      }
      EXPECT_EQ(c.next_u64(), d.next_u64());
    }
  }
}

}  // namespace
}  // namespace byzcast::workload
