// Protocol-event counters: quiet runs install no views, leader crashes do,
// rejected requests and out-of-window proposals are counted, and
// checkpoints fire on schedule.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <numeric>

#include "bft/client_proxy.hpp"
#include "bft/group.hpp"
#include "sim/simulation.hpp"
#include "support/recording_app.hpp"

namespace byzcast::bft {
namespace {

using ::byzcast::testing::ExecutionTrace;
using ::byzcast::testing::recording_factory;

int run_ops(sim::Simulation& sim, Group& group, int count, Time horizon) {
  ClientProxy client(sim, group.info(), "client");
  int done = 0;
  int remaining = count;
  std::function<void()> issue = [&] {
    if (remaining-- == 0) return;
    client.invoke(to_bytes("op" + std::to_string(remaining)),
                  [&](const Bytes&, Time) {
                    ++done;
                    issue();
                  });
  };
  issue();
  sim.run_until(horizon);
  return done;
}

TEST(Counters, QuietRunInstallsNoViews) {
  std::map<int, ExecutionTrace> traces;
  sim::Simulation sim(201, sim::Profile::lan());
  Group group(sim, GroupId{0}, 1, recording_factory(traces));
  EXPECT_EQ(run_ops(sim, group, 25, 60 * kSecond), 25);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(group.replica(i).counters().views_installed, 0u);
    EXPECT_EQ(group.replica(i).counters().state_transfers, 0u);
    EXPECT_EQ(group.replica(i).counters().out_of_window_proposals, 0u);
  }
  // Only the leader proposes in view 0.
  EXPECT_GT(group.replica(0).counters().proposals_made, 0u);
  EXPECT_EQ(group.replica(1).counters().proposals_made, 0u);
}

TEST(Counters, LeaderCrashInstallsViews) {
  std::map<int, ExecutionTrace> traces;
  sim::Simulation sim(202, sim::Profile::lan());
  std::vector<FaultSpec> faults(4);
  faults[0] = FaultSpec::crashed();
  Group group(sim, GroupId{0}, 1, recording_factory(traces), faults);
  EXPECT_EQ(run_ops(sim, group, 10, 60 * kSecond), 10);
  for (const int i : group.correct_indices()) {
    EXPECT_GE(group.replica(i).counters().views_installed, 1u);
  }
  // The view-1 leader proposed.
  EXPECT_GT(group.replica(1).counters().proposals_made, 0u);
}

TEST(Counters, RejectedRequestsCounted) {
  std::map<int, ExecutionTrace> traces;
  sim::Simulation sim(203, sim::Profile::lan());
  Group group(sim, GroupId{0}, 1, recording_factory(traces));

  class Spoofer final : public sim::Actor {
   public:
    Spoofer(sim::Simulation& sim, GroupInfo info)
        : Actor(sim, "spoofer"), info_(std::move(info)) {}
    void attack() {
      Request req;
      req.group = info_.id;
      req.origin = ProcessId{9999};  // impersonation
      req.seq = 0;
      req.op = to_bytes("x");
      send(info_.replicas()[0], encode_request(req));
      // Wrong group id.
      Request wrong;
      wrong.group = GroupId{42};
      wrong.origin = id();
      wrong.seq = 0;
      wrong.op = to_bytes("y");
      send(info_.replicas()[0], encode_request(wrong));
    }

   protected:
    void on_message(const sim::WireMessage&) override {}

   private:
    GroupInfo info_;
  };
  Spoofer spoofer(sim, group.info());
  spoofer.attack();
  sim.run_until(5 * kSecond);
  EXPECT_EQ(group.replica(0).counters().rejected_requests, 2u);
  EXPECT_EQ(group.replica(0).executed_requests(), 0u);
}

TEST(Counters, OutOfWindowProposalsCounted) {
  // Cut one follower off while the client keeps the leader proposing: once
  // the partition heals, the PROPOSEs it hears are far past its pipeline
  // window, so it drops them (and catches up by state transfer).
  std::map<int, ExecutionTrace> traces;
  sim::Simulation sim(205, sim::Profile::lan());
  Group group(sim, GroupId{0}, 1, recording_factory(traces));
  const std::vector<ProcessId>& replicas = group.info().replicas();
  sim.network().faults().partition({replicas[3]},
                                   {replicas[0], replicas[1], replicas[2]},
                                   /*heal_at=*/200 * kMillisecond);
  EXPECT_EQ(run_ops(sim, group, 400, 60 * kSecond), 400);
  EXPECT_GT(group.replica(3).counters().out_of_window_proposals, 0u);
  EXPECT_EQ(group.replica(0).counters().out_of_window_proposals, 0u);
}

TEST(Counters, CheckpointsFollowPeriod) {
  sim::Profile profile = sim::Profile::lan();
  profile.checkpoint_period = 3;
  std::map<int, ExecutionTrace> traces;
  sim::Simulation sim(204, profile);
  Group group(sim, GroupId{0}, 1, recording_factory(traces));
  EXPECT_EQ(run_ops(sim, group, 20, 120 * kSecond), 20);
  // 20 sequential ops from one closed-loop client = 20 instances -> at
  // least 20/3 checkpoints.
  EXPECT_GE(group.replica(0).counters().checkpoints_taken, 5u);
}

TEST(Counters, EveryFieldIsPublishedUnderItsName) {
  // Counters is a flat list of u64 totals. Giving each a distinct value by
  // position means a field missing from kCounterFields leaves its value
  // unpublished, and a field published under another's name shows up.
  constexpr std::size_t kFields =
      sizeof(Replica::Counters) / sizeof(std::uint64_t);
  static_assert(sizeof(Replica::Counters) == kFields * sizeof(std::uint64_t));
  std::array<std::uint64_t, kFields> values{};
  std::iota(values.begin(), values.end(), std::uint64_t{1});
  Replica::Counters counters;
  std::memcpy(&counters, values.data(), sizeof counters);

  const std::vector<std::string> names = {
      "views_installed",   "state_transfers",
      "proposals_made",    "checkpoints_taken",
      "rejected_requests", "early_batch_cuts",
      "timer_batch_cuts",  "stale_window_drops",
      "buffered_decisions", "staged_verifies",
      "deferred_execs",    "out_of_window_proposals",
      "snapshot_restores", "snapshot_skipped_instances"};
  ASSERT_EQ(names.size(), kFields);

  MetricsRegistry reg;
  for (int pass = 0; pass < 2; ++pass) {  // republishing changes nothing
    publish(reg, Replica::kCounterFields, counters, "replica.", ".g0.r0");
    ASSERT_EQ(reg.counters().size(), kFields);
    for (std::size_t i = 0; i < kFields; ++i) {
      const std::string name = "replica." + names[i] + ".g0.r0";
      ASSERT_TRUE(reg.counters().contains(name)) << name;
      EXPECT_EQ(reg.counters().at(name).value(), i + 1) << name;
    }
  }
}

TEST(Counters, PublishedZeroCountersStayAbsent) {
  // Before any traffic every Counters field is 0 and reads as absent;
  // executed and decided are published regardless.
  std::map<int, ExecutionTrace> traces;
  sim::Simulation sim(206, sim::Profile::lan());
  Group group(sim, GroupId{0}, 1, recording_factory(traces));
  MetricsRegistry reg;
  for (int i = 0; i < 4; ++i) group.replica(i).publish_counters(reg);
  ASSERT_EQ(reg.counters().size(), 8u);
  for (int i = 0; i < 4; ++i) {
    const std::string label = group.replica(i).metrics_label();
    EXPECT_EQ(label, "g0.r" + std::to_string(i));
    EXPECT_EQ(reg.counters().at("replica.executed." + label).value(), 0u);
    EXPECT_EQ(reg.counters().at("replica.decided." + label).value(), 0u);
  }

  EXPECT_EQ(run_ops(sim, group, 5, 30 * kSecond), 5);
  for (int i = 0; i < 4; ++i) {
    const Replica& r = group.replica(i);
    r.publish_counters(reg);
    EXPECT_EQ(reg.counters().at("replica.executed." + r.metrics_label())
                  .value(),
              r.executed_requests());
  }
  EXPECT_EQ(reg.counters().at("replica.proposals_made.g0.r0").value(),
            group.replica(0).counters().proposals_made);
  EXPECT_FALSE(reg.counters().contains("replica.views_installed.g0.r0"));
}

}  // namespace
}  // namespace byzcast::bft
