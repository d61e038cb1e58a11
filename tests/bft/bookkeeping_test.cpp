// Per-request replica bookkeeping: a request is admitted once, its admission
// state lives only until it decides, and the decided set is the per-origin
// FIFO watermark plus the hold-back, not a list of every id ever seen.
#include <gtest/gtest.h>

#include "bft/group.hpp"
#include "sim/simulation.hpp"
#include "support/raw_client.hpp"
#include "support/recording_app.hpp"

namespace byzcast::bft {
namespace {

using ::byzcast::testing::ExecutionTrace;
using ::byzcast::testing::RawClient;
using ::byzcast::testing::recording_factory;

struct GroupHarness {
  explicit GroupHarness(std::uint64_t seed,
                        sim::Profile profile = sim::Profile::lan())
      : sim(seed, profile),
        group(sim, GroupId{0}, 1, recording_factory(traces)) {}

  void settle() { sim.run_until(sim.now() + 5 * kSecond); }

  void expect_all(std::uint64_t instances, std::uint64_t executed) {
    for (int i = 0; i < 4; ++i) {
      const Replica& r = group.replica(i);
      EXPECT_EQ(r.decided_instances(), instances) << "replica " << i;
      EXPECT_EQ(r.executed_requests(), executed) << "replica " << i;
      EXPECT_EQ(r.undecided_requests(), 0u) << "replica " << i;
      EXPECT_EQ(r.queued_requests(), 0u) << "replica " << i;
    }
  }

  std::map<int, ExecutionTrace> traces;
  sim::Simulation sim;
  Group group;
};

TEST(Bookkeeping, ResentExecutedRequestIsNotReadmitted) {
  GroupHarness h(1401);
  RawClient x(h.sim, h.group.info(), "x");
  x.send_seq(0);
  h.settle();
  h.expect_all(/*instances=*/1, /*executed=*/1);
  const auto proposals = h.group.replica(0).counters().proposals_made;

  x.send_seq(0);
  h.settle();
  h.expect_all(1, 1);
  EXPECT_EQ(h.group.replica(0).counters().proposals_made, proposals);
}

TEST(Bookkeeping, ResentHeldBackRequestIsNotReadmitted) {
  GroupHarness h(1402);
  RawClient x(h.sim, h.group.info(), "x");
  x.send_seq(1);  // decides, then waits behind the gap at seq 0
  h.settle();
  h.expect_all(/*instances=*/1, /*executed=*/0);

  x.send_seq(1);
  h.settle();
  h.expect_all(1, 0);

  x.send_seq(0);  // fills the gap: both execute, each once
  h.settle();
  h.expect_all(2, 2);
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(h.traces[i].size(), 2u) << "replica " << i;
    EXPECT_EQ(h.traces[i][0].seq, 0u);
    EXPECT_EQ(h.traces[i][1].seq, 1u);
  }
}

TEST(Bookkeeping, QuiescenceLeavesNoPerRequestState) {
  // Whatever the number of requests, nothing per request survives its
  // decision (the state is bounded by the requests in flight).
  for (const int n : {1, 64, 600}) {
    GroupHarness h(1403 + static_cast<std::uint64_t>(n));
    RawClient a(h.sim, h.group.info(), "a");
    RawClient b(h.sim, h.group.info(), "b");
    for (int s = 0; s < n; ++s) {
      a.send_seq(static_cast<std::uint64_t>(s));
      b.send_seq(static_cast<std::uint64_t>(s));
    }
    h.sim.run_until(30 * kSecond);
    for (int i = 0; i < 4; ++i) {
      const Replica& r = h.group.replica(i);
      EXPECT_EQ(r.executed_requests(), 2u * static_cast<std::uint64_t>(n))
          << "n=" << n << " replica " << i;
      EXPECT_EQ(r.undecided_requests(), 0u) << "n=" << n << " replica " << i;
      EXPECT_EQ(r.queued_requests(), 0u) << "n=" << n << " replica " << i;
    }
  }
}

TEST(Bookkeeping, ProgressKeepsLongQueueFromSuspectingLeader) {
  // One request per instance and a 200 ms timeout: the backlog takes far
  // longer than the timeout to drain, but every decision restarts the
  // suspicion clock, so the live leader keeps its view.
  sim::Profile profile = sim::Profile::lan();
  profile.batch_max = 1;
  profile.pipeline_depth = 1;
  profile.leader_timeout = 200 * kMillisecond;
  GroupHarness h(1404, profile);
  RawClient x(h.sim, h.group.info(), "x");
  constexpr int kRequests = 600;
  for (int s = 0; s < kRequests; ++s) {
    x.send_seq(static_cast<std::uint64_t>(s));
  }
  h.sim.run_until(1 * kSecond);
  ASSERT_LT(h.group.replica(0).executed_requests(),
            static_cast<std::uint64_t>(kRequests))
      << "the backlog must outlast several timeouts";
  h.sim.run_until(60 * kSecond);
  for (int i = 0; i < 4; ++i) {
    const Replica& r = h.group.replica(i);
    EXPECT_EQ(r.executed_requests(), static_cast<std::uint64_t>(kRequests))
        << "replica " << i;
    EXPECT_EQ(r.counters().views_installed, 0u) << "replica " << i;
  }
}

}  // namespace
}  // namespace byzcast::bft
