// State transfer: a replica cut off from the group catches up after the
// partition heals — through the decided-log tail, and through a checkpoint
// snapshot once the log has been truncated.
#include <gtest/gtest.h>

#include "bft/client_proxy.hpp"
#include "bft/group.hpp"
#include "sim/simulation.hpp"
#include "support/raw_client.hpp"
#include "support/recording_app.hpp"

namespace byzcast::bft {
namespace {

using ::byzcast::testing::ExecutionTrace;
using ::byzcast::testing::RawClient;
using ::byzcast::testing::recording_factory;

struct PartitionHarness {
  explicit PartitionHarness(std::uint32_t checkpoint_period,
                            std::uint64_t seed = 41)
      : profile([&] {
          sim::Profile p = sim::Profile::lan();
          p.checkpoint_period = checkpoint_period;
          return p;
        }()),
        sim(seed, profile),
        group(sim, GroupId{0}, 1, recording_factory(traces)) {}

  void isolate_replica(int index, Time heal_at) {
    std::vector<ProcessId> others;
    for (int i = 0; i < 4; ++i) {
      if (i != index) others.push_back(group.info().replicas()[i]);
    }
    sim.network().faults().partition({group.info().replicas()[index]}, others,
                                     heal_at);
  }

  int run_ops(int count, Time horizon) {
    ClientProxy client(sim, group.info(), "client");
    int completions = 0;
    int remaining = count;
    std::function<void()> issue = [&] {
      if (remaining-- == 0) return;
      client.invoke(to_bytes("op" + std::to_string(remaining)),
                    [&](const Bytes&, Time) {
                      ++completions;
                      issue();
                    });
    };
    issue();
    sim.run_until(horizon);
    return completions;
  }

  std::map<int, ExecutionTrace> traces;
  sim::Profile profile;
  sim::Simulation sim;
  Group group;
};

TEST(StateTransfer, LaggardCatchesUpFromLogTail) {
  // Large checkpoint period: the log is never truncated, so the laggard
  // recovers purely from the decided-log tail.
  PartitionHarness h(/*checkpoint_period=*/1'000'000);
  h.isolate_replica(3, /*heal_at=*/10 * kSecond);
  const int done = h.run_ops(60, 90 * kSecond);
  EXPECT_EQ(done, 60);

  ASSERT_EQ(h.traces[3].size(), 60u) << "laggard did not catch up";
  for (std::size_t k = 0; k < 60; ++k) {
    EXPECT_EQ(h.traces[3][k].op, h.traces[0][k].op);
  }
  EXPECT_EQ(h.group.replica(3).history_digest(),
            h.group.replica(0).history_digest());
  // The log tail sufficed: no snapshot was restored.
  EXPECT_GE(h.group.replica(3).counters().state_transfers, 1u);
  EXPECT_EQ(h.group.replica(3).counters().snapshot_restores, 0u);
  EXPECT_EQ(h.group.replica(3).counters().snapshot_skipped_instances, 0u);
}

TEST(StateTransfer, LaggardRestoresFromSnapshotAfterTruncation) {
  // Tiny checkpoint period: by heal time the log below the checkpoint is
  // gone and recovery must go through the snapshot. The laggard's
  // executed-history digest must still converge (it skips re-executing the
  // snapshotted prefix, so its trace is shorter, but replica state agrees).
  PartitionHarness h(/*checkpoint_period=*/4);
  h.isolate_replica(3, /*heal_at=*/20 * kSecond);
  const int done = h.run_ops(120, 150 * kSecond);
  EXPECT_EQ(done, 120);

  EXPECT_EQ(h.group.replica(3).history_digest(),
            h.group.replica(0).history_digest());
  EXPECT_EQ(h.group.replica(3).executed_requests(),
            h.group.replica(0).executed_requests());
}

TEST(StateTransfer, IsolatedLeaderDeposedThenCatchesUp) {
  PartitionHarness h(/*checkpoint_period=*/1'000'000);
  h.isolate_replica(0, /*heal_at=*/15 * kSecond);  // view-0 leader
  const int done = h.run_ops(40, 120 * kSecond);
  EXPECT_EQ(done, 40);
  // The group moved past view 0 while its leader was isolated.
  EXPECT_GE(h.group.replica(1).view(), 1u);
  // After healing, the old leader converges on the same history.
  EXPECT_EQ(h.group.replica(0).history_digest(),
            h.group.replica(1).history_digest());
}

/// Drives replica 3 into restoring a checkpoint that holds a decided
/// request back behind a FIFO gap: client x's seq 1 decides in instance 0,
/// three filler requests decide in instances 1-3 (checkpoint at 4, taken
/// while x:1 waits for x:0), and x's seq 0 decides in instance 4, the log
/// tail above the checkpoint. Replica 3 is cut off from its peers until
/// all five have decided, then catches up from the snapshot plus that tail.
struct HeldBackCheckpoint {
  HeldBackCheckpoint() {
    h.isolate_replica(3, /*heal_at=*/8 * kSecond);
    x.send_seq(1);
    h.sim.run_until(1 * kSecond);
    ClientProxy filler(h.sim, h.group.info(), "filler");
    int done = 0;
    std::function<void()> issue = [&] {
      if (done == 3) return;
      filler.invoke(to_bytes("fill"), [&](const Bytes&, Time) {
        ++done;
        issue();
      });
    };
    issue();
    h.sim.run_until(4 * kSecond);
    EXPECT_EQ(done, 3);
    x.send_seq(0);
    h.sim.run_until(40 * kSecond);
  }

  PartitionHarness h{/*checkpoint_period=*/4};
  RawClient x{h.sim, h.group.info(), "x"};
};

TEST(StateTransfer, SnapshotCarriesHeldBackRequests) {
  HeldBackCheckpoint run;
  const Replica& peer = run.h.group.replica(0);
  const Replica& laggard = run.h.group.replica(3);
  ASSERT_EQ(peer.decided_instances(), 5u);
  ASSERT_EQ(peer.counters().checkpoints_taken, 1u);
  ASSERT_EQ(peer.executed_requests(), 5u);
  // The laggard went through the snapshot: it executed only the tail
  // (x:0, then x:1 released from the restored hold-back).
  ASSERT_GE(laggard.counters().state_transfers, 1u);
  EXPECT_LT(run.h.traces[3].size(), run.h.traces[0].size());
  EXPECT_EQ(laggard.decided_instances(), peer.decided_instances());
  EXPECT_EQ(laggard.executed_requests(), peer.executed_requests());
  EXPECT_EQ(laggard.history_digest(), peer.history_digest());
}

TEST(StateTransfer, SnapshotRestoreCountsTheJump) {
  HeldBackCheckpoint run;
  // Cut off from the start, the laggard had decided nothing when it adopted
  // the checkpoint at instance 4: one restore that skipped instances 0-3.
  const Replica& laggard = run.h.group.replica(3);
  EXPECT_EQ(laggard.counters().snapshot_restores, 1u);
  EXPECT_EQ(laggard.counters().snapshot_skipped_instances, 4u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(run.h.group.replica(i).counters().snapshot_restores, 0u)
        << "replica " << i;
  }
}

TEST(StateTransfer, ReplayOfRestoredRequestIsRejected) {
  HeldBackCheckpoint run;
  const Replica& laggard = run.h.group.replica(3);
  ASSERT_EQ(laggard.decided_instances(), 5u);
  // Everything the laggard admitted while cut off is decided by now, part
  // of it inside the restored snapshot: no admission state is left over.
  EXPECT_EQ(laggard.undecided_requests(), 0u);
  EXPECT_EQ(laggard.queued_requests(), 0u);

  // x:1 decided in instance 0, which the laggard never ran itself.
  run.x.send_seq(1);
  run.h.sim.run_until(run.h.sim.now() + 10 * kSecond);
  for (int i = 0; i < 4; ++i) {
    const Replica& r = run.h.group.replica(i);
    EXPECT_EQ(r.undecided_requests(), 0u) << "replica " << i;
    EXPECT_EQ(r.decided_instances(), 5u) << "replica " << i;
    EXPECT_EQ(r.executed_requests(), 5u) << "replica " << i;
    EXPECT_EQ(r.view(), 0u) << "replica " << i;
  }
}

}  // namespace
}  // namespace byzcast::bft
