#include "core/system.hpp"

#include <gtest/gtest.h>

#include "sim/simulation.hpp"

namespace byzcast::core {
namespace {

TEST(System, AssemblesOneGroupPerTreeNode) {
  sim::Simulation sim(1, sim::Profile::lan());
  const std::vector<GroupId> targets = {GroupId{0}, GroupId{1}, GroupId{2}};
  ByzCastSystem system(sim, OverlayTree::two_level(targets, GroupId{50}), 1);

  EXPECT_EQ(system.registry().size(), 4u);
  for (const GroupId g : system.tree().all_groups()) {
    EXPECT_EQ(system.group(g).n(), 4);
    EXPECT_EQ(system.group(g).f(), 1);
    EXPECT_EQ(system.registry().at(g).id, g);
  }
}

TEST(System, ProcessIdsAreDisjointAcrossGroups) {
  sim::Simulation sim(2, sim::Profile::lan());
  ByzCastSystem system(
      sim, OverlayTree::two_level({GroupId{0}, GroupId{1}}, GroupId{50}), 1);
  std::set<ProcessId> all;
  for (const auto& [g, info] : system.registry()) {
    for (const ProcessId p : info.replicas()) {
      EXPECT_TRUE(all.insert(p).second) << "duplicate pid";
    }
  }
  EXPECT_EQ(all.size(), 12u);
}

TEST(System, FaultPlanAppliesPerGroup) {
  sim::Simulation sim(3, sim::Profile::lan());
  FaultPlan plan;
  std::vector<bft::FaultSpec> faults(4);
  faults[1] = bft::FaultSpec::crashed();
  plan.by_group[GroupId{0}] = faults;
  ByzCastSystem system(
      sim, OverlayTree::two_level({GroupId{0}, GroupId{1}}, GroupId{50}), 1,
      plan);
  EXPECT_TRUE(system.group(GroupId{0}).replica(1).faults().silent);
  EXPECT_FALSE(system.group(GroupId{1}).replica(1).faults().silent);
  EXPECT_EQ(system.group(GroupId{0}).correct_indices().size(), 3u);
  EXPECT_EQ(system.group(GroupId{1}).correct_indices().size(), 4u);
}

TEST(System, FaultPlanForGroupDefaultsToCorrect) {
  FaultPlan plan;
  EXPECT_TRUE(plan.for_group(GroupId{7}).empty());
  plan.by_group[GroupId{7}] = std::vector<bft::FaultSpec>(4);
  EXPECT_EQ(plan.for_group(GroupId{7}).size(), 4u);
}

TEST(System, NodeAccessorReturnsTheHostedApplication) {
  sim::Simulation sim(4, sim::Profile::lan());
  ByzCastSystem system(
      sim, OverlayTree::two_level({GroupId{0}, GroupId{1}}, GroupId{50}), 1);
  ByzCastNode& node = system.node(GroupId{0}, 2);
  EXPECT_EQ(node.handled_count(), 0u);
  EXPECT_EQ(node.a_delivered_count(), 0u);
}

TEST(System, NodeCountsEachADeliveryOnce) {
  // A node keeps no a-delivered id set: its count must still match the
  // delivery log, with the entry group handling (but not a-delivering)
  // global messages.
  sim::Simulation sim(7, sim::Profile::lan());
  ByzCastSystem system(
      sim, OverlayTree::two_level({GroupId{0}, GroupId{1}}, GroupId{50}), 1);
  auto client = system.make_client("c");
  int done = 0;
  const auto count = [&](const MulticastMessage&, Time) { ++done; };
  client->a_multicast({GroupId{0}, GroupId{1}}, to_bytes("global"), count);
  client->a_multicast({GroupId{0}}, to_bytes("local"), count);
  sim.run_until(20 * kSecond);
  ASSERT_EQ(done, 2);

  const ByzCastNode& target = system.node(GroupId{0}, 2);
  const ProcessId replica =
      system.registry().at(GroupId{0}).replicas()[2];
  EXPECT_EQ(target.a_delivered_count(), 2u);
  EXPECT_EQ(target.a_delivered_count(),
            system.delivery_log().sequence(replica).size());
  EXPECT_EQ(target.handled_count(), 2u);
  const ByzCastNode& root = system.node(GroupId{50}, 2);
  EXPECT_EQ(root.handled_count(), 1u);
  EXPECT_EQ(root.a_delivered_count(), 0u);
}

TEST(System, ClientsGetFreshIds) {
  sim::Simulation sim(5, sim::Profile::lan());
  ByzCastSystem system(
      sim, OverlayTree::two_level({GroupId{0}, GroupId{1}}, GroupId{50}), 1);
  auto c1 = system.make_client("a");
  auto c2 = system.make_client("b");
  EXPECT_NE(c1->id(), c2->id());
  for (const auto& [g, info] : system.registry()) {
    EXPECT_FALSE(info.is_member(c1->id()));
  }
}

TEST(SystemDeathTest, UnfinalizedTreeRejected) {
  sim::Simulation sim(6, sim::Profile::lan());
  OverlayTree tree;
  tree.add_group(GroupId{0}, true);
  EXPECT_DEATH(ByzCastSystem(sim, std::move(tree), 1), "Precondition");
}

}  // namespace
}  // namespace byzcast::core
