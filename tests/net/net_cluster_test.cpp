// End-to-end ByzCast over the net backend: an InProcessCluster runs one
// ClusterNode per replica seat plus a client-only node, each on its own
// event-loop thread, over real localhost TCP — the same code path as the
// multi-process deployment minus fork/exec. A mixed workload must complete
// and satisfy the five §II-B properties; killing one replica mid-run (f=1)
// must not break completion or the properties for the surviving seats.
#include "net/cluster.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "core/properties.hpp"
#include "net/config.hpp"
#include "workload/driver.hpp"

namespace byzcast::net {
namespace {

using namespace std::chrono_literals;

/// f=1, three target groups: g0 is the root, g1/g2 its children — the
/// checked-in deployment shape. Ports are placeholders; InProcessCluster
/// listens ephemerally and rewrites them.
ClusterConfig three_group_config() {
  std::string text = R"({"name": "inproc", "f": 1, "seed": 11, "groups": [)";
  for (int g = 0; g < 3; ++g) {
    if (g > 0) text += ",";
    text += R"({"id": )" + std::to_string(g) + R"(, "target": true,)";
    text += g == 0 ? R"( "parent": null,)" : R"( "parent": 0,)";
    text += R"( "replicas": [)";
    for (int r = 0; r < 4; ++r) {
      if (r > 0) text += ",";
      text += R"({"host": "127.0.0.1", "port": )" +
              std::to_string(10000 + g * 10 + r) + "}";
    }
    text += "]}";
  }
  text += "]}";
  std::string err;
  auto cfg = ClusterConfig::parse(text, &err);
  BZC_EXPECTS(cfg.has_value());
  return *cfg;
}

/// Closed loop on the client node's loop thread: `msgs_per_client` messages
/// per client, half of them to a random pair of groups. The driver must
/// outlive the cluster's loop threads (stop the cluster first).
std::unique_ptr<workload::ClientDriver> mixed_driver(
    InProcessCluster& cluster, const std::vector<core::Client*>& clients,
    std::uint64_t msgs_per_client) {
  auto driver = std::make_unique<workload::ClientDriver>(
      cluster.client_node().env(),
      workload::ClientDriver::Options{.per_client_cap = msgs_per_client},
      workload::pair_draw({GroupId{0}, GroupId{1}, GroupId{2}}, 0.5));
  Rng seeder(0x5eedULL);
  for (core::Client* client : clients) {
    driver->add_client(*client, seeder.fork());
  }
  return driver;
}

/// Completion needs only f+1 replies per group; a straggler replica may
/// still be catching up via anti-entropy state transfer, which is driven by
/// the liveness timer (leader_timeout/2 = 1s here) and rate-limited to one
/// request per 500ms. The stability window must exceed that cadence, or we
/// declare the run over before the designed self-healing has had its turn.
void wait_quiescent(const InProcessCluster& cluster) {
  std::uint64_t last = cluster.total_deliveries();
  auto stable_since = std::chrono::steady_clock::now();
  const auto deadline = stable_since + 60s;
  while (std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(20ms);
    const std::uint64_t now = cluster.total_deliveries();
    if (now != last) {
      last = now;
      stable_since = std::chrono::steady_clock::now();
    } else if (std::chrono::steady_clock::now() - stable_since > 2500ms) {
      return;
    }
  }
}

TEST(InProcessClusterTest, MixedWorkloadSatisfiesProperties) {
  InProcessCluster cluster(three_group_config());
  std::vector<core::Client*> clients{&cluster.add_client("c0"),
                                     &cluster.add_client("c1")};
  const auto driver = mixed_driver(cluster, clients, /*msgs_per_client=*/25);
  cluster.start();

  driver->start_closed_loop();
  driver->await_completed(50, 120s);
  EXPECT_EQ(driver->completed(), 50u);
  wait_quiescent(cluster);
  cluster.stop();

  const core::PropertyResult verdict =
      cluster.check_properties(driver->sent());
  EXPECT_TRUE(verdict.ok) << verdict.error;
  EXPECT_EQ(cluster.total_monitor_violations(), 0u);
  // Every delivery a correct replica logged really happened over TCP or a
  // local hop; zero counted drops is the "nothing was silently lost" cross
  // check on top of the property verdict.
  EXPECT_GT(cluster.total_deliveries(), 0u);
  for (int g = 0; g < 3; ++g) {
    for (int i = 0; i < 4; ++i) {
      auto& node = cluster.replica_node(GroupId{g}, i);
      const auto& ts = node.env().transport().stats();
      EXPECT_EQ(ts.dropped_decode, 0u) << node.node_name();
      EXPECT_EQ(ts.inbound_resets, 0u) << node.node_name();
      EXPECT_EQ(node.env().stats().no_actor_drops, 0u) << node.node_name();
      EXPECT_EQ(node.env().stats().ghost_send_drops, 0u) << node.node_name();
    }
  }
}

TEST(InProcessClusterTest, SurvivesKillingOneReplicaMidRun) {
  InProcessCluster cluster(three_group_config());
  std::vector<core::Client*> clients{&cluster.add_client("c0")};
  const auto driver = mixed_driver(cluster, clients, /*msgs_per_client=*/30);
  cluster.start();

  driver->start_closed_loop();
  // Kill a replica once a third of the messages completed.
  if (driver->await_completed(10, 120s)) cluster.kill_replica(GroupId{1}, 3);
  driver->await_completed(30, 120s);
  // f=1: with one of g1's four replicas dead, the remaining three still
  // form quorums and give the client its f+1 matching replies.
  EXPECT_EQ(driver->completed(), 30u);
  wait_quiescent(cluster);
  cluster.stop();

  // The killed seat is excluded from the correct set; everyone else must
  // still agree on a single per-group total order.
  const core::PropertyResult verdict =
      cluster.check_properties(driver->sent());
  EXPECT_TRUE(verdict.ok) << verdict.error;
  EXPECT_EQ(cluster.total_monitor_violations(), 0u);
}

}  // namespace
}  // namespace byzcast::net
