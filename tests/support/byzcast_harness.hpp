// Shared end-to-end harness for ByzCast/Baseline tests: builds a system over
// a canned tree, drives closed-loop clients with caller-chosen destination
// schedules, tracks every a-multicast message, and assembles the
// PropertyInput for the §II-B checkers.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/system.hpp"
#include "sim/simulation.hpp"
#include "support/properties.hpp"

namespace byzcast::testing {

enum class TreeKind { kSingle, kTwoLevel, kThreeLevel };

struct HarnessConfig {
  TreeKind tree = TreeKind::kTwoLevel;
  int num_targets = 2;
  int f = 1;
  core::Routing routing = core::Routing::kGenuine;
  core::FaultPlan faults;
  std::uint64_t seed = 1;
  /// Optional metric/span/monitor sinks, shared by every node; must outlive
  /// the harness when set.
  Observability obs;
  /// When obs.spans is set, clients trace every n-th message (0 = none).
  std::uint32_t trace_sample_every = 0;
  /// Cost-model/protocol knobs for the simulation (batch sizing, pipeline
  /// depth, ...).
  sim::Profile profile = sim::Profile::lan();
};

/// Auxiliary group ids start at 100 to stay visually distinct from targets.
constexpr std::int32_t kAuxBase = 100;

inline core::OverlayTree make_tree(TreeKind kind, int num_targets) {
  std::vector<GroupId> targets;
  for (int i = 0; i < num_targets; ++i) targets.push_back(GroupId{i});
  switch (kind) {
    case TreeKind::kSingle:
      return core::OverlayTree::single(targets.at(0));
    case TreeKind::kTwoLevel:
      return core::OverlayTree::two_level(targets, GroupId{kAuxBase});
    case TreeKind::kThreeLevel:
      return core::OverlayTree::three_level(targets, GroupId{kAuxBase},
                                            GroupId{kAuxBase + 1},
                                            GroupId{kAuxBase + 2});
  }
  BZC_ASSERT(false);
  return core::OverlayTree::single(targets.at(0));
}

class ByzCastHarness {
 public:
  /// Picks the destination set for client `c`'s `k`-th message.
  using DstPicker = std::function<std::vector<GroupId>(int c, int k, Rng&)>;

  explicit ByzCastHarness(const HarnessConfig& config)
      : config_(config),
        sim(config.seed, config.profile),
        system(sim, make_tree(config.tree, config.num_targets), config.f,
               config.faults, config.routing, config.obs) {}

  [[nodiscard]] std::vector<GroupId> targets() const {
    return system.tree().target_groups();
  }

  /// Runs `msgs_per_client` closed-loop messages on each of `num_clients`
  /// clients, then lets the system drain until `horizon`.
  void run(int num_clients, int msgs_per_client, const DstPicker& pick_dst,
           Time horizon = 120 * kSecond) {
    std::vector<int> sent_count(static_cast<std::size_t>(num_clients), 0);
    Rng rng(config_.seed ^ 0xabcdef);
    for (int c = 0; c < num_clients; ++c) {
      clients.push_back(system.make_client("client" + std::to_string(c)));
      if (config_.trace_sample_every > 0) {
        clients.back()->set_trace_sample_every(config_.trace_sample_every);
      }
    }
    std::function<void(int)> issue = [&, msgs_per_client](int c) {
      auto& count = sent_count[static_cast<std::size_t>(c)];
      if (count == msgs_per_client) return;
      ++count;
      core::Client& client = *clients[static_cast<std::size_t>(c)];
      std::vector<GroupId> dst = pick_dst(c, count - 1, rng);
      Bytes payload = to_bytes("m-" + std::to_string(c) + "-" +
                               std::to_string(count - 1));
      client.a_multicast(std::move(dst), std::move(payload),
                         [this, &issue, c](const core::MulticastMessage&,
                                           Time) {
                           ++completions;
                           issue(c);
                         });
      // a_multicast canonicalized the dst; read it back from the client's
      // view by reconstructing: the id is (client pid, uid = count-1).
    };
    for (int c = 0; c < num_clients; ++c) issue(c);
    sim.run_until(horizon);

    // Reconstruct the sent-message list from the delivery-log-independent
    // knowledge we have: ids are (client, 0..count-1). Destinations were
    // produced by pick_dst; re-derive them with a cloned RNG stream is not
    // possible (shared stream), so instead capture them at issue time.
    // (Populated in `sent` by the wrapper below.)
  }

  /// Like run(), but also records every message into `sent` for the
  /// property checkers.
  void run_tracked(int num_clients, int msgs_per_client,
                   const DstPicker& pick_dst, Time horizon = 120 * kSecond) {
    const DstPicker wrapped = [this, &pick_dst](int c, int k, Rng& rng) {
      std::vector<GroupId> dst = pick_dst(c, k, rng);
      core::MulticastMessage canon;
      canon.dst = dst;
      canon.canonicalize();
      sent.push_back(SentMessage{
          MessageId{clients[static_cast<std::size_t>(c)]->id(),
                    static_cast<std::uint64_t>(k)},
          canon.dst});
      return dst;
    };
    run(num_clients, msgs_per_client, wrapped, horizon);
  }

  /// Correct replicas of every target group, derived from the fault plan.
  [[nodiscard]] std::map<GroupId, std::vector<ProcessId>> correct_replicas() {
    std::map<GroupId, std::vector<ProcessId>> out;
    for (const GroupId g : system.tree().target_groups()) {
      auto& grp = system.group(g);
      for (const int i : grp.correct_indices()) {
        out[g].push_back(grp.replica(i).id());
      }
    }
    return out;
  }

  [[nodiscard]] PropertyInput property_input() {
    PropertyInput in;
    in.log = &system.delivery_log();
    in.sent = sent;
    in.correct_replicas = correct_replicas();
    return in;
  }

  HarnessConfig config_;
  sim::Simulation sim;
  core::ByzCastSystem system;
  std::vector<std::unique_ptr<core::Client>> clients;
  std::vector<SentMessage> sent;
  int completions = 0;
};

}  // namespace byzcast::testing
