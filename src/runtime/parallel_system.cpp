#include "runtime/parallel_system.hpp"

#include <thread>
#include <utility>

namespace byzcast::runtime {

namespace {

RuntimeOptions resolve(RuntimeOptions opts, const core::OverlayTree& tree) {
  if (opts.workers == 0) {
    // Thread-per-group, plus one worker shared by all clients.
    opts.workers = tree.all_groups().size() + 1;
  }
  return opts;
}

}  // namespace

ParallelSystem::ParallelSystem(core::OverlayTree tree, int f,
                               ParallelOptions opts)
    : env_(resolve(opts.runtime, tree)),
      metrics_(opts.obs.metrics),
      system_(env_, std::move(tree), f, opts.faults, opts.routing, opts.obs) {}

ParallelSystem::~ParallelSystem() {
  // Members die in reverse order (clients, system, env); stopping first
  // guarantees no worker or timer thread is inside an actor by then.
  env_.stop();
}

void ParallelSystem::stop() {
  env_.stop();
  if (metrics_ == nullptr) return;
  for (const auto& [gid, info] : system_.registry()) {
    const bft::Group& grp = system_.group(gid);
    for (int i = 0; i < grp.n(); ++i) {
      grp.replica(i).publish_counters(*metrics_);
    }
  }
}

core::Client& ParallelSystem::add_client(const std::string& name) {
  clients_.push_back(system_.make_client(name));
  return *clients_.back();
}

bool ParallelSystem::a_multicast(core::Client& client,
                                 std::vector<GroupId> dst, Bytes payload,
                                 core::Client::Completion on_done) {
  if (!on_done) on_done = [](const core::MulticastMessage&, Time) {};
  return env_.run_on(
      client.id(),
      [&client, dst = std::move(dst), payload = std::move(payload),
       on_done = std::move(on_done)]() mutable {
        client.a_multicast(std::move(dst), std::move(payload),
                           std::move(on_done));
      });
}

bool ParallelSystem::await_total_deliveries(std::size_t expected,
                                            std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (system_.delivery_log().total_deliveries() < expected) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

std::size_t ParallelSystem::expected_deliveries(
    const std::vector<std::vector<GroupId>>& dsts) const {
  const std::size_t replicas_per_group =
      static_cast<std::size_t>(3 * system_.f() + 1);
  std::size_t total = 0;
  for (const auto& dst : dsts) total += dst.size() * replicas_per_group;
  return total;
}

}  // namespace byzcast::runtime
