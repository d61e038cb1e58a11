#include "net/env.hpp"

#include <utility>

#include "sim/actor.hpp"

namespace byzcast::net {

NetEnv::NetEnv(NetEnvOptions opts)
    : opts_(opts),
      transport_(loop_, opts.transport),
      // Same derivation as RuntimeEnv: MACs signed here verify in any other
      // process loading the same seed.
      keys_(std::make_shared<KeyStore>(
          opts.seed ^ 0xb7e151628aed2a6aULL,
          opts.profile.fast_macs ? MacMode::kFast : MacMode::kHmac)),
      master_rng_(opts.seed) {
  transport_.set_handler(
      [this](sim::WireMessage msg) { deliver_local(std::move(msg)); });
}

NetEnv::~NetEnv() { stop(); }

void NetEnv::set_local_pids(std::unordered_set<std::int32_t> pids,
                            std::int32_t dynamic_local_floor) {
  local_pids_ = std::move(pids);
  dynamic_local_floor_ = dynamic_local_floor;
}

bool NetEnv::is_local(ProcessId pid) const {
  if (!pid.valid()) return false;
  if (pid.value >= dynamic_local_floor_) {
    // Dynamic pids (clients) are local only when THIS process allocated
    // them; a replica daemon sees the load generator's client pids here and
    // must route replies back over the wire, not into a ghost.
    const std::lock_guard<std::mutex> lock(allocated_mu_);
    return allocated_here_.contains(pid.value);
  }
  return local_pids_.contains(pid.value);
}

void NetEnv::start() {
  if (started_.exchange(true)) return;
  loop_thread_ = std::thread([this] { loop_.run(); });
}

void NetEnv::run() {
  started_.store(true);
  loop_.run();
}

void NetEnv::stop() {
  loop_.request_stop();
  if (loop_thread_.joinable()) loop_thread_.join();
}

ProcessId NetEnv::allocate_pid() {
  const auto pid = next_pid_.fetch_add(1, std::memory_order_relaxed);
  if (pid >= dynamic_local_floor_) {
    const std::lock_guard<std::mutex> lock(allocated_mu_);
    allocated_here_.insert(pid);
  }
  return ProcessId(pid);
}

Rng NetEnv::fork_rng() {
  const std::lock_guard<std::mutex> lock(rng_mu_);
  return master_rng_.fork();
}

void NetEnv::attach(ProcessId id, sim::Actor* actor) {
  if (!is_local(id)) return;  // ghost: exists only to advance the pid clock
  actors_[id.value] = actor;
}

void NetEnv::detach(ProcessId id) { actors_.erase(id.value); }

void NetEnv::deliver_local(sim::WireMessage msg) {
  const auto it = actors_.find(msg.to.value);
  if (it == actors_.end()) {
    ++stats_.no_actor_drops;
    return;
  }
  ++stats_.local_deliveries;
  it->second->enqueue(std::move(msg));
}

void NetEnv::send_message(sim::WireMessage msg) {
  if (!is_local(msg.from)) {
    // A ghost's output does not exist; the process owning msg.from emits
    // the real copy.
    ++stats_.ghost_send_drops;
    return;
  }
  if (is_local(msg.to)) {
    // Local hop, no socket and no artificial delay: all replicas hosted by
    // one process belong to one group (one region), where the WAN model's
    // intra-region RTT is sub-millisecond anyway. Direct enqueue is safe —
    // actors defer actual processing through schedule(), so there is no
    // recursion into on_message from here.
    deliver_local(std::move(msg));
    return;
  }
  ++stats_.remote_sends;
  transport_.send(msg);
}

void NetEnv::schedule(ProcessId owner, Time delay,
                      std::function<void()> fn) {
  if (!is_local(owner)) return;  // ghost timers never fire
  if (loop_.running() && !loop_.in_loop_thread()) {
    // Arm from a foreign thread (e.g. the load driver) by bouncing through
    // the loop; the extra hop costs one wakeup.
    loop_.post([this, delay, fn = std::move(fn)]() mutable {
      loop_.schedule(delay, std::move(fn));
    });
    return;
  }
  loop_.schedule(delay < 0 ? 0 : delay, std::move(fn));
}

}  // namespace byzcast::net
