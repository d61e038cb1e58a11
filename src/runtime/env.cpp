#include "runtime/env.hpp"

#include <utility>

#include "common/contracts.hpp"

namespace byzcast::runtime {

RuntimeEnv::RuntimeEnv(RuntimeOptions opts)
    : opts_(opts),
      executor_(opts.workers, opts.mailbox_capacity),
      wheel_(opts.tick),
      network_(executor_, wheel_, opts.net_delay),
      keys_(std::make_shared<KeyStore>(
          opts.seed ^ 0xb7e151628aed2a6aULL,
          opts.profile.fast_macs ? MacMode::kFast : MacMode::kHmac)),
      master_rng_(opts.seed) {
  const std::uint32_t vw = opts_.profile.effective_verify_workers();
  const std::uint32_t es = opts_.profile.effective_exec_shards();
  if (vw > 0 || es > 0) {
    stages_ = std::make_unique<StagePool>(
        vw, es, opts_.mailbox_capacity,
        [this](ProcessId owner, std::function<void()> fn) {
          // Verify completions re-enter the owner's executor lane; an owner
          // detached mid-flight counts as a drop (same as the network).
          const std::size_t worker = network_.worker_of(owner);
          if (worker != Executor::npos) executor_.post(worker, std::move(fn));
        });
  }
}

RuntimeEnv::~RuntimeEnv() { stop(); }

void RuntimeEnv::start() {
  executor_.start();
  if (stages_) stages_->start();
  wheel_.start();
}

void RuntimeEnv::stop() {
  wheel_.stop();
  if (stages_) stages_->stop();
  executor_.stop();
}

Rng RuntimeEnv::fork_rng() {
  const std::lock_guard<std::mutex> lock(rng_mu_);
  return master_rng_.fork();
}

void RuntimeEnv::set_placement_domain(std::int32_t domain) {
  const std::lock_guard<std::mutex> lock(placement_mu_);
  current_domain_ = domain;
}

std::size_t RuntimeEnv::worker_for_domain(std::int32_t domain) {
  const std::lock_guard<std::mutex> lock(placement_mu_);
  const auto it = domain_worker_.find(domain);
  if (it != domain_worker_.end()) return it->second;
  // Domains are assigned to workers round-robin in order of first use; with
  // workers == #groups (+1 for clients) this is thread-per-group.
  const std::size_t worker = next_worker_++ % executor_.workers();
  domain_worker_[domain] = worker;
  return worker;
}

void RuntimeEnv::attach(ProcessId id, sim::Actor* actor) {
  std::int32_t domain = 0;
  {
    const std::lock_guard<std::mutex> lock(placement_mu_);
    domain = current_domain_;
  }
  network_.attach(id, actor, worker_for_domain(domain));
}

void RuntimeEnv::schedule(ProcessId owner, Time delay,
                          std::function<void()> fn) {
  const std::size_t worker = network_.worker_of(owner);
  if (worker == Executor::npos) return;  // owner already detached
  if (delay < opts_.tick) {
    // The wheel cannot resolve sub-tick delays: it rounds any positive
    // delay up to 1-2 ticks, which turns a nanosecond-scale CPU-cost hint
    // (actor drain continuations, simulated busy time) into a multi-
    // millisecond stall on the real clock. Post straight to the owner's
    // worker instead — on this backend the real CPU already paid the cost.
    // This deliberately diverges from simulator timing for ALL sub-tick
    // delays; the contract is documented at ExecutionEnv::schedule.
    executor_.post(worker, std::move(fn));
    return;
  }
  wheel_.schedule(delay, [this, worker, fn = std::move(fn)]() mutable {
    executor_.post(worker, std::move(fn));
  });
}

bool RuntimeEnv::run_on(ProcessId owner, std::function<void()> fn) {
  const std::size_t worker = network_.worker_of(owner);
  if (worker == Executor::npos) return false;
  return executor_.post_external(worker, std::move(fn));
}

}  // namespace byzcast::runtime
