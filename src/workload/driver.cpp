#include "workload/driver.hpp"

#include <thread>
#include <utility>

#include "common/contracts.hpp"
#include "core/multicast.hpp"

namespace byzcast::workload {

DestinationDraw pattern_draw(GeneratorConfig config,
                             std::vector<GroupId> targets,
                             std::size_t clients) {
  std::vector<DestinationGenerator> gens;
  gens.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    gens.emplace_back(config, targets, c % targets.size());
  }
  return [gens = std::move(gens)](std::size_t c, Rng& rng,
                                  DestClass cls) mutable {
    switch (cls) {
      case DestClass::kLocal: return gens.at(c).next_local(rng);
      case DestClass::kGlobal: return gens.at(c).next_global(rng);
      case DestClass::kPattern: break;
    }
    return gens.at(c).next(rng);
  };
}

DestinationDraw pair_draw(std::vector<GroupId> targets,
                          double global_fraction) {
  return [targets = std::move(targets), global_fraction](
             std::size_t, Rng& rng, DestClass cls) {
    BZC_EXPECTS(cls == DestClass::kPattern);
    return pair_or_single(rng, targets, global_fraction);
  };
}

ClientDriver::ClientDriver(sim::ExecutionEnv& env, Options opts,
                           DestinationDraw draw)
    : env_(env), opts_(opts), draw_(std::move(draw)) {
  for (LatencyRecorder* rec : {&sinks_.latency_all, &sinks_.latency_local,
                               &sinks_.latency_global}) {
    rec->set_warmup(opts_.warmup);
  }
}

void ClientDriver::add_client(core::Client& client, Rng rng) {
  slots_.push_back(Slot{&client, rng, {}});
}

void ClientDriver::reserve_open_loop(double rate_per_sec, Time duration,
                                     Time horizon) {
  const auto expected_completions =
      static_cast<std::size_t>(rate_per_sec * to_sec(duration));
  const auto expected_events =
      static_cast<std::size_t>(rate_per_sec * to_sec(horizon));
  const auto with_margin = [](std::size_t n) { return n + n / 4 + 1024; };
  for (LatencyRecorder* rec : {&sinks_.latency_all, &sinks_.latency_local,
                               &sinks_.latency_global}) {
    rec->reserve(with_margin(expected_completions));
    rec->set_max_samples(8 * expected_completions + 8192);
  }
  for (ThroughputMeter* meter : {&sinks_.all, &sinks_.local, &sinks_.global}) {
    meter->reserve(with_margin(expected_events));
    meter->set_max_events(8 * expected_events + 8192);
  }
}

void ClientDriver::start_closed_loop() {
  for (std::size_t c = 0; c < slots_.size(); ++c) {
    env_.run_on(slots_[c].client->id(),
                [this, c] { issue(c, DestClass::kPattern, true); });
  }
}

void ClientDriver::fire(DestClass cls) {
  BZC_EXPECTS(!slots_.empty());
  std::size_t& cursor = cursor_[static_cast<std::size_t>(cls)];
  const std::size_t c = cursor;
  cursor = (cursor + 1) % slots_.size();
  env_.run_on(slots_[c].client->id(),
              [this, c, cls] { issue(c, cls, false); });
}

void ClientDriver::issue(std::size_t c, DestClass cls, bool reissue) {
  Slot& slot = slots_[c];
  if (env_.now() >= opts_.stop_issuing) return;
  if (slot.dsts.size() >= opts_.per_client_cap) return;
  std::vector<GroupId> dst = draw_(c, slot.rng, cls);
  const bool is_local = dst.size() == 1;
  core::MulticastMessage canon;
  canon.dst = dst;
  canon.canonicalize();
  slot.dsts.push_back(std::move(canon.dst));
  slot.client->a_multicast(
      std::move(dst), Bytes(opts_.payload_size, 0xAB),
      [this, c, cls, reissue, is_local](const core::MulticastMessage&,
                                        Time latency) {
        record_completion(latency, is_local);
        if (reissue) issue(c, cls, true);
      });
}

void ClientDriver::record_completion(Time latency, bool is_local) {
  {
    // Read the clock under the lock: the meters need nondecreasing times
    // when completions arrive on several threads.
    const std::lock_guard<std::mutex> lock(sinks_mu_);
    const Time now = env_.now();
    sinks_.all.record(now);
    sinks_.latency_all.record(now, latency);
    if (is_local) {
      sinks_.local.record(now);
      sinks_.latency_local.record(now, latency);
    } else {
      sinks_.global.record(now);
      sinks_.latency_global.record(now, latency);
    }
  }
  completed_.fetch_add(1);
}

bool ClientDriver::await_completed(
    std::uint64_t n, std::chrono::steady_clock::duration timeout) const {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (completed() < n) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

std::vector<core::SentMessage> ClientDriver::sent() const {
  std::vector<core::SentMessage> out;
  for (const Slot& slot : slots_) {
    for (std::size_t k = 0; k < slot.dsts.size(); ++k) {
      out.push_back(core::SentMessage{
          MessageId{slot.client->id(), static_cast<std::uint64_t>(k)},
          slot.dsts[k]});
    }
  }
  return out;
}

}  // namespace byzcast::workload
