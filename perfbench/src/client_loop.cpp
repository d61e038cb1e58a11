#include "client_loop.hpp"

#include <sys/prctl.h>

#include <atomic>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "core/multicast.hpp"
#include "workload/rate.hpp"

namespace perfbench {

/// Everything the client thread and the driving thread share during a
/// phase. Held by shared_ptr: completion callbacks keep it alive until the
/// client itself dies, whatever the phase function has returned by then.
struct LoopState {
  std::mutex mu;
  std::vector<core::SentMessage> sent;      // guarded by mu
  std::vector<std::uint8_t> completed;      // guarded by mu; by uid
  std::vector<double> local_ms, global_ms;  // guarded by mu
  std::atomic<std::uint64_t> issued{0};
  std::atomic<std::uint64_t> expected_deliveries{0};
  std::atomic<std::uint64_t> completions{0};

  /// Records the next message (uid = issue order) as about to be
  /// a-multicast.
  void issue(ProcessId client, const std::vector<GroupId>& dst,
             int replicas_per_group) {
    core::MulticastMessage canon;
    canon.dst = dst;
    canon.canonicalize();
    const std::lock_guard<std::mutex> lock(mu);
    sent.push_back(core::SentMessage{
        MessageId{client, static_cast<std::uint64_t>(sent.size())},
        std::move(canon.dst)});
    completed.push_back(0);
    expected_deliveries.fetch_add(sent.back().dst.size() *
                                  static_cast<std::uint64_t>(
                                      replicas_per_group));
    issued.fetch_add(1);
  }

  /// Marks `uid` complete; its latency joins the samples if `measured`.
  void complete(std::uint64_t uid, bool global, double latency_ms,
                bool measured = true) {
    {
      const std::lock_guard<std::mutex> lock(mu);
      if (uid < completed.size()) completed[uid] = 1;
      if (measured) (global ? global_ms : local_ms).push_back(latency_ms);
    }
    completions.fetch_add(1);
  }
};

namespace {

double ms_since(Clock::time_point t) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t).count();
}

std::vector<GroupId> pick_dst(Rng& rng, const Mix& mix) {
  const auto g = static_cast<std::uint64_t>(mix.groups);
  const auto a = static_cast<std::int32_t>(rng.next_below(g));
  if (!rng.next_bool(mix.global_share)) return {GroupId{a}};
  const auto b = static_cast<std::int32_t>(rng.next_below(g - 1));
  return {GroupId{a}, GroupId{b < a ? b : b + 1}};
}

Bytes make_payload(Rng& rng, std::size_t n) {
  Bytes out(n);
  for (std::size_t i = 0; i < n; i += 8) {
    std::uint64_t word = rng.next_u64();
    for (std::size_t j = i; j < n && j < i + 8; ++j, word >>= 8) {
      out[j] = static_cast<std::uint8_t>(word);
    }
  }
  return out;
}

/// Waits until every issued multicast completed at the client and every
/// destination replica a-delivered it, or until `drain_s` has passed —
/// whichever comes first. The window is fixed; it is never extended.
void drain(Backend& b, const LoopState& st, double drain_s) {
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(drain_s));
  while (Clock::now() < deadline) {
    if (st.completions.load() >= st.issued.load() &&
        b.total_deliveries() >= st.expected_deliveries.load()) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

}  // namespace

PhaseLog run_open_loop(Backend& b, const Mix& mix, Rng rng, double rate,
                       double warmup_s, double seconds, double drain_s) {
  PhaseLog log;
  log.state = std::make_shared<LoopState>();
  const std::shared_ptr<LoopState> st = log.state;
  const ProcessId client = b.client().id();
  const int replicas = b.replicas_per_group();

  // Wake the pacing thread on time: the default 50 us timer slack would
  // otherwise make every arrival late by about that much.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  workload::RateController pace(rate, rng.fork(), 0);
  const auto measure_from = static_cast<Time>(warmup_s * 1e9);
  const auto horizon = measure_from + static_cast<Time>(seconds * 1e9);
  const auto t0 = Clock::now();
  while (true) {
    const Time now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                         Clock::now() - t0)
                         .count();
    const std::uint64_t behind = pace.behind_ns();
    const Time delay = pace.next_delay(now);
    // When the generator is late, next_delay() returns 0 and books the
    // lateness; the arrival was due that much before `now`.
    const Time due_ns =
        delay > 0 ? now + delay
                  : now - static_cast<Time>(pace.behind_ns() - behind);
    if (due_ns >= horizon) break;
    std::vector<GroupId> dst = pick_dst(rng, mix);
    Bytes payload = make_payload(rng, mix.payload);
    st->issue(client, dst, replicas);

    const Clock::time_point due = t0 + std::chrono::nanoseconds(due_ns);
    std::this_thread::sleep_until(due);
    log.gen_late_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - due).count());
    const bool measured = due_ns >= measure_from;
    b.post([&b, st, due, measured, dst = std::move(dst),
            payload = std::move(payload)]() mutable {
      const bool global = dst.size() > 1;
      b.client().a_multicast(
          std::move(dst), std::move(payload),
          [st, due, global, measured](const core::MulticastMessage& m, Time) {
            st->complete(m.id.seq, global, ms_since(due), measured);
          });
    });
  }
  log.rate_behind_ns = pace.behind_ns();
  drain(b, *st, drain_s);
  return log;
}

namespace {

/// Closed-loop state: the re-issue chain runs on the client thread only.
struct ClosedLoop {
  Backend* backend = nullptr;
  std::shared_ptr<LoopState> st;
  Mix mix;
  Rng rng{1};  // client thread only
  std::atomic<bool> stop{false};
  Clock::time_point window_begin, window_end;
  std::atomic<std::uint64_t> in_window{0};

  static void issue(const std::shared_ptr<ClosedLoop>& self) {
    if (self->stop.load()) return;
    Backend& b = *self->backend;
    std::vector<GroupId> dst = pick_dst(self->rng, self->mix);
    const bool global = dst.size() > 1;
    self->st->issue(b.client().id(), dst, b.replicas_per_group());
    const Clock::time_point started = Clock::now();
    b.client().a_multicast(
        std::move(dst), make_payload(self->rng, self->mix.payload),
        [self, started, global](const core::MulticastMessage& m, Time) {
          const Clock::time_point done = Clock::now();
          self->st->complete(m.id.seq, global, ms_since(started));
          if (done >= self->window_begin && done < self->window_end) {
            self->in_window.fetch_add(1);
          }
          issue(self);
        });
  }
};

}  // namespace

PhaseLog run_closed_loop(Backend& b, const Mix& mix, Rng rng, int window,
                         double warmup_s, double seconds, double drain_s) {
  PhaseLog log;
  log.state = std::make_shared<LoopState>();
  auto loop = std::make_shared<ClosedLoop>();
  loop->backend = &b;
  loop->st = log.state;
  loop->mix = mix;
  loop->rng = rng.fork();
  const auto t0 = Clock::now();
  const auto to_dur = [](double s) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(s));
  };
  loop->window_begin = t0 + to_dur(warmup_s);
  loop->window_end = loop->window_begin + to_dur(seconds);
  b.post([loop, window] {
    for (int i = 0; i < window; ++i) ClosedLoop::issue(loop);
  });
  std::this_thread::sleep_until(loop->window_end);
  loop->stop.store(true);
  log.goodput_msgs_s = static_cast<double>(loop->in_window.load()) / seconds;
  drain(b, *log.state, drain_s);
  return log;
}

std::uint64_t issued(const PhaseLog& log) {
  return log.state->issued.load();
}

std::vector<double> latencies_ms(const PhaseLog& log, bool global) {
  const std::lock_guard<std::mutex> lock(log.state->mu);
  return global ? log.state->global_ms : log.state->local_ms;
}

Verdict judge(Backend& b, const PhaseLog& log) {
  b.stop();
  Verdict v;
  const core::DeliveryLog& dlog = b.delivery_log();
  const auto correct = b.correct_replicas();
  const LoopState& st = *log.state;
  const std::lock_guard<std::mutex> lock(log.state->mu);

  core::PropertyInput in;
  in.log = &dlog;
  in.sent = st.sent;
  in.correct_replicas = correct;
  // Safety: any violation fails the run.
  for (const auto& check :
       {core::check_integrity, core::check_prefix_order,
        core::check_acyclic_order}) {
    const core::PropertyResult r = check(in);
    if (!r) {
      v.safe = false;
      v.error = r.error;
      break;
    }
  }
  if (v.safe && b.monitor_violations() > 0) {
    v.safe = false;
    v.error = std::to_string(b.monitor_violations()) +
              " online monitor violations";
  }

  // Liveness at the end of the drain window: a multicast that did not
  // complete, or that some correct destination replica has not
  // a-delivered, counts as failed.
  const ProcessId client = b.client().id();
  std::unordered_map<ProcessId, std::unordered_set<std::uint64_t>> delivered;
  for (const auto& [g, replicas] : correct) {
    for (const ProcessId p : replicas) {
      auto& set = delivered[p];
      for (const MessageId& id : dlog.sequence(p)) {
        if (id.origin == client) set.insert(id.seq);
      }
    }
  }
  v.attempted = st.sent.size();
  for (std::size_t k = 0; k < st.sent.size(); ++k) {
    bool ok = st.completed[k] != 0;
    for (const GroupId g : st.sent[k].dst) {
      const auto it = correct.find(g);
      if (!ok || it == correct.end()) continue;
      for (const ProcessId p : it->second) {
        if (!delivered[p].contains(k)) {
          ok = false;
          break;
        }
      }
    }
    if (!ok) ++v.failed;
  }
  return v;
}

}  // namespace perfbench
