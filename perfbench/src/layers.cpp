#include "layers.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "bft/message.hpp"
#include "common/auth.hpp"
#include "common/buffer.hpp"
#include "common/serde.hpp"
#include "common/sha256.hpp"
#include "net/event_loop.hpp"
#include "net/frame.hpp"
#include "net/transport.hpp"
#include "runtime/executor.hpp"
#include "sim/scheduler.hpp"
#include "sim/wire.hpp"

namespace perfbench {

namespace {

constexpr int kBatches = 15;

/// Median over `kBatches` batches of the per-call time of `fn`, in ns.
/// `iters` is sized so that one batch takes a few milliseconds.
double per_call_ns(int iters, const std::function<void(int)>& fn) {
  std::vector<double> per_call;
  for (int b = 0; b < kBatches; ++b) {
    const auto t0 = Clock::now();
    for (int i = 0; i < iters; ++i) fn(i);
    per_call.push_back(
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
        iters);
  }
  return median(per_call);
}

/// Median of `n` single-shot latencies measured by `once` (ns each).
double median_of(int n, const std::function<double()>& once) {
  std::vector<double> v;
  v.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) v.push_back(once());
  return median(v);
}

double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

Bytes filled(std::size_t n, Rng& rng) {
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u64());
  return out;
}

bft::Request make_request(std::size_t op_size, std::uint64_t seq, Rng& rng) {
  bft::Request req;
  req.group = GroupId{0};
  req.origin = ProcessId{1000};
  req.seq = seq;
  req.op = filled(op_size, rng);
  return req;
}

/// Cross-thread post on an EventLoop: post() from this thread until the
/// task starts on the loop thread.
double loop_post_ns() {
  net::EventLoop loop;
  std::thread t([&loop] { loop.run(); });
  const double ns = median_of(2000, [&loop] {
    std::promise<Clock::time_point> ran;
    auto when = ran.get_future();
    const auto t0 = Clock::now();
    loop.post([&ran] { ran.set_value(Clock::now()); });
    return ns_between(t0, when.get());
  });
  loop.request_stop();
  t.join();
  return ns;
}

/// One 64-byte frame A -> B -> A between two Transports on their own loops
/// over localhost TCP.
double loopback_rtt_ns() {
  struct Node {
    net::EventLoop loop;
    net::Transport transport{loop, net::TransportOptions{}};
    std::thread thread;
    ~Node() {
      loop.request_stop();
      if (thread.joinable()) thread.join();
    }
  };
  Node server, client;
  const ProcessId spid{1}, cpid{100};
  std::string error;
  if (!server.transport.listen("127.0.0.1", 0, &error)) {
    std::fprintf(stderr, "perfbench: loopback listen: %s\n", error.c_str());
    std::abort();
  }
  client.transport.set_local_pids({cpid});
  client.transport.add_peer("127.0.0.1", server.transport.listen_port(),
                            {spid});
  server.transport.set_handler([&server, spid](sim::WireMessage m) {
    sim::WireMessage echo;
    echo.from = spid;
    echo.to = m.from;
    echo.payload = m.payload;
    server.transport.send(echo);
  });
  std::mutex mu;
  std::promise<Clock::time_point>* waiting = nullptr;  // guarded by mu
  client.transport.set_handler([&](sim::WireMessage) {
    const auto now = Clock::now();
    const std::lock_guard<std::mutex> lock(mu);
    if (waiting != nullptr) waiting->set_value(now);
    waiting = nullptr;
  });
  server.thread = std::thread([&server] { server.loop.run(); });
  client.thread = std::thread([&client] { client.loop.run(); });
  client.loop.post([&client] { client.transport.connect_all(); });
  const auto connected = [&client] {
    std::promise<bool> up;
    auto answer = up.get_future();
    client.loop.post(
        [&client, &up] { up.set_value(client.transport.all_peers_connected()); });
    return answer.get();
  };
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  while (!connected()) {
    if (Clock::now() > deadline) {
      std::fprintf(stderr, "perfbench: loopback connect failed\n");
      std::abort();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  sim::WireMessage ping;
  ping.from = cpid;
  ping.to = spid;
  ping.payload = Buffer(Bytes(64, std::uint8_t{0x5a}));
  const auto round_trip = [&]() -> double {
    std::promise<Clock::time_point> done;
    auto when = done.get_future();
    {
      const std::lock_guard<std::mutex> lock(mu);
      waiting = &done;
    }
    const auto t0 = Clock::now();
    client.loop.post([&client, ping] { client.transport.send(ping); });
    if (when.wait_for(std::chrono::seconds(5)) != std::future_status::ready) {
      std::fprintf(stderr, "perfbench: loopback frame lost\n");
      std::abort();
    }
    return ns_between(t0, when.get());
  };
  for (int i = 0; i < 20; ++i) (void)round_trip();  // warm both loops
  return median_of(1000, round_trip);
}

/// Executor post from one worker to another until the task starts there.
double executor_post_ns() {
  runtime::Executor ex(2);
  ex.start();
  const double ns = median_of(2000, [&ex] {
    std::promise<double> done;
    auto result = done.get_future();
    ex.post(0, [&ex, &done] {
      const auto t0 = Clock::now();
      ex.post(1, [&done, t0] { done.set_value(ns_between(t0, Clock::now())); });
    });
    return result.get();
  });
  ex.stop();
  return ns;
}

}  // namespace

void time_layers(const LayerInputs& in, Report& out) {
  Rng rng(in.seed ^ 0x6c61796572ULL);
  const std::size_t batch = std::max<std::size_t>(1, in.batch);

  // --- common: crypto on request-shaped bytes ------------------------------
  Writer rw;
  make_request(in.payload, 0, rng).encode(rw);
  const Bytes request_bytes = rw.take();
  const auto keys = std::make_shared<KeyStore>(in.seed, MacMode::kHmac);
  const Authenticator alice(keys, ProcessId{1});
  const Authenticator bob(keys, ProcessId{2});
  out.add("common.hmac_sign_ns", per_call_ns(2000, [&](int) {
            const Digest mac = alice.sign(ProcessId{2}, request_bytes);
            asm volatile("" : : "r"(mac.data()) : "memory");
          }),
          "ns", kBatches);
  constexpr int kPool = 4096;  // more than the memo's slots: every check cold
  std::vector<Bytes> pool;
  std::vector<Digest> macs;
  for (int i = 0; i < kPool; ++i) {
    pool.push_back(filled(request_bytes.size(), rng));
    macs.push_back(alice.sign(ProcessId{2}, pool.back()));
  }
  bool all_ok = true;
  out.add("common.mac_verify_cold_ns", per_call_ns(kPool, [&](int i) {
            all_ok &= bob.verify(ProcessId{1}, pool[i], macs[i]);
          }),
          "ns", kBatches);
  const Digest memo_mac = alice.sign(ProcessId{2}, request_bytes);
  out.add("common.mac_verify_memo_ns", per_call_ns(2000, [&](int) {
            all_ok &= bob.verify(ProcessId{1}, request_bytes, memo_mac);
          }),
          "ns", kBatches);
  const Bytes kib = filled(1024, rng);
  out.add("common.sha256_kib_ns", per_call_ns(1000, [&](int) {
            const Digest d = Sha256::hash(kib);
            asm volatile("" : : "r"(d.data()) : "memory");
          }),
          "ns", kBatches);

  // --- bft: codec at the run's batch size ----------------------------------
  std::vector<bft::Request> requests;
  for (int i = 0; i < 64; ++i) {
    requests.push_back(make_request(in.payload, static_cast<std::uint64_t>(i),
                                    rng));
  }
  out.add("bft.request_encode_ns", per_call_ns(4000, [&](int i) {
            Writer w;
            requests[static_cast<std::size_t>(i) % requests.size()].encode(w);
            const Bytes b = w.take();
            asm volatile("" : : "r"(b.data()) : "memory");
          }),
          "ns", kBatches);
  bft::Propose propose;
  propose.view = 1;
  propose.instance = 7;
  for (std::size_t i = 0; i < batch; ++i) {
    propose.batch.push_back(make_request(in.payload, i, rng));
  }
  const int codec_iters = static_cast<int>(std::max<std::size_t>(
      50, 20000 / batch));
  Bytes propose_bytes;
  out.add("bft.propose_encode_ns", per_call_ns(codec_iters, [&](int) {
            propose_bytes = propose.encode();
          }),
          "ns", kBatches);
  std::size_t decoded = 0;
  out.add("bft.propose_decode_ns", per_call_ns(codec_iters, [&](int) {
            Reader r(propose_bytes);
            (void)r.u8();  // type tag
            decoded += bft::Propose::decode(r).batch.size();
          }),
          "ns", kBatches);

  // --- runtime: cross-worker hand-off --------------------------------------
  out.add("runtime.post_ns", executor_post_ns(), "ns", 2000);

  // --- net: framing of a PROPOSE-sized frame, loop wake-up, loopback RTT ----
  sim::WireMessage wire;
  wire.from = ProcessId{1};
  wire.to = ProcessId{2};
  wire.payload = Buffer(Bytes(propose_bytes));
  std::vector<Buffer> chunks;
  out.add("net.frame_encode_ns", per_call_ns(4000, [&](int) {
            chunks = net::encode_wire_frame(wire);
          }),
          "ns", kBatches);
  Bytes frame;
  for (const Buffer& c : chunks) frame.insert(frame.end(), c.data(), c.data() + c.size());
  std::size_t frames = 0;
  out.add("net.frame_decode_ns", per_call_ns(4000, [&](int) {
            net::FrameDecoder dec;
            dec.feed(frame.data(), frame.size());
            const auto f = dec.next();
            if (f && net::decode_wire_body(f->body, f->flags)) ++frames;
          }),
          "ns", kBatches);
  out.add("net.loop_post_us", loop_post_ns() / 1e3, "us", 2000);
  out.add("net.loopback_rtt_us", loopback_rtt_ns() / 1e3, "us", 1000);

  // --- sim: scheduler schedule + run per event -----------------------------
  out.add("sim.event_ns", per_call_ns(1, [&](int) {
            sim::Scheduler s;
            constexpr int kEvents = 20000;
            int fired = 0;
            for (int e = 0; e < kEvents; ++e) {
              s.schedule_after(static_cast<Time>(rng.next_below(1000000)),
                               [&fired] { ++fired; });
            }
            s.run_all();
          }) / 20000.0,
          "ns", kBatches);

  // Sanity: every timed call must have done its work.
  if (!all_ok || decoded == 0 || frames == 0) {
    std::fprintf(stderr, "perfbench: a layer microtiming produced bad output\n");
    std::abort();
  }
}

}  // namespace perfbench
