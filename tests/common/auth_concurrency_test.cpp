// Thread-safety of the Authenticator's per-peer HMAC key table (stage
// pipeline: verify-stage workers check one replica's MACs concurrently while
// exec shards sign its replies). Run under TSan in CI. Every test races the
// *first* use of a key — the moment an entry is prepared and published — and
// compares every answer with a single-threaded hmac_sha256 under the pair
// key, including peers past the table cap, which never enter the table.
#include "common/auth.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.hpp"
#include "common/hmac.hpp"

namespace byzcast {
namespace {

constexpr int kThreads = 8;

class AuthConcurrencyTest : public ::testing::Test {
 protected:
  std::shared_ptr<KeyStore> keys = std::make_shared<KeyStore>(20260807);
  ProcessId alice{1};
  ProcessId bob{2};

  /// Single-threaded reference MAC for the channel {a, b}.
  [[nodiscard]] Digest reference(ProcessId a, ProcessId b,
                                 const Bytes& data) const {
    return hmac_sha256(keys->pair_key(a, b), data);
  }

  /// Runs `body(thread_index)` on kThreads threads released together.
  template <typename Body>
  static void race(Body body) {
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        start.arrive_and_wait();
        body(t);
      });
    }
    for (auto& th : threads) th.join();
  }
};

/// Peer ids that cover the table and run past its cap, plus ids a
/// Byzantine sender or a corrupt frame could present.
std::vector<ProcessId> many_peers() {
  std::vector<ProcessId> peers;
  const auto cap = static_cast<std::int32_t>(Authenticator::kKeyTableCap);
  for (std::int32_t id = 0; id < cap + 64; ++id) {
    peers.push_back(ProcessId{id});
  }
  for (const std::int32_t id : {900'000, 1 << 30, -1, -77}) {
    peers.push_back(ProcessId{id});
  }
  return peers;
}

TEST_F(AuthConcurrencyTest, RacingVerifiersSameSlot) {
  // All threads make their first verify from alice, and their first sign to
  // her, at once: any of them may find the slot empty and prepare the key,
  // one copy is published, and every answer is the reference.
  Authenticator b(keys, bob);
  const Bytes good = to_bytes("payment: 100 to bob");
  const Digest mac = reference(alice, bob, good);
  Bytes forged = good;
  forged[0] ^= 0x01;

  std::atomic<int> wrong{0};
  race([&](int t) {
    for (int i = 0; i < 200; ++i) {
      if ((i + t) % 3 == 0) {
        if (b.verify(alice, forged, mac)) wrong.fetch_add(1);
      } else if ((i + t) % 3 == 1) {
        if (b.sign(alice, good) != mac) wrong.fetch_add(1);
      } else {
        if (!b.verify(alice, good, mac)) wrong.fetch_add(1);
      }
    }
  });
  EXPECT_EQ(wrong.load(), 0);
}

TEST_F(AuthConcurrencyTest, RacingVerifiersAcrossSlots) {
  // Every thread walks all peers from its own offset, so first uses race
  // across the whole table and past its cap.
  Authenticator b(keys, bob);
  const std::vector<ProcessId> peers = many_peers();
  std::vector<Bytes> payloads;
  std::vector<Digest> macs;
  for (const ProcessId p : peers) {
    payloads.push_back(to_bytes("req from " + std::to_string(p.value)));
    macs.push_back(reference(p, bob, payloads.back()));
  }

  std::atomic<int> wrong{0};
  race([&](int t) {
    const std::size_t n = peers.size();
    for (std::size_t k = 0; k < 2 * n; ++k) {
      const std::size_t i = (k + static_cast<std::size_t>(t) * n / kThreads) %
                            n;
      if (!b.verify(peers[i], payloads[i], macs[i])) wrong.fetch_add(1);
      // The MAC of the neighbouring peer must not verify for this one.
      if (b.verify(peers[i], payloads[i], macs[(i + 1) % n])) {
        wrong.fetch_add(1);
      }
    }
  });
  EXPECT_EQ(wrong.load(), 0);
}

TEST_F(AuthConcurrencyTest, RacingSignersAcrossPeers) {
  // sign() is thread-safe (exec shards sign replies while the order stage
  // signs protocol traffic): racing first signs to many peers produce the
  // MACs a serial HMAC would.
  Authenticator a(keys, alice);
  const std::vector<ProcessId> peers = many_peers();
  const Bytes msg = to_bytes("stable bytes");
  std::vector<Digest> expected;
  for (const ProcessId p : peers) {
    expected.push_back(reference(alice, p, msg));
  }

  std::atomic<int> wrong{0};
  race([&](int t) {
    const std::size_t n = peers.size();
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t i = (k + static_cast<std::size_t>(t) * n / kThreads) %
                            n;
      if (a.sign(peers[i], msg) != expected[i]) wrong.fetch_add(1);
    }
  });
  EXPECT_EQ(wrong.load(), 0);
}

}  // namespace
}  // namespace byzcast
