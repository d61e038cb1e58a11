#include "common/auth.hpp"

#include <gtest/gtest.h>

#include <set>

#include "common/bytes.hpp"

namespace byzcast {
namespace {

class AuthTest : public ::testing::Test {
 protected:
  std::shared_ptr<KeyStore> keys = std::make_shared<KeyStore>(777);
  ProcessId alice{1};
  ProcessId bob{2};
  ProcessId mallory{3};
};

TEST_F(AuthTest, SignVerifyRoundTrip) {
  Authenticator a(keys, alice);
  Authenticator b(keys, bob);
  const Bytes msg = to_bytes("transfer 100");
  const Digest mac = a.sign(bob, msg);
  EXPECT_TRUE(b.verify(alice, msg, mac));
}

TEST_F(AuthTest, TamperedPayloadRejected) {
  Authenticator a(keys, alice);
  Authenticator b(keys, bob);
  const Digest mac = a.sign(bob, to_bytes("transfer 100"));
  EXPECT_FALSE(b.verify(alice, to_bytes("transfer 900"), mac));
}

TEST_F(AuthTest, ImpersonationRejected) {
  // Mallory signs with her own keys but claims to be Alice.
  Authenticator m(keys, mallory);
  Authenticator b(keys, bob);
  const Bytes msg = to_bytes("i am alice, honest");
  const Digest mac = m.sign(bob, msg);
  EXPECT_FALSE(b.verify(alice, msg, mac));
}

TEST_F(AuthTest, MacIsChannelBound) {
  // A MAC for channel alice->bob must not verify on alice->mallory.
  Authenticator a(keys, alice);
  Authenticator m(keys, mallory);
  const Bytes msg = to_bytes("hello");
  const Digest mac = a.sign(bob, msg);
  EXPECT_FALSE(m.verify(alice, msg, mac));
}

TEST_F(AuthTest, PairKeySymmetric) {
  EXPECT_EQ(keys->pair_key(alice, bob), keys->pair_key(bob, alice));
  EXPECT_NE(keys->pair_key(alice, bob), keys->pair_key(alice, mallory));
}

TEST_F(AuthTest, DifferentMasterSeedsDifferentKeys) {
  KeyStore other(778);
  EXPECT_NE(keys->pair_key(alice, bob), other.pair_key(alice, bob));
}

TEST_F(AuthTest, ReplayedBytesStillVerify) {
  // Verifying the same bytes twice gives the same answer both times; a
  // single flipped byte fails.
  Authenticator a(keys, alice);
  Authenticator b(keys, bob);
  const Bytes msg = to_bytes("transfer 100");
  const Digest mac = a.sign(bob, msg);
  EXPECT_TRUE(b.verify(alice, msg, mac));
  EXPECT_TRUE(b.verify(alice, msg, mac));
  Bytes flipped = msg;
  flipped[5] ^= 0x01;
  EXPECT_FALSE(b.verify(alice, flipped, mac));
  EXPECT_TRUE(b.verify(alice, msg, mac));
}

TEST_F(AuthTest, KeysAndMacsArePinned) {
  // Pair keys and MACs are part of the simulated behaviour (message ids,
  // verification outcomes); a faster MAC path must produce the same bytes,
  // for a peer in the key table and one past its cap.
  Authenticator a(keys, alice);
  const Bytes msg = to_bytes("transfer 100");
  EXPECT_EQ(to_hex(keys->pair_key(alice, bob)),
            "473ce95286f7faba2223ae198efa97937d3876b3b0c0f6ad0cc80b9eadbeccd7");
  EXPECT_EQ(to_hex(a.sign(bob, msg)),
            "981f3c83c17ac698692fa288609733eabff3f66c71687cf7b061b2dc59f27b4e");
  EXPECT_EQ(to_hex(a.sign(ProcessId{5000}, msg)),
            "95b8a5c50aeeac2bab9ed53ed2c8ca98f661fe59e4026070d62f2e4327a68c48");
}

class FastMacTest : public ::testing::Test {
 protected:
  std::shared_ptr<KeyStore> keys =
      std::make_shared<KeyStore>(777, MacMode::kFast);
  ProcessId alice{1};
  ProcessId bob{2};
  ProcessId mallory{3};
};

Bytes pattern(std::size_t n) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::uint8_t>(0x30 + 7 * i);
  }
  return b;
}

TEST_F(FastMacTest, SignVerifyRoundTrip) {
  // Lengths cover an empty input, every tail length and several words.
  Authenticator a(keys, alice);
  Authenticator b(keys, bob);
  Authenticator m(keys, mallory);
  for (std::size_t n = 0; n <= 40; ++n) {
    const Bytes msg = pattern(n);
    const Digest mac = a.sign(bob, msg);
    EXPECT_TRUE(b.verify(alice, msg, mac)) << "length " << n;
    EXPECT_FALSE(m.verify(alice, msg, mac)) << "length " << n;
  }
}

TEST_F(FastMacTest, FlippedBodyOrTailByteRejected) {
  // 21 bytes: two full words, then a 5-byte tail.
  Authenticator a(keys, alice);
  Authenticator b(keys, bob);
  const Bytes msg = pattern(21);
  const Digest mac = a.sign(bob, msg);
  for (std::size_t i = 0; i < msg.size(); ++i) {
    for (const std::uint8_t bit : {0x01, 0x80}) {
      Bytes flipped = msg;
      flipped[i] ^= bit;
      EXPECT_FALSE(b.verify(alice, flipped, mac))
          << "byte " << i << " bit " << int{bit};
    }
  }
}

TEST_F(FastMacTest, TrailingZeroBytesDoNotCollide) {
  // The tail is zero-padded; the folded-in length keeps "x" and "x\0"
  // apart, across the word boundary too.
  Authenticator a(keys, alice);
  for (const std::size_t base : {0u, 3u, 8u, 13u}) {
    std::set<Digest> macs;
    Bytes msg = pattern(base);
    for (int extra = 0; extra <= 9; ++extra) {
      EXPECT_TRUE(macs.insert(a.sign(bob, msg)).second)
          << base << " bytes + " << extra << " zero bytes";
      msg.push_back(0);
    }
  }
}

}  // namespace
}  // namespace byzcast
