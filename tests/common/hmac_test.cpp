#include "common/hmac.hpp"

#include <gtest/gtest.h>

#include "common/bytes.hpp"
#include "common/rng.hpp"

namespace byzcast {
namespace {

// RFC 4231 test vectors for HMAC-SHA-256.
TEST(Hmac, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  const Bytes data = to_bytes("Hi There");
  EXPECT_EQ(to_hex(hmac_sha256(key, data)),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  const Bytes key = to_bytes("Jefe");
  const Bytes data = to_bytes("what do ya want for nothing?");
  EXPECT_EQ(to_hex(hmac_sha256(key, data)),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes data(50, 0xdd);
  EXPECT_EQ(to_hex(hmac_sha256(key, data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, Rfc4231Case4) {
  Bytes key;
  for (std::uint8_t b = 0x01; b <= 0x19; ++b) key.push_back(b);  // 25 bytes
  const Bytes data(50, 0xcd);
  EXPECT_EQ(to_hex(hmac_sha256(key, data)),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b");
}

TEST(Hmac, LongKeyIsHashedFirst) {
  // RFC 4231 case 6: 131-byte key.
  const Bytes key(131, 0xaa);
  const Bytes data = to_bytes("Test Using Larger Than Block-Size Key - Hash Key First");
  EXPECT_EQ(to_hex(hmac_sha256(key, data)),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, Rfc4231Case7) {
  // 131-byte key and data longer than one block.
  const Bytes key(131, 0xaa);
  const Bytes data = to_bytes(
      "This is a test using a larger than block-size key and a larger than "
      "block-size data. The key needs to be hashed before being used by the "
      "HMAC algorithm.");
  EXPECT_EQ(to_hex(hmac_sha256(key, data)),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2");
}

TEST(Hmac, PreKeyedMacMatchesOneShot) {
  // Keys shorter than, equal to and longer than the 64-byte block; one key
  // reused across messages of several lengths.
  Rng rng(4231);
  for (const std::size_t key_len : {0u, 1u, 25u, 32u, 63u, 64u, 65u, 101u,
                                    131u}) {
    Bytes key(key_len);
    for (auto& b : key) b = static_cast<std::uint8_t>(rng.next_u64());
    const HmacKey pre_keyed(key);
    for (const std::size_t n : {0u, 1u, 55u, 64u, 100u, 300u}) {
      Bytes data(n);
      for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u64());
      EXPECT_EQ(pre_keyed.mac(data), hmac_sha256(key, data))
          << "key=" << key_len << " n=" << n;
    }
  }
}

TEST(Hmac, DifferentKeysDifferentMacs) {
  const Bytes data = to_bytes("payload");
  EXPECT_NE(hmac_sha256(to_bytes("k1"), data),
            hmac_sha256(to_bytes("k2"), data));
}

TEST(Hmac, DifferentDataDifferentMacs) {
  const Bytes key = to_bytes("key");
  EXPECT_NE(hmac_sha256(key, to_bytes("m1")),
            hmac_sha256(key, to_bytes("m2")));
}

}  // namespace
}  // namespace byzcast
