#include "common/sha256.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "common/sha256_compress.hpp"

namespace byzcast {
namespace {

using sha256_detail::CompressFn;
using sha256_detail::State;

std::string hash_hex(std::string_view s) {
  return to_hex(Sha256::hash(to_bytes(s)));
}

// FIPS 180-4 / NIST test vectors.
TEST(Sha256, EmptyString) {
  EXPECT_EQ(hash_hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(hash_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(hash_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 ctx;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.update(chunk);
  EXPECT_EQ(to_hex(ctx.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const Bytes data = to_bytes("the quick brown fox jumps over the lazy dog");
  Sha256 ctx;
  for (std::size_t i = 0; i < data.size(); ++i) {
    ctx.update(BytesView(&data[i], 1));
  }
  EXPECT_EQ(ctx.finish(), Sha256::hash(data));
}

TEST(Sha256, BoundaryLengths) {
  // Exercise padding at block boundaries: 55, 56, 63, 64, 65 bytes.
  for (const std::size_t n : {55u, 56u, 63u, 64u, 65u, 119u, 120u}) {
    const Bytes data(n, 'x');
    Sha256 incremental;
    incremental.update(BytesView(data.data(), n / 2));
    incremental.update(BytesView(data.data() + n / 2, n - n / 2));
    EXPECT_EQ(incremental.finish(), Sha256::hash(data)) << "n=" << n;
  }
}

TEST(Sha256, DistinctInputsDistinctDigests) {
  EXPECT_NE(Sha256::hash(to_bytes("a")), Sha256::hash(to_bytes("b")));
}

/// SHA-256 of `data` with FIPS 180-4 padding done here and every block
/// handed to `compress` in one call.
Digest digest_with(CompressFn compress, const Bytes& data) {
  Bytes padded = data;
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const std::uint64_t bits = data.size() * 8;
  for (int i = 7; i >= 0; --i) {
    padded.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  }
  State state = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  compress(state, padded.data(), padded.size() / 64);
  Digest out;
  for (std::size_t i = 0; i < 32; ++i) {
    out[i] = static_cast<std::uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
  }
  return out;
}

/// Random inputs of 0-1100 bytes: every length up to 130 (all padding
/// cases, including 55/56/63/64/119/120), then random lengths.
std::vector<Bytes> random_inputs() {
  Rng rng(0x5a256);
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 130; ++n) lengths.push_back(n);
  for (int i = 0; i < 200; ++i) lengths.push_back(rng.next_below(1101));
  std::vector<Bytes> inputs;
  for (const std::size_t n : lengths) {
    Bytes data(n);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u64());
    inputs.push_back(std::move(data));
  }
  return inputs;
}

TEST(Sha256, PortableCompressMatchesHash) {
  for (const Bytes& data : random_inputs()) {
    EXPECT_EQ(digest_with(sha256_detail::compress_portable, data),
              Sha256::hash(data))
        << "n=" << data.size();
  }
}

TEST(Sha256, ShaNiCompressMatchesPortable) {
  if (!sha256_detail::shani_supported()) {
    GTEST_SKIP() << "CPU has no SHA extensions";
  }
  for (const Bytes& data : random_inputs()) {
    EXPECT_EQ(digest_with(sha256_detail::compress_shani, data),
              digest_with(sha256_detail::compress_portable, data))
        << "n=" << data.size();
  }
  const Bytes abc = to_bytes("abc");
  EXPECT_EQ(to_hex(digest_with(sha256_detail::compress_shani, abc)),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

}  // namespace
}  // namespace byzcast
