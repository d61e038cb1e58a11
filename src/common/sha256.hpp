// SHA-256 (FIPS 180-4). The simulation uses real digests so that message ids
// are collision-resistant and Byzantine fabrication tests are meaningful. The
// code stays in the tree rather than coming from a crypto library so that
// the library (and the stand-alone perfbench build over src/) links nothing
// beyond threads; the x86 SHA extensions, picked at run time, make it about
// as fast as a library would be.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"

namespace byzcast {

using Digest = std::array<std::uint8_t, 32>;

/// Incremental SHA-256 context.
class Sha256 {
 public:
  Sha256();

  void update(BytesView data);
  /// Finalizes and returns the digest; the context must not be reused.
  /// Copy the context first to finish from a shared prefix (HmacKey).
  [[nodiscard]] Digest finish();

  /// One-shot convenience.
  [[nodiscard]] static Digest hash(BytesView data);

 private:
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::uint64_t total_bytes_ = 0;
  std::size_t buffered_ = 0;
};

[[nodiscard]] std::string to_hex(const Digest& d);

}  // namespace byzcast
