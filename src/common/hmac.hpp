// HMAC-SHA256 (RFC 2104) on top of our SHA-256. Used for pairwise message
// authentication between simulated processes.
#pragma once

#include "common/bytes.hpp"
#include "common/sha256.hpp"

namespace byzcast {

/// An HMAC-SHA256 key with its schedule done once: the SHA-256 states after
/// the ipad and opad blocks. Each mac() copies both and hashes only the data
/// and the inner digest — three compressions for a 64-byte message instead
/// of five plus the key preparation. Immutable, so safe to share across
/// threads.
class HmacKey {
 public:
  explicit HmacKey(BytesView key);

  /// HMAC-SHA256(key, data).
  [[nodiscard]] Digest mac(BytesView data) const;

 private:
  Sha256 inner_;
  Sha256 outer_;
};

/// Computes HMAC-SHA256(key, data) for a key used once.
[[nodiscard]] Digest hmac_sha256(BytesView key, BytesView data);

}  // namespace byzcast
