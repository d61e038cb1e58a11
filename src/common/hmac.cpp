#include "common/hmac.hpp"

#include <array>

namespace byzcast {

HmacKey::HmacKey(BytesView key) {
  std::array<std::uint8_t, 64> block_key{};
  if (key.size() > 64) {
    const Digest hashed = Sha256::hash(key);
    std::copy(hashed.begin(), hashed.end(), block_key.begin());
  } else {
    std::copy(key.begin(), key.end(), block_key.begin());
  }

  std::array<std::uint8_t, 64> inner_pad;
  std::array<std::uint8_t, 64> outer_pad;
  for (std::size_t i = 0; i < 64; ++i) {
    inner_pad[i] = static_cast<std::uint8_t>(block_key[i] ^ 0x36);
    outer_pad[i] = static_cast<std::uint8_t>(block_key[i] ^ 0x5c);
  }
  inner_.update(BytesView(inner_pad.data(), inner_pad.size()));
  outer_.update(BytesView(outer_pad.data(), outer_pad.size()));
}

Digest HmacKey::mac(BytesView data) const {
  Sha256 inner = inner_;
  inner.update(data);
  const Digest inner_digest = inner.finish();

  Sha256 outer = outer_;
  outer.update(BytesView(inner_digest.data(), inner_digest.size()));
  return outer.finish();
}

Digest hmac_sha256(BytesView key, BytesView data) {
  return HmacKey(key).mac(data);
}

}  // namespace byzcast
