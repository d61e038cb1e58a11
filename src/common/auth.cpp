#include "common/auth.hpp"

#include <algorithm>

#include "common/hmac.hpp"
#include "common/serde.hpp"

namespace byzcast {

namespace {

std::uint64_t fnv1a(std::uint64_t hash, BytesView data) {
  for (const auto byte : data) {
    hash ^= byte;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

Digest fast_mac(std::uint64_t key64, BytesView data) {
  std::uint64_t h = fnv1a(key64 ^ 0xcbf29ce484222325ULL, data);
  // Final avalanche (splitmix64 finalizer).
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  h ^= h >> 31;
  Digest d{};
  for (int i = 0; i < 8; ++i) {
    d[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(h >> (8 * i));
  }
  return d;
}

}  // namespace

KeyStore::KeyStore(std::uint64_t master_seed, MacMode mode)
    : master_seed_(master_seed), mode_(mode) {}

std::uint64_t KeyStore::pair_key64(ProcessId a, ProcessId b) const {
  const std::int32_t lo = std::min(a.value, b.value);
  const std::int32_t hi = std::max(a.value, b.value);
  std::uint64_t h = master_seed_ ^ 0x9e3779b97f4a7c15ULL;
  h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(lo));
  h *= 0x100000001b3ULL;
  h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(hi)) << 32;
  h *= 0x100000001b3ULL;
  return h;
}

Bytes KeyStore::pair_key(ProcessId a, ProcessId b) const {
  Writer w;
  w.u64(master_seed_);
  w.i32(std::min(a.value, b.value));
  w.i32(std::max(a.value, b.value));
  const Digest d = Sha256::hash(w.data());
  return Bytes(d.begin(), d.end());
}

Authenticator::~Authenticator() {
  if (!table_) return;
  for (std::size_t i = 0; i < kKeyTableCap; ++i) {
    delete table_[i].load();
  }
}

Digest Authenticator::hmac(ProcessId peer, BytesView data) const {
  // Negative ids wrap to huge indices and take the uncached path too.
  const auto index = static_cast<std::uint32_t>(peer.value);
  if (index >= kKeyTableCap) {
    return HmacKey(keys_->pair_key(self_, peer)).mac(data);
  }
  std::call_once(table_init_, [this] {
    table_ = std::make_unique<std::atomic<const HmacKey*>[]>(kKeyTableCap);
  });
  std::atomic<const HmacKey*>& slot = table_[index];
  const HmacKey* key = slot.load();
  if (key == nullptr) {
    auto fresh = std::make_unique<const HmacKey>(keys_->pair_key(self_, peer));
    // On a lost race `key` receives the winner's entry and `fresh` is freed.
    if (slot.compare_exchange_strong(key, fresh.get())) {
      key = fresh.release();
    }
  }
  return key->mac(data);
}

Digest Authenticator::sign(ProcessId to, BytesView data) const {
  if (keys_->mode() == MacMode::kFast) {
    return fast_mac(keys_->pair_key64(self_, to), data);
  }
  return hmac(to, data);
}

bool Authenticator::verify(ProcessId from, BytesView data,
                           const Digest& mac) const {
  if (keys_->mode() == MacMode::kFast) {
    return fast_mac(keys_->pair_key64(from, self_), data) == mac;
  }
  return hmac(from, data) == mac;
}

}  // namespace byzcast
