// Message authentication for the simulation. A KeyStore derives pairwise
// symmetric keys from a master seed; each process gets an Authenticator bound
// to its own identity, so a Byzantine process can authenticate *as itself*
// but cannot forge MACs of other processes (the object capability is the
// enforcement mechanism — a faulty actor simply never holds another
// process's Authenticator).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>

#include "common/bytes.hpp"
#include "common/sha256.hpp"
#include "common/types.hpp"

namespace byzcast {

class HmacKey;

/// MAC construction used by a simulation. kHmac is real HMAC-SHA256 (the
/// default; tests rely on it). kFast is a keyed 64-bit mix — unforgeable
/// within the simulation (adversary actors never hold other processes'
/// Authenticators, and keys never leave the KeyStore) and about 8x cheaper
/// than a pre-keyed HMAC for a sign + verify of 100 bytes (bench_micro on a
/// 4-vCPU Xeon with SHA-NI: BM_AuthenticatorSignVerifyFast 0.066 us vs
/// BM_AuthenticatorSignVerify 0.52 us; it mixes one 8-byte word per step),
/// used by the benchmark harness where millions of wire messages flow. The
/// *simulated* CPU cost of authentication is part of the Profile constants
/// either way.
enum class MacMode { kHmac, kFast };

/// Derives pairwise keys from a master seed. Shared by all processes of one
/// system via shared_ptr — across threads on the runtime and net backends —
/// which is safe because it is immutable after construction.
class KeyStore {
 public:
  explicit KeyStore(std::uint64_t master_seed, MacMode mode = MacMode::kHmac);

  /// Symmetric key shared by the (unordered) pair {a, b}.
  [[nodiscard]] Bytes pair_key(ProcessId a, ProcessId b) const;

  [[nodiscard]] MacMode mode() const { return mode_; }
  /// 64-bit key for the fast mode.
  [[nodiscard]] std::uint64_t pair_key64(ProcessId a, ProcessId b) const;

 private:
  std::uint64_t master_seed_;
  MacMode mode_;
};

/// A per-process capability for creating and checking MACs.
///
/// Under kHmac each peer's pair key is prepared once into an HmacKey and
/// kept in a table indexed by peer id, so a sign or verify hashes only the
/// data. The table is allocated on the first real-HMAC use (fast-MAC actors
/// never allocate it) and holds at most kKeyTableCap keys whatever ids the
/// wire presents: a peer id outside [0, kKeyTableCap) gets a key prepared
/// for that one call — slower, same answer. Entries are published by
/// compare-and-swap, so verify-stage workers and signers may race on a
/// peer's first use; the loser frees its copy. sign and verify are
/// thread-safe.
class Authenticator {
 public:
  /// Pids are dense from 0; the shipped workloads use a few hundred. The
  /// table of pointers is 8 KiB.
  static constexpr std::size_t kKeyTableCap = 1024;

  Authenticator(std::shared_ptr<const KeyStore> keys, ProcessId self)
      : keys_(std::move(keys)), self_(self) {}
  ~Authenticator();
  Authenticator(const Authenticator&) = delete;
  Authenticator& operator=(const Authenticator&) = delete;

  [[nodiscard]] ProcessId self() const { return self_; }

  /// MAC over `data` for the channel self -> `to`.
  [[nodiscard]] Digest sign(ProcessId to, BytesView data) const;

  /// Checks a MAC allegedly produced by `from` for the channel from -> self.
  [[nodiscard]] bool verify(ProcessId from, BytesView data,
                            const Digest& mac) const;

 private:
  /// HMAC-SHA256 under the pair key {self, peer}.
  [[nodiscard]] Digest hmac(ProcessId peer, BytesView data) const;

  std::shared_ptr<const KeyStore> keys_;
  ProcessId self_;
  mutable std::once_flag table_init_;
  mutable std::unique_ptr<std::atomic<const HmacKey*>[]> table_;
};

}  // namespace byzcast
