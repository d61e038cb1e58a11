// The two SHA-256 block-compression functions behind Sha256. Internal to
// common/: Sha256 picks one of them once per process; this header exists so
// the tests can check the two against each other.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace byzcast::sha256_detail {

using State = std::array<std::uint32_t, 8>;
using CompressFn = void (*)(State&, const std::uint8_t*, std::size_t);

/// Compresses `blocks` consecutive 64-byte blocks at `data` into `state`.
void compress_portable(State& state, const std::uint8_t* data,
                       std::size_t blocks);

/// The same on the x86 SHA extensions. Call only when shani_supported();
/// off x86 it forwards to compress_portable.
void compress_shani(State& state, const std::uint8_t* data,
                    std::size_t blocks);

/// True when this CPU has the SHA extensions (and SSE4.1).
[[nodiscard]] bool shani_supported();

}  // namespace byzcast::sha256_detail
