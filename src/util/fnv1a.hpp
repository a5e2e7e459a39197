/// \file fnv1a.hpp
/// FNV-1a 64-bit, the one content hash behind session keys, worker-pool
/// routing, plan content hashes and hier block signatures. Words are
/// folded byte by byte, least significant first, so every hash is the same
/// on any host.

#pragma once

#include <bit>
#include <cstdint>
#include <string_view>

namespace spsta::util {

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/// Folds \p bytes into \p h.
[[nodiscard]] constexpr std::uint64_t fnv1a(std::string_view bytes,
                                            std::uint64_t h = kFnvOffset) noexcept {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  return h;
}

/// Folds the eight bytes of \p word into \p h, little-endian.
[[nodiscard]] constexpr std::uint64_t fnv1a_word(std::uint64_t word,
                                                 std::uint64_t h) noexcept {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xffu;
    h *= kFnvPrime;
  }
  return h;
}

/// Folds the bit pattern of \p v, not its value: -0.0 and 0.0 hash apart.
[[nodiscard]] constexpr std::uint64_t fnv1a_double(double v, std::uint64_t h) noexcept {
  return fnv1a_word(std::bit_cast<std::uint64_t>(v), h);
}

}  // namespace spsta::util
