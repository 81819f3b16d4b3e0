// 64-bit FNV-1a, the one hash behind every result block's digest() and the
// sampler digest. Golden files and the grids' *_digest fields pin those
// words, so the byte order each helper folds in is part of the format.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace irs::obs {

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// Fold `n` bytes at `data` into `h`.
inline void fnv_bytes(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
}

/// Fold the eight bytes of `v`, least significant first.
inline void fnv(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= kFnvPrime;
  }
}

/// Fold a string as its length, then its bytes.
inline void fnv_str(std::uint64_t& h, std::string_view s) {
  fnv(h, s.size());
  fnv_bytes(h, s.data(), s.size());
}

}  // namespace irs::obs
