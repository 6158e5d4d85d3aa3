#pragma once

/// \file hash.hpp
/// The library's one byte hash. Its values persist across processes (store
/// checksums, wire trailers, the service's problem key, which names its
/// disk-cache files), so the function must never change.

#include <cstddef>
#include <cstdint>

namespace hymv {

/// FNV-1a offset basis: the hash of no bytes.
inline constexpr std::uint64_t kFnv1aBasis = 1469598103934665603ULL;

/// 64-bit FNV-1a over `n` bytes at `data`, continuing from `hash`, so the
/// hash of a ‖ b is fnv1a(b, nb, fnv1a(a, na)).
[[nodiscard]] inline std::uint64_t fnv1a(const void* data, std::size_t n,
                                         std::uint64_t hash = kFnv1aBasis) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    hash ^= static_cast<std::uint64_t>(bytes[i]);
    hash *= 1099511628211ULL;
  }
  return hash;
}

}  // namespace hymv
