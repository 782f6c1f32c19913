#pragma once
// FNV-1a folding for the deterministic state digests (the scheduler's
// state_digest, the time-series and job-trace digests). Each helper folds
// one value into a running hash `h`; equal inputs in equal order give equal
// digests on every platform with 64-bit IEEE doubles.

#include <cstdint>
#include <cstring>
#include <string>

namespace netsel::util {

/// Starting value of every state digest. It is the FNV-1a 64-bit offset
/// basis with its last decimal digit dropped; recorded digests start from
/// it, so it stays.
inline constexpr std::uint64_t kDigestSeed = 1469598103934665603ULL;

/// Fold the eight bytes of `v`, least significant first.
inline std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xffu;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Fold the bit pattern of `d` (so -0.0 and 0.0 differ, and NaNs hash by
/// payload).
inline std::uint64_t fnv1a_double(std::uint64_t h, double d) {
  static_assert(sizeof(std::uint64_t) == sizeof(double));
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return fnv1a(h, bits);
}

/// Fold the bytes of `s`.
inline std::uint64_t fnv1a_str(std::uint64_t h, const std::string& s) {
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace netsel::util
