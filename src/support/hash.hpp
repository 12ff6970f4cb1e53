// The two 64-bit hash steps behind the simulator's digests and its
// stateless draws.
//
// Changing either step changes every pinned digest (EXPERIMENTS.md), so
// both are written once, here.
#pragma once

#include <cstdint>

#include "support/rng.hpp"

namespace dyntrace {

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;  ///< FNV-1a offset basis
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/// Fold the eight bytes of `v` into an FNV-1a state, low byte first.
constexpr std::uint64_t fnv1a_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= kFnvPrime;
  }
  return h;
}

/// Fold one value into a hash state: one SplitMix64 finaliser step.
constexpr std::uint64_t splitmix_fold(std::uint64_t h, std::uint64_t v) {
  return SplitMix64(h ^ v).next();
}

}  // namespace dyntrace
