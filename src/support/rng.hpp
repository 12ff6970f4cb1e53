// Deterministic pseudo-random number generation.
//
// The simulation must be bit-reproducible across platforms and standard
// library implementations, so we avoid <random> distributions (their output
// is implementation-defined) and implement xoshiro256** plus the handful of
// distributions the workload models need.
#pragma once

#include <cstdint>
#include <vector>

namespace dyntrace {

/// SplitMix64: used to seed xoshiro and for cheap hash-like mixing.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256**: fast, high-quality, reproducible 64-bit generator.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eed5eed5eed5eedULL);

  std::uint64_t next_u64();

  /// Uniform in [0, bound).  bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform double in [0, 1).
  double next_double();

  /// Exponential with the given mean (> 0).
  double exponential(double mean);

  /// Normal via Box-Muller (deterministic, no cached spare).
  double normal(double mean, double stddev);

  /// Normal truncated below at `floor` (resamples up to a bounded number of
  /// times, then clamps); used for per-call work jitter which must stay
  /// positive.
  double normal_at_least(double mean, double stddev, double floor);

  /// Derive an independent child stream (e.g. one per simulated process).
  Rng fork(std::uint64_t stream_id);

 private:
  std::uint64_t s_[4];
};

/// Fisher-Yates shuffle using the deterministic Rng.
template <typename T>
void shuffle(std::vector<T>& items, Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(rng.next_below(i));
    using std::swap;
    swap(items[i - 1], items[j]);
  }
}

}  // namespace dyntrace
