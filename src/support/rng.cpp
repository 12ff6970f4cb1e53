#include "support/rng.hpp"

#include <cmath>

#include "support/common.hpp"

namespace dyntrace {

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& s : s_) s = sm.next();
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::next_below(std::uint64_t bound) {
  DT_ASSERT(bound > 0, "next_below bound must be positive");
  // Debiased multiply-shift (Lemire 2019).
  unsigned __int128 m = static_cast<unsigned __int128>(next_u64()) * bound;
  auto low = static_cast<std::uint64_t>(m);
  if (low < bound) {
    const std::uint64_t threshold = (0ULL - bound) % bound;
    while (low < threshold) {
      m = static_cast<unsigned __int128>(next_u64()) * bound;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::next_double() {
  // 53 high-quality bits -> [0,1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::exponential(double mean) {
  DT_ASSERT(mean > 0.0, "exponential mean must be positive");
  double u = next_double();
  if (u <= 0.0) u = 0x1.0p-53;  // avoid log(0)
  return -mean * std::log(u);
}

double Rng::normal(double mean, double stddev) {
  // Box-Muller; we deliberately discard the second variate so the stream
  // position is a pure function of call count.
  double u1 = next_double();
  const double u2 = next_double();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * 3.14159265358979323846 * u2;
  return mean + stddev * r * std::cos(theta);
}

double Rng::normal_at_least(double mean, double stddev, double floor) {
  for (int attempt = 0; attempt < 8; ++attempt) {
    const double x = normal(mean, stddev);
    if (x >= floor) return x;
  }
  return floor;
}

Rng Rng::fork(std::uint64_t stream_id) {
  SplitMix64 sm(next_u64() ^ (0x9e3779b97f4a7c15ULL * (stream_id + 1)));
  return Rng(sm.next());
}

}  // namespace dyntrace
