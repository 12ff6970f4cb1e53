// Streaming statistics accumulator (the confsync latency experiment).
#pragma once

#include <cstdint>
#include <limits>

namespace dyntrace::sim {

/// Streaming accumulator: count / sum / min / max / mean (a running mean,
/// numerically stable).
class Accumulator {
 public:
  void add(double x);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double mean() const { return count_ ? mean_ : 0.0; }

 private:
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double mean_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace dyntrace::sim
