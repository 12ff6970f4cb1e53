#include "sim/stats.hpp"

#include <algorithm>

namespace dyntrace::sim {

void Accumulator::add(double x) {
  ++count_;
  sum_ += x;
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
  mean_ += (x - mean_) / static_cast<double>(count_);
}

}  // namespace dyntrace::sim
