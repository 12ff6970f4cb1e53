// MPI message envelopes and operation identifiers.
#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace dyntrace::mpi {

inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

/// Collective traffic uses a reserved negative tag space so it can never
/// match an application receive; see collective_tag().
inline constexpr int kCollectiveTagBase = -1'000'000;

/// Tag for round `round` of the `op_index`-th collective on a communicator.
/// All ranks execute collectives in the same order, so op_index matches up
/// across processes.
constexpr int collective_tag(std::uint32_t op_index, int round) {
  return kCollectiveTagBase - static_cast<int>(op_index) * 64 - round;
}

struct Envelope {
  int src = 0;
  int dst = 0;
  int tag = 0;
  std::int64_t bytes = 0;
  sim::TimeNs sent_at = 0;
  std::uint64_t seq = 0;  ///< global send order, for trace correlation
};

/// Receive status (MPI_Status analogue).
struct RecvInfo {
  int src = 0;
  int tag = 0;
  std::int64_t bytes = 0;
};

enum class Op : std::uint8_t {
  kInit,
  kFinalize,
  kSend,
  kRecv,
  kIsend,
  kIrecv,
  kWait,
  kSendrecv,
  kBarrier,
  kBcast,
  kReduce,
  kAllreduce,
  kGather,
  kScatter,
  kAlltoall,
};

}  // namespace dyntrace::mpi
