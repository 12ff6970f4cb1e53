#include "mpi/world.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "proc/job.hpp"

namespace dyntrace::mpi {
namespace {

std::shared_ptr<const image::SymbolTable> make_symbols() {
  auto table = std::make_shared<image::SymbolTable>();
  table->add("main");
  return table;
}

/// A little harness: P ranks, each running `body(rank_ctx, thread)`.
struct MpiHarness {
  explicit MpiHarness(int nprocs) : cluster(engine, machine::ibm_power3_sp()), world(cluster) {
    job = std::make_unique<proc::ParallelJob>(cluster, "mpi-test");
    const auto placement = cluster.place_block(nprocs, 1);
    for (int pid = 0; pid < nprocs; ++pid) {
      proc::SimProcess& p = job->add_process(image::ProgramImage(make_symbols()),
                                             placement[pid].node, placement[pid].cpu);
      world.add_rank(p);
    }
  }

  using Body = std::function<sim::Coro<void>(Rank&, proc::SimThread&)>;

  void run(Body body) {
    for (int pid = 0; pid < world.size(); ++pid) {
      job->set_main(pid, [this, pid, body](proc::SimThread& t) -> sim::Coro<void> {
        Rank& rank = world.rank(pid);
        co_await rank.init(t);
        co_await body(rank, t);
        co_await rank.finalize(t);
      });
    }
    job->start();
    engine.run();
  }

  sim::Engine engine;
  machine::Cluster cluster;
  World world;
  std::unique_ptr<proc::ParallelJob> job;
};

TEST(Mpi, InitBarriersAllRanks) {
  MpiHarness h(4);
  h.run([](Rank&, proc::SimThread&) -> sim::Coro<void> { co_return; });
  EXPECT_EQ(h.world.initialized_count(), 0);  // finalize ran
  EXPECT_TRUE(h.job->all_done().fired());
}

TEST(Mpi, SendRecvDeliversInOrder) {
  MpiHarness h(2);
  std::vector<int> tags_received;
  h.run([&tags_received](Rank& rank, proc::SimThread& t) -> sim::Coro<void> {
    if (rank.rank() == 0) {
      co_await rank.send(t, 1, 10, 1024);
      co_await rank.send(t, 1, 20, 2048);
    } else {
      RecvInfo info;
      co_await rank.recv(t, 0, kAnyTag, &info);
      tags_received.push_back(info.tag);
      EXPECT_EQ(info.bytes, 1024);
      co_await rank.recv(t, 0, kAnyTag, &info);
      tags_received.push_back(info.tag);
      EXPECT_EQ(info.bytes, 2048);
    }
  });
  EXPECT_EQ(tags_received, (std::vector<int>{10, 20}));
}

TEST(Mpi, TagAndSourceMatching) {
  MpiHarness h(3);
  std::vector<int> order;
  h.run([&order](Rank& rank, proc::SimThread& t) -> sim::Coro<void> {
    if (rank.rank() == 0) {
      // Receive tag 7 specifically first, then anything.
      RecvInfo info;
      co_await rank.recv(t, kAnySource, 7, &info);
      order.push_back(info.src);
      co_await rank.recv(t, kAnySource, kAnyTag, &info);
      order.push_back(info.src);
    } else if (rank.rank() == 1) {
      co_await rank.send(t, 0, 5, 64);  // wrong tag: must not match first recv
    } else {
      co_await t.compute(sim::milliseconds(2));  // arrive later
      co_await rank.send(t, 0, 7, 64);
    }
  });
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(Mpi, RecvBlocksUntilMessage) {
  MpiHarness h(2);
  sim::TimeNs recv_done = 0;
  h.run([&recv_done](Rank& rank, proc::SimThread& t) -> sim::Coro<void> {
    if (rank.rank() == 0) {
      co_await t.compute(sim::milliseconds(50));
      co_await rank.send(t, 1, 1, 16);
    } else {
      co_await rank.recv(t, 0, 1, nullptr);
      recv_done = t.engine().now();
    }
  });
  EXPECT_GT(recv_done, sim::milliseconds(50));
}

class BarrierSizes : public ::testing::TestWithParam<int> {};

TEST_P(BarrierSizes, BarrierSynchronisesEveryone) {
  const int p = GetParam();
  MpiHarness h(p);
  std::vector<sim::TimeNs> after(p, 0);
  h.run([&after](Rank& rank, proc::SimThread& t) -> sim::Coro<void> {
    // Staggered arrivals.
    co_await t.compute(sim::milliseconds(rank.rank() * 3));
    co_await rank.barrier(t);
    after[rank.rank()] = t.engine().now();
  });
  const sim::TimeNs latest_arrival = sim::milliseconds((p - 1) * 3);
  for (int r = 0; r < p; ++r) {
    EXPECT_GE(after[r], latest_arrival) << "rank " << r << " left the barrier early";
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BarrierSizes, ::testing::Values(2, 3, 4, 8, 16, 33));

TEST(Mpi, BarrierLatencyScalesLogarithmically) {
  // Dissemination barrier: cost ~ ceil(log2 P) rounds.  Compare two sizes
  // that are both inter-node dominated (64 ranks = 8 nodes, 512 = 64
  // nodes) so topology does not skew the comparison: 9 rounds vs 6 rounds
  // is ~1.5x, far below the 8x of a linear barrier.
  auto barrier_time = [](int p) {
    MpiHarness h(p);
    sim::TimeNs before = 0, after = 0;
    h.run([&](Rank& rank, proc::SimThread& t) -> sim::Coro<void> {
      if (rank.rank() == 0) before = t.engine().now();
      co_await rank.barrier(t);
      if (rank.rank() == 0) after = t.engine().now();
    });
    return after - before;
  };
  const auto t64 = barrier_time(64);
  const auto t512 = barrier_time(512);
  EXPECT_GT(t512, t64);
  EXPECT_LT(t512, t64 * 4);
}

class CollectiveSizes : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveSizes, BcastReduceAllreduceGatherComplete) {
  const int p = GetParam();
  MpiHarness h(p);
  int completions = 0;
  h.run([&completions](Rank& rank, proc::SimThread& t) -> sim::Coro<void> {
    co_await rank.bcast(t, 0, 4096);
    co_await rank.reduce(t, 0, 4096);
    co_await rank.allreduce(t, 512);
    co_await rank.gather(t, 0, 128);
    co_await rank.alltoall(t, 64);
    ++completions;
  });
  EXPECT_EQ(completions, p);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CollectiveSizes, ::testing::Values(1, 2, 3, 5, 8, 17, 64));

TEST(Mpi, BcastFromNonZeroRoot) {
  MpiHarness h(5);
  int done = 0;
  h.run([&done](Rank& rank, proc::SimThread& t) -> sim::Coro<void> {
    co_await rank.bcast(t, 3, 1024);
    co_await rank.reduce(t, 2, 1024);
    ++done;
  });
  EXPECT_EQ(done, 5);
}

TEST(Mpi, ConsecutiveCollectivesDoNotCrossTalk) {
  MpiHarness h(4);
  int done = 0;
  h.run([&done](Rank& rank, proc::SimThread& t) -> sim::Coro<void> {
    for (int i = 0; i < 10; ++i) {
      co_await rank.barrier(t);
      co_await rank.allreduce(t, 8);
    }
    ++done;
  });
  EXPECT_EQ(done, 4);
}

TEST(Mpi, InterposeSeesBeginAndEnd) {
  struct Recorder final : MpiInterpose {
    std::vector<std::pair<Op, bool>> calls;  // (op, is_begin)
    sim::Coro<void> on_begin(proc::SimThread&, const CallInfo& c) override {
      calls.emplace_back(c.op, true);
      co_return;
    }
    sim::Coro<void> on_end(proc::SimThread&, const CallInfo& c) override {
      calls.emplace_back(c.op, false);
      co_return;
    }
  };
  MpiHarness h(2);
  Recorder recorder;
  h.world.rank(0).set_interpose(&recorder);
  h.run([](Rank& rank, proc::SimThread& t) -> sim::Coro<void> {
    if (rank.rank() == 0) {
      co_await rank.send(t, 1, 1, 256);
      co_await rank.barrier(t);
    } else {
      co_await rank.recv(t, 0, 1, nullptr);
      co_await rank.barrier(t);
    }
  });
  ASSERT_EQ(recorder.calls.size(), 4u);
  EXPECT_EQ(recorder.calls[0], std::make_pair(Op::kSend, true));
  EXPECT_EQ(recorder.calls[1], std::make_pair(Op::kSend, false));
  EXPECT_EQ(recorder.calls[2], std::make_pair(Op::kBarrier, true));
  EXPECT_EQ(recorder.calls[3], std::make_pair(Op::kBarrier, false));
}


TEST(Mpi, ScatterDistributesFromRoot) {
  MpiHarness h(5);
  int received = 0;
  h.run([&received](Rank& rank, proc::SimThread& t) -> sim::Coro<void> {
    co_await rank.scatter(t, 2, 1024);
    ++received;
  });
  EXPECT_EQ(received, 5);
}

TEST(Mpi, SendrecvRingExchangeCompletes) {
  // An unstaggered ring of sendrecv must not deadlock.
  MpiHarness h(6);
  std::vector<int> sources(6, -1);
  h.run([&sources](Rank& rank, proc::SimThread& t) -> sim::Coro<void> {
    const int p = rank.size();
    const int right = (rank.rank() + 1) % p;
    const int left = (rank.rank() - 1 + p) % p;
    RecvInfo info;
    co_await rank.sendrecv(t, right, 11, 2048, left, 11, &info);
    sources[rank.rank()] = info.src;
    EXPECT_EQ(info.bytes, 2048);
  });
  for (int r = 0; r < 6; ++r) EXPECT_EQ(sources[r], (r - 1 + 6) % 6);
}

TEST(Mpi, ScatterOnSingleRankIsNoop) {
  MpiHarness h(1);
  bool done = false;
  h.run([&done](Rank& rank, proc::SimThread& t) -> sim::Coro<void> {
    co_await rank.scatter(t, 0, 4096);
    done = true;
  });
  EXPECT_TRUE(done);
}

TEST(Mpi, WtimeTracksEngine) {
  MpiHarness h(1);
  double measured = -1;
  h.run([&measured](Rank& rank, proc::SimThread& t) -> sim::Coro<void> {
    const double t0 = rank.wtime();
    co_await t.compute(sim::seconds(2.5));
    measured = rank.wtime() - t0;
  });
  EXPECT_DOUBLE_EQ(measured, 2.5);
}

TEST(Mpi, DoubleInitThrows) {
  MpiHarness h(1);
  h.job->set_main(0, [&h](proc::SimThread& t) -> sim::Coro<void> {
    Rank& rank = h.world.rank(0);
    co_await rank.init(t);
    co_await rank.init(t);
  });
  h.job->start();
  EXPECT_THROW(h.engine.run(), Error);
}

}  // namespace
}  // namespace dyntrace::mpi
