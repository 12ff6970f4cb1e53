// Non-blocking point-to-point (MPI_Isend / MPI_Irecv / MPI_Wait).
#include <gtest/gtest.h>

#include "mpi/world.hpp"
#include "proc/job.hpp"

namespace dyntrace::mpi {
namespace {

std::shared_ptr<const image::SymbolTable> make_symbols() {
  auto table = std::make_shared<image::SymbolTable>();
  table->add("main");
  return table;
}

struct Harness {
  explicit Harness(int nprocs) : cluster(engine, machine::ibm_power3_sp()), world(cluster) {
    job = std::make_unique<proc::ParallelJob>(cluster, "nb-test");
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

TEST(NonBlocking, IsendIrecvWaitRoundTrip) {
  Harness h(2);
  RecvInfo got{};
  h.run([&got](Rank& rank, proc::SimThread& t) -> sim::Coro<void> {
    if (rank.rank() == 0) {
      Rank::Request request;
      co_await rank.isend(t, 1, 42, 4096, &request);
      co_await rank.wait(t, request);
    } else {
      Rank::Request request;
      rank.irecv(0, 42, &request);
      co_await rank.wait(t, request, &got);
    }
  });
  EXPECT_EQ(got.src, 0);
  EXPECT_EQ(got.tag, 42);
  EXPECT_EQ(got.bytes, 4096);
}

TEST(NonBlocking, IsendReturnsBeforeDelivery) {
  Harness h(2);
  sim::TimeNs posted_at = 0, delivered_at = 0;
  h.run([&](Rank& rank, proc::SimThread& t) -> sim::Coro<void> {
    if (rank.rank() == 0) {
      Rank::Request request;
      const sim::TimeNs before = t.engine().now();
      co_await rank.isend(t, 1, 1, 1 << 20, &request);  // 1 MiB
      posted_at = t.engine().now() - before;
      co_await rank.wait(t, request);
    } else {
      co_await rank.recv(t, 0, 1, nullptr);
      delivered_at = t.engine().now();
    }
  });
  // Posting a 1 MiB isend is far cheaper than its wire time (~3 ms).
  EXPECT_LT(posted_at, sim::microseconds(10));
  EXPECT_GT(delivered_at, sim::milliseconds(2));
}

TEST(NonBlocking, OverlapComputeAndCommunication) {
  // The point of non-blocking MPI: a 1 MiB transfer (~3 ms wire) hidden
  // under 10 ms of computation costs ~nothing extra.
  auto elapsed = [](bool overlap) {
    Harness h(2);
    sim::TimeNs done = 0;
    h.run([&done, overlap](Rank& rank, proc::SimThread& t) -> sim::Coro<void> {
      constexpr std::int64_t kBytes = 1 << 20;
      if (rank.rank() == 0) {
        if (overlap) {
          Rank::Request request;
          co_await rank.isend(t, 1, 7, kBytes, &request);
          co_await t.compute(sim::milliseconds(10));
          co_await rank.wait(t, request);
        } else {
          co_await rank.send(t, 1, 7, kBytes);
          co_await t.compute(sim::milliseconds(10));
        }
        done = t.engine().now();
      } else {
        co_await rank.recv(t, 0, 7, nullptr);
      }
    });
    return done;
  };
  const auto blocking = elapsed(false);
  const auto overlapped = elapsed(true);
  EXPECT_LT(overlapped, blocking);
}

TEST(NonBlocking, IrecvPostedBeforeSendMatches) {
  Harness h(2);
  RecvInfo got{};
  h.run([&got](Rank& rank, proc::SimThread& t) -> sim::Coro<void> {
    if (rank.rank() == 1) {
      Rank::Request request;
      rank.irecv(kAnySource, kAnyTag, &request);  // posted early
      co_await t.compute(sim::milliseconds(5));
      co_await rank.wait(t, request, &got);
    } else {
      co_await t.compute(sim::milliseconds(20));
      co_await rank.send(t, 1, 9, 256);
    }
  });
  EXPECT_EQ(got.tag, 9);
  EXPECT_EQ(got.bytes, 256);
}

TEST(NonBlocking, WaitallCompletesEverything) {
  Harness h(4);
  bool returned = false;
  testing::internal::CaptureStderr();
  h.run([&returned](Rank& rank, proc::SimThread& t) -> sim::Coro<void> {
    if (rank.rank() == 0) {
      std::vector<Rank::Request> requests(3);
      for (int src = 1; src < 4; ++src) {
        rank.irecv(src, 5, &requests[src - 1]);
      }
      co_await rank.waitall(t, requests);
      returned = true;
    } else {
      co_await rank.send(t, 0, 5, 64);
    }
  });
  EXPECT_TRUE(returned);
  // Every request was waited on: none warns when it is destroyed.
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

TEST(NonBlocking, ARequestDroppedWithoutWaitWarnsOnStderr) {
  Harness h(2);
  testing::internal::CaptureStderr();
  h.run([](Rank& rank, proc::SimThread& t) -> sim::Coro<void> {
    Rank::Request request;
    if (rank.rank() == 0) {
      co_await rank.isend(t, 1, 7, 64, &request);
    } else {
      rank.irecv(0, 7, &request);
      co_await t.engine().sleep(sim::milliseconds(1));  // lets the message land
    }
  });  // both requests go out of scope unwaited
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("mpi: request destroyed without MPI_Wait (isend, "), std::string::npos)
      << err;
  EXPECT_NE(err.find("mpi: request destroyed without MPI_Wait (irecv, completed)\n"),
            std::string::npos)
      << err;
}

TEST(NonBlocking, WaitOnInvalidRequestThrows) {
  Harness h(1);
  h.job->set_main(0, [&h](proc::SimThread& t) -> sim::Coro<void> {
    Rank::Request request;  // never initialised
    co_await h.world.rank(0).wait(t, request);
  });
  h.job->start();
  EXPECT_THROW(h.engine.run(), Error);
}

TEST(NonBlocking, InterposeSeesIsendAndWait) {
  struct Recorder final : MpiInterpose {
    std::vector<Op> ops;
    sim::Coro<void> on_begin(proc::SimThread&, const CallInfo& c) override {
      ops.push_back(c.op);
      co_return;
    }
    sim::Coro<void> on_end(proc::SimThread&, const CallInfo&) override { co_return; }
  };
  Harness h(2);
  Recorder recorder;
  h.world.rank(0).set_interpose(&recorder);
  h.run([](Rank& rank, proc::SimThread& t) -> sim::Coro<void> {
    if (rank.rank() == 0) {
      Rank::Request request;
      co_await rank.isend(t, 1, 2, 128, &request);
      co_await rank.wait(t, request);
    } else {
      co_await rank.recv(t, 0, 2, nullptr);
    }
  });
  ASSERT_EQ(recorder.ops.size(), 2u);
  EXPECT_EQ(recorder.ops[0], Op::kIsend);
  EXPECT_EQ(recorder.ops[1], Op::kWait);
}

}  // namespace
}  // namespace dyntrace::mpi
