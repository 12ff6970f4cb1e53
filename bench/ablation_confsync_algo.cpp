// Ablation 4 (DESIGN.md §10): tree-structured VT_confsync distribution vs a
// linear central coordinator.
//
// VT_confsync distributes configuration updates with a binomial broadcast
// and re-synchronises with a dissemination barrier (both ~log2 P rounds).
// The obvious simpler design -- rank 0 sends to every rank and collects
// acks -- is linear in P.  This ablation measures both on the IBM profile
// and shows why the tree is what keeps Figure 8(a) flat to 512 processes.
#include <cstdio>

#include "bench_common.hpp"
#include "mpi/world.hpp"
#include "proc/job.hpp"

namespace {

using namespace dyntrace;

/// Raw distribution cost, isolated from VT library software costs.
/// tree=true:  binomial bcast + dissemination barrier (what VT_confsync uses).
/// tree=false: rank 0 sends to every rank individually and collects acks.
double distribution_seconds(int nprocs, bool tree) {
  sim::Engine engine;
  machine::Cluster cluster(engine, machine::ibm_power3_sp());
  mpi::World world(cluster);
  proc::ParallelJob job(cluster, "confsync-algo");
  auto symbols = std::make_shared<image::SymbolTable>();
  symbols->add("main");
  const auto placement = cluster.place_block(nprocs, 1);
  for (int pid = 0; pid < nprocs; ++pid) {
    proc::SimProcess& p = job.add_process(image::ProgramImage(symbols),
                                          placement[pid].node, placement[pid].cpu);
    world.add_rank(p);
  }
  sim::TimeNs begin = 0, end = 0;
  constexpr int kTag = 77, kAckTag = 78;
  for (int pid = 0; pid < nprocs; ++pid) {
    job.set_main(pid, [&, pid](proc::SimThread& t) -> sim::Coro<void> {
      mpi::Rank& rank = world.rank(pid);
      co_await rank.init(t);
      co_await rank.barrier(t);
      if (pid == 0) begin = engine.now();
      if (tree) {
        co_await rank.bcast(t, 0, 64);
        co_await rank.barrier(t);
      } else if (pid == 0) {
        for (int dst = 1; dst < nprocs; ++dst) co_await rank.send(t, dst, kTag, 64);
        for (int src = 1; src < nprocs; ++src) {
          co_await rank.recv(t, mpi::kAnySource, kAckTag, nullptr);
        }
      } else {
        co_await rank.recv(t, 0, kTag, nullptr);
        co_await rank.send(t, 0, kAckTag, 8);
      }
      if (pid == 0) end = engine.now();
      co_await rank.finalize(t);
    });
  }
  job.start();
  engine.run();
  return sim::to_seconds(end - begin);
}

}  // namespace

int bench_main(int argc, char** argv) {
  using namespace dyntrace::bench;

  dyntrace::CliParser parser("ablation_confsync_algo",
                             "tree vs linear configuration distribution");
  if (!parser.parse(argc, argv)) return 0;

  std::puts("Ablation: VT_confsync distribution, tree vs linear (s)\n");
  dyntrace::TextTable table({"Processors", "tree (bcast+barrier)", "linear (send-all+acks)"});

  std::vector<int> procs{8, 32, 128, 512};
  std::vector<double> tree, linear;
  for (const int p : procs) {
    tree.push_back(distribution_seconds(p, true));
    linear.push_back(distribution_seconds(p, false));
    table.add_row({std::to_string(p), dyntrace::TextTable::num(tree.back(), 6),
                   dyntrace::TextTable::num(linear.back(), 6)});
    std::fprintf(stderr, ".");
    std::fflush(stderr);
  }
  std::fprintf(stderr, "\n");
  std::fputs(table.render().c_str(), stdout);
  std::printf("\nlinear/tree at 512 procs: %.1fx\n", linear.back() / tree.back());

  std::vector<ShapeCheck> checks;
  checks.push_back({"tree distribution is a negligible share of the 0.04 s budget at 512",
                    tree.back() < 0.004});
  checks.push_back({"linear is much slower at 512 (> 3x tree)",
                    linear.back() > 3 * tree.back()});
  checks.push_back({"linear grows ~linearly (512/8 time ratio > 16x)",
                    linear.back() > 16 * linear.front()});
  return report_checks(checks);
}

int main(int argc, char** argv) { return dyntrace::bench::guarded_main(argc, argv, bench_main); }
