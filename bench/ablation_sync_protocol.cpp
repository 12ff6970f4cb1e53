// Ablation 2 (DESIGN.md §10): why Figure 6 ends in a barrier.
//
// DPCL is asynchronous: the spin-release messages reach each node's daemon
// with differing delays.  The paper's initialization snippet therefore
// re-synchronises with a second MPI_Barrier before the main computation.
// This ablation builds both variants of the snippet by hand -- with and
// without the trailing barrier -- on a bare MPI job, and measures the skew
// between the first and last rank entering main computation.
#include <cstdio>

#include "bench_common.hpp"
#include "dpcl/application.hpp"
#include "image/snippet.hpp"
#include "mpi/world.hpp"
#include "proc/job.hpp"

namespace {

using namespace dyntrace;

/// Returns the release skew (max - min over ranks of the time the rank
/// left the init snippet), in seconds.
double release_skew(int nprocs, bool with_trailing_barrier, std::uint64_t seed) {
  sim::Engine engine;
  machine::Cluster cluster(engine, machine::ibm_power3_sp(), seed);
  mpi::World world(cluster);
  proc::ParallelJob job(cluster, "ablation");

  auto symbols = std::make_shared<image::SymbolTable>();
  symbols->add("main");
  symbols->add("MPI_Init", "libmpi");

  const auto placement = cluster.place_block(nprocs, 1);
  for (int pid = 0; pid < nprocs; ++pid) {
    proc::SimProcess& p = job.add_process(image::ProgramImage(symbols),
                                          placement[pid].node, placement[pid].cpu);
    world.add_rank(p);
  }

  // Tool-side infrastructure.
  auto tool_symbols = std::make_shared<image::SymbolTable>();
  tool_symbols->add("tool");
  const int tool_node = placement.back().node + 1;
  proc::SimProcess tool(cluster, 9999, tool_node, 0, image::ProgramImage(tool_symbols));
  std::vector<std::unique_ptr<dpcl::SuperDaemon>> supers;
  std::vector<dpcl::SuperDaemon*> super_ptrs;
  for (int node = 0; node < cluster.spec().nodes; ++node) {
    supers.push_back(std::make_unique<dpcl::SuperDaemon>(cluster, node));
    supers.back()->start();
    super_ptrs.push_back(supers.back().get());
  }
  dpcl::DpclApplication app(cluster, job, tool_node, std::move(super_ptrs));

  // The two snippet variants.
  std::vector<image::SnippetPtr> parts{
      image::snippet::call("MPI_Barrier"),
      image::snippet::callback("ready"),
      image::snippet::spin_until("dynvt_spin", 1),
  };
  if (with_trailing_barrier) parts.push_back(image::snippet::call("MPI_Barrier"));
  const auto snippet = image::snippet::seq(std::move(parts));

  std::vector<sim::TimeNs> released(nprocs, 0);
  for (int pid = 0; pid < nprocs; ++pid) {
    job.set_main(pid, [&, pid](proc::SimThread& t) -> sim::Coro<void> {
      co_await t.call_function(1, [&world, pid](proc::SimThread& t2) -> sim::Coro<void> {
        co_await world.rank(pid).init(t2);
      });
      released[pid] = engine.now();  // main computation starts here
      co_await world.rank(pid).finalize(t);
    });
  }

  engine.spawn(
      [&]() -> sim::Coro<void> {
        proc::SimThread& tt = tool.main_thread();
        co_await app.connect(tt);
        co_await app.install_probe(tt, 1, image::ProbeWhere::kExit, snippet, true, true);
        job.start();
        for (int i = 0; i < nprocs; ++i) (void)co_await app.callbacks().recv();
        co_await app.set_flag_all(tt, "dynvt_spin", 1, false);
      }(),
      "tool");
  engine.run();

  sim::TimeNs lo = released[0], hi = released[0];
  for (const auto t : released) {
    lo = std::min(lo, t);
    hi = std::max(hi, t);
  }
  return sim::to_seconds(hi - lo);
}

}  // namespace

int bench_main(int argc, char** argv) {
  using namespace dyntrace::bench;

  int nprocs = 32;
  dyntrace::CliParser parser("ablation_sync_protocol",
                             "Figure 6's trailing barrier vs naive release");
  parser.option_int("procs", "MPI processes (default 32)", &nprocs);
  if (!parser.parse(argc, argv)) return 0;

  std::puts("Ablation: rank release skew entering main computation (s)\n");
  dyntrace::TextTable table({"variant", "skew (s)"});
  double with_barrier = 0, without_barrier = 0;
  for (int rep = 0; rep < 8; ++rep) {
    with_barrier += release_skew(nprocs, true, 1000 + rep);
    without_barrier += release_skew(nprocs, false, 1000 + rep);
  }
  with_barrier /= 8;
  without_barrier /= 8;
  table.add_row({"Figure 6 (trailing MPI_Barrier)", dyntrace::TextTable::num(with_barrier, 6)});
  table.add_row({"naive (spin release only)", dyntrace::TextTable::num(without_barrier, 6)});
  std::fputs(table.render().c_str(), stdout);
  std::printf("\nnaive/barrier skew ratio: %.1fx\n", without_barrier / with_barrier);

  std::vector<ShapeCheck> checks;
  checks.push_back({"naive release leaves ranks skewed (>3x the barrier variant)",
                    without_barrier > 3 * with_barrier});
  checks.push_back({"the barrier bounds skew to sub-millisecond", with_barrier < 1e-3});
  return report_checks(checks);
}

int main(int argc, char** argv) { return dyntrace::bench::guarded_main(argc, argv, bench_main); }
