#include "asci/app.hpp"

#include <cmath>

#include "guide/compiler.hpp"
#include "support/common.hpp"

namespace dyntrace::asci {

std::size_t AppSpec::user_function_count() const {
  std::size_t n = 0;
  for (const auto& fn : symbols->all()) {
    if (!guide::is_runtime_module(fn.module)) ++n;
  }
  return n;
}

image::FunctionId AppSpec::fid(std::string_view function) const {
  const image::FunctionInfo* info = symbols->find(function);
  DT_EXPECT(info != nullptr, name, ": unknown function '", std::string(function), "'");
  return info->id;
}

AppContext::AppContext(const AppSpec& spec, AppParams params, proc::SimProcess& process,
                       mpi::Rank* mpi, omp::OmpRuntime* omp, vt::VtLib* vt, Rng rng)
    : spec_(spec),
      params_(params),
      process_(process),
      mpi_(mpi),
      omp_(omp),
      vt_(vt),
      rng_(rng) {
  DT_EXPECT(vt != nullptr, spec.name, ": an application context needs its VT library");
}

image::FunctionId AppContext::fid(std::string_view name) const { return spec_.fid(name); }

sim::Coro<void> AppContext::call(proc::SimThread& thread, image::FunctionId fn,
                                 proc::SimThread::BodyFn body) {
  return thread.call_function(fn, std::move(body));
}

sim::Coro<void> AppContext::leaf(proc::SimThread& thread, image::FunctionId fn,
                                 sim::TimeNs work) {
  return thread.call_function(fn, work);
}

sim::TimeNs AppContext::steady_pair_overhead(image::FunctionId fn) const {
  // The VT library prices its own calls.
  return vt_->steady_pair_overhead(fn);
}

sim::Coro<void> AppContext::safe_point(proc::SimThread& thread) {
  if (params_.confsync_interval <= 0 || !vt_->initialized()) co_return;
  const std::int64_t offer = ++safe_point_offers_;
  // Power-of-two ramp before the first full interval, then the steady
  // cadence.  Deterministic in the offer index alone, so every rank fires
  // at the same offers and VT_confsync stays collective.
  bool fire;
  if (offer < params_.confsync_interval) {
    fire = (offer & (offer - 1)) == 0;
  } else {
    fire = offer % params_.confsync_interval == 0;
  }
  if (fire) co_await vt_->confsync(thread, params_.confsync_statistics);
}

sim::Coro<void> AppContext::leaf_repeat(proc::SimThread& thread, image::FunctionId fn,
                                        std::int64_t count, sim::TimeNs work_each) {
  if (count <= 0) co_return;
  co_await thread.call_function(fn, work_each);
  if (count == 1) co_return;

  const std::int64_t rest = count - 1;
  const sim::TimeNs per_pair = steady_pair_overhead(fn);
  co_await thread.compute(rest * (work_each + per_pair));

  const image::ProbeSummary& probes = process_.image().summary(fn);
  const bool instrumented = probes.static_instrumented || probes.base_trampoline[0] ||
                            probes.base_trampoline[1];
  if (instrumented) {
    vt_->note_synthetic_pairs(fn, static_cast<std::uint64_t>(rest), work_each + per_pair,
                              thread.tid());
  }
}

std::int64_t AppContext::iters(double base) const {
  const double scaled = base * params_.problem_scale;
  // llround is undefined past int64.
  DT_EXPECT(scaled < 0x1p63, spec_.name, ": problem scale ", params_.problem_scale,
            " asks for ", scaled, " iterations, more than an int64 can count");
  return std::max<std::int64_t>(1, static_cast<std::int64_t>(std::llround(scaled)));
}

std::vector<const AppSpec*> all_apps() {
  return {&smg98(), &sppm(), &sweep3d(), &umt98()};
}

const AppSpec* find_app(std::string_view name) {
  for (const AppSpec* spec : all_apps()) {
    if (spec->name == name) return spec;
  }
  if (sweep3d_hybrid().name == name) return &sweep3d_hybrid();
  return nullptr;
}

}  // namespace dyntrace::asci
