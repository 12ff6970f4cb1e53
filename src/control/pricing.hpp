// Const, side-effect-free pricing of instrumentation probe sets.
//
// The overhead estimator (PR 2) always knew how to price one enter/exit
// pair of a function in the current image + library state; that arithmetic
// lived in its .cpp and was only reachable through the mutating
// OverheadEstimator::update().  The multi-tenant control service needs to
// *quote* a session's requested probe set -- what would this cost per pair,
// and what fraction of the job's runtime would it burn at an observed call
// rate -- without touching any controller state.  This header is that
// query API: every function here is const over the library and allocates
// nothing shared.
//
// Two pricing modes:
//   * pair_price()        -- the as-built state: trampolines actually
//                            installed, snippets actually present.  What
//                            the estimator charges for observed windows.
//   * probe_pair_price()  -- the hypothetical state: what one function
//                            WOULD cost per pair if it carried the
//                            standard dynprof probe pair (VT_begin at
//                            entry, VT_end at exit, one mini-trampoline
//                            each).  What admission control quotes for
//                            not-yet-installed requests.
#pragma once

#include <vector>

#include "vt/vtlib.hpp"

namespace dyntrace::control {

/// Price of one enter/exit pair in two hypothetical library states: fully
/// active, and deactivated through the filter table (early-out after the
/// lookup).  The trampoline share is common to both -- the filter cannot
/// remove trampolines, only the probe actuator can.
struct PairPrice {
  sim::TimeNs active = 0;
  sim::TimeNs residual = 0;
};

/// Price one pair of `fn` in the *as-built* image state.  Zero for an
/// untouched function (no trampolines, no static instrumentation).
PairPrice pair_price(const vt::VtLib& vt, image::FunctionId fn);

/// Price one pair of a function carrying the standard dynamically inserted
/// probe set (entry VT_begin + exit VT_end, one mini-trampoline each) in
/// the current library state -- independent of whether any probe is
/// actually installed.  Uniform across functions, because every dynprof
/// insert installs the same snippet pair.
PairPrice probe_pair_price(const vt::VtLib& vt);

/// Overhead fraction of one function: `price` nanoseconds per pair at
/// `pairs_per_sec` completed pairs per second of simulated runtime.
double overhead_fraction(sim::TimeNs price, double pairs_per_sec);

}  // namespace dyntrace::control
