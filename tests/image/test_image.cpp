#include "image/image.hpp"

#include <gtest/gtest.h>

#include "machine/spec.hpp"

namespace dyntrace::image {
namespace {

std::shared_ptr<const SymbolTable> make_symbols() {
  auto table = std::make_shared<SymbolTable>();
  table->add("main");
  table->add("compute");
  table->add("io");
  return table;
}

class ImageTest : public ::testing::Test {
 protected:
  std::shared_ptr<const SymbolTable> symbols_ = make_symbols();
  ProgramImage img_{symbols_};
  machine::CostModel costs_ = machine::ibm_power3_sp().costs;
};

TEST_F(ImageTest, FreshImageHasNoInstrumentation) {
  for (FunctionId fn = 0; fn < 3; ++fn) {
    EXPECT_FALSE(img_.static_instrumented(fn));
    EXPECT_FALSE(img_.probe_point(fn, ProbeWhere::kEntry).has_base_trampoline());
    EXPECT_EQ(img_.trampoline_overhead(fn, ProbeWhere::kEntry, costs_), 0);
    EXPECT_TRUE(img_.probe_point(fn, ProbeWhere::kEntry).minis.empty());
    EXPECT_TRUE(img_.probe_point(fn, ProbeWhere::kExit).minis.empty());
  }
  EXPECT_EQ(img_.patch_epoch(), 0u);
}

TEST_F(ImageTest, StaticInstrumentationMarks) {
  img_.set_static_instrumented(1, true);
  EXPECT_TRUE(img_.static_instrumented(1));
  EXPECT_FALSE(img_.static_instrumented(0));
  EXPECT_FALSE(img_.static_instrumented(2));
  img_.set_static_instrumented(1, false);
  EXPECT_FALSE(img_.static_instrumented(1));
}

TEST_F(ImageTest, InstallCreatesBaseTrampolineAndHandle) {
  const auto handle = img_.install_probe(1, ProbeWhere::kEntry, snippet::call("VT_begin"));
  EXPECT_TRUE(static_cast<bool>(handle));
  EXPECT_TRUE(img_.probe_point(1, ProbeWhere::kEntry).has_base_trampoline());
  EXPECT_FALSE(img_.probe_point(1, ProbeWhere::kExit).has_base_trampoline());
  EXPECT_EQ(img_.probe_point(1, ProbeWhere::kEntry).minis.size(), 1u);
  EXPECT_EQ(img_.summary(1).active_minis[0], 1u);
  EXPECT_EQ(img_.patch_epoch(), 1u);
}

TEST_F(ImageTest, TrampolineOverheadStructure) {
  EXPECT_EQ(img_.trampoline_overhead(1, ProbeWhere::kEntry, costs_), 0);
  img_.install_probe(1, ProbeWhere::kEntry, snippet::call("a"));
  const sim::TimeNs one = img_.trampoline_overhead(1, ProbeWhere::kEntry, costs_);
  EXPECT_EQ(one, costs_.tramp_jump + costs_.tramp_save_regs + costs_.tramp_restore_regs +
                     costs_.tramp_relocated_insn + costs_.tramp_mini_dispatch);
  // A second mini-trampoline chains: one more dispatch, same base cost.
  img_.install_probe(1, ProbeWhere::kEntry, snippet::call("b"));
  EXPECT_EQ(img_.trampoline_overhead(1, ProbeWhere::kEntry, costs_),
            one + costs_.tramp_mini_dispatch);
}

TEST_F(ImageTest, InactiveProbesKeepBaseButSkipDispatch) {
  const auto handle = img_.install_probe(1, ProbeWhere::kEntry, snippet::call("a"));
  ASSERT_TRUE(img_.set_probe_active(handle, false));
  // Base trampoline still exists (the jump is patched in)...
  EXPECT_TRUE(img_.probe_point(1, ProbeWhere::kEntry).has_base_trampoline());
  // ...but no mini dispatch, and the snippet is not returned.
  EXPECT_EQ(img_.trampoline_overhead(1, ProbeWhere::kEntry, costs_),
            costs_.tramp_jump + costs_.tramp_save_regs + costs_.tramp_restore_regs +
                costs_.tramp_relocated_insn);
  EXPECT_TRUE(img_.active_snippets(1, ProbeWhere::kEntry).empty());
  img_.done_with_snippets();
  EXPECT_EQ(img_.summary(1).active_minis[0], 0u);
}

TEST_F(ImageTest, RemoveProbeRestoresCleanState) {
  const auto handle = img_.install_probe(2, ProbeWhere::kExit, snippet::call("VT_end"));
  EXPECT_TRUE(img_.remove_probe(handle));
  EXPECT_FALSE(img_.probe_point(2, ProbeWhere::kExit).has_base_trampoline());
  EXPECT_EQ(img_.trampoline_overhead(2, ProbeWhere::kExit, costs_), 0);
  EXPECT_TRUE(img_.probe_point(2, ProbeWhere::kExit).minis.empty());
  // Double remove fails gracefully.
  EXPECT_FALSE(img_.remove_probe(handle));
}

TEST_F(ImageTest, RemoveProbesClearsOnePoint) {
  img_.install_probe(1, ProbeWhere::kEntry, snippet::call("a"));
  const auto inactive = img_.install_probe(1, ProbeWhere::kEntry, snippet::call("b"));
  img_.set_probe_active(inactive, false);
  img_.install_probe(1, ProbeWhere::kExit, snippet::call("c"));
  const auto epoch = img_.patch_epoch();
  EXPECT_EQ(img_.remove_probes(1, ProbeWhere::kEntry), 2u);  // inactive ones too
  EXPECT_FALSE(img_.probe_point(1, ProbeWhere::kEntry).has_base_trampoline());
  EXPECT_EQ(img_.trampoline_overhead(1, ProbeWhere::kEntry, costs_), 0);
  EXPECT_EQ(img_.summary(1).active_minis[0], 0u);
  EXPECT_EQ(img_.probe_point(1, ProbeWhere::kExit).minis.size(), 1u);
  EXPECT_EQ(img_.patch_epoch(), epoch + 2);
  EXPECT_FALSE(img_.remove_probe(inactive));
  EXPECT_EQ(img_.remove_probes(1, ProbeWhere::kEntry), 0u);
}

TEST_F(ImageTest, ActiveMiniCountFailsClosedAtItsWidth) {
  // The summary counts a point's active minis in 16 bits: the 65,536th
  // active install (or activation) is an error and changes nothing.
  const SnippetPtr s = snippet::noop();
  for (int i = 0; i < 65535; ++i) img_.install_probe(1, ProbeWhere::kEntry, s);
  const auto epoch = img_.patch_epoch();
  EXPECT_THROW(img_.install_probe(1, ProbeWhere::kEntry, s), Error);
  const auto parked = img_.install_probe(1, ProbeWhere::kEntry, s, /*active=*/false);
  EXPECT_THROW(img_.set_probe_active(parked, true), Error);
  EXPECT_EQ(img_.summary(1).active_minis[0], 65535u);
  EXPECT_EQ(img_.probe_point(1, ProbeWhere::kEntry).minis.size(), 65536u);
  EXPECT_EQ(img_.patch_epoch(), epoch + 1);
  EXPECT_EQ(img_.remove_probes(1, ProbeWhere::kEntry), 65536u);
}

TEST_F(ImageTest, ActiveSnippetsPreserveInstallOrder) {
  img_.install_probe(0, ProbeWhere::kEntry, snippet::call("first"));
  const auto mid = img_.install_probe(0, ProbeWhere::kEntry, snippet::call("second"));
  img_.install_probe(0, ProbeWhere::kEntry, snippet::call("third"));
  img_.set_probe_active(mid, false);
  const auto active = img_.active_snippets(0, ProbeWhere::kEntry);
  ASSERT_EQ(active.size(), 2u);
  EXPECT_EQ(active[0]->to_string(), "call first()");
  EXPECT_EQ(active[1]->to_string(), "call third()");
  img_.done_with_snippets();
}

TEST_F(ImageTest, CopySemanticsGiveIndependentImages) {
  // Each MPI process patches its own copy; OpenMP threads share one.
  img_.install_probe(1, ProbeWhere::kEntry, snippet::call("a"));
  ProgramImage copy = img_;
  copy.install_probe(2, ProbeWhere::kEntry, snippet::call("b"));
  EXPECT_EQ(copy.probe_point(1, ProbeWhere::kEntry).minis.size(), 1u);
  EXPECT_EQ(copy.probe_point(2, ProbeWhere::kEntry).minis.size(), 1u);
  EXPECT_EQ(img_.probe_point(1, ProbeWhere::kEntry).minis.size(), 1u);
  EXPECT_TRUE(img_.probe_point(2, ProbeWhere::kEntry).minis.empty());
}

TEST_F(ImageTest, SetActiveUnknownHandleReturnsFalse) {
  EXPECT_FALSE(img_.set_probe_active(ProbeHandle{9999}, true));
}

TEST_F(ImageTest, PatchEpochTracksAllMutations) {
  const auto h = img_.install_probe(0, ProbeWhere::kEntry, snippet::noop());
  const auto e1 = img_.patch_epoch();
  img_.set_probe_active(h, false);
  const auto e2 = img_.patch_epoch();
  EXPECT_GT(e2, e1);
  img_.set_probe_active(h, false);  // no-op: already inactive
  EXPECT_EQ(img_.patch_epoch(), e2);
  img_.remove_probe(h);
  EXPECT_GT(img_.patch_epoch(), e2);
}

}  // namespace
}  // namespace dyntrace::image
