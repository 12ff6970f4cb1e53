#include "image/snippet.hpp"

#include <gtest/gtest.h>

namespace dyntrace::image {
namespace {

TEST(Snippet, BuildersProduceExpectedNodes) {
  const auto call = snippet::call("VT_begin", {7});
  ASSERT_TRUE(std::holds_alternative<CallLibOp>(call->node()));
  EXPECT_EQ(std::get<CallLibOp>(call->node()).function, "VT_begin");
  EXPECT_EQ(std::get<CallLibOp>(call->node()).args, (std::vector<std::int64_t>{7}));

  const auto flag = snippet::set_flag("dynvt_spin", 1);
  EXPECT_TRUE(std::holds_alternative<SetFlagOp>(flag->node()));

  const auto spin = snippet::spin_until("dynvt_spin", 1);
  EXPECT_TRUE(std::holds_alternative<SpinUntilOp>(spin->node()));

  const auto cb = snippet::callback("ready");
  EXPECT_TRUE(std::holds_alternative<CallbackOp>(cb->node()));
}

TEST(Snippet, CallsResolveTheirLibraryEntryWhenBuilt) {
  const auto entry_of = [](const SnippetPtr& s) { return std::get<CallLibOp>(s->node()).entry; };
  EXPECT_EQ(entry_of(snippet::call("VT_begin", {7})), LibEntry::kVtBegin);
  EXPECT_EQ(entry_of(snippet::call("VT_end", {7})), LibEntry::kVtEnd);
  EXPECT_EQ(entry_of(snippet::call("MPI_Barrier")), LibEntry::kMpiBarrier);
  EXPECT_EQ(entry_of(snippet::call("probe_fn")), LibEntry::kCustom);
  EXPECT_EQ(entry_of(snippet::call("vt_begin")), LibEntry::kCustom);  // names are exact
  for (std::size_t i = 0; i < kLibEntryCount; ++i) {
    const auto entry = static_cast<LibEntry>(i);
    EXPECT_EQ(lib_entry(to_string(entry)), entry) << to_string(entry);
  }
}

TEST(Snippet, PrimitiveCountCountsLeaves) {
  EXPECT_EQ(snippet::noop()->primitive_count(), 0);
  EXPECT_EQ(snippet::call("f")->primitive_count(), 1);
  const auto fig6 = snippet::seq({
      snippet::call("MPI_Barrier"),
      snippet::callback("init"),
      snippet::spin_until("dynvt_spin", 1),
      snippet::call("MPI_Barrier"),
  });
  EXPECT_EQ(fig6->primitive_count(), 4);
  const auto nested = snippet::seq({fig6, snippet::call("x")});
  EXPECT_EQ(nested->primitive_count(), 5);
}

TEST(Snippet, ToStringRendersStructure) {
  const auto fig6 = snippet::seq({
      snippet::call("MPI_Barrier"),
      snippet::callback("init-done"),
      snippet::spin_until("dynvt_spin", 1),
  });
  const std::string text = fig6->to_string();
  EXPECT_NE(text.find("seq("), std::string::npos);
  EXPECT_NE(text.find("call MPI_Barrier()"), std::string::npos);
  EXPECT_NE(text.find("callback 'init-done'"), std::string::npos);
  EXPECT_NE(text.find("spin_until dynvt_spin==1"), std::string::npos);
}

TEST(Snippet, CallWithArgsRenders) {
  EXPECT_EQ(snippet::call("VT_begin", {3, 4})->to_string(), "call VT_begin(3, 4)");
  EXPECT_EQ(snippet::set_flag("f", 9)->to_string(), "set f=9");
  EXPECT_EQ(snippet::noop()->to_string(), "noop");
}

}  // namespace
}  // namespace dyntrace::image
