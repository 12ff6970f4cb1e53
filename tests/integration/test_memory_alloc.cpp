// Each trace record is held once: after VT_finalize a rank's records live
// in its trace shard alone (the VT event buffer gives its capacity back),
// and the report's communication matrix renders into one string rather
// than a string per cell.  Allocations are counted by this binary's
// replacement operator new (its own test executable, so the replacement
// touches no other suite).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "analysis/report.hpp"
#include "dynprof/launch.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_malloc(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_alloc(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace dyntrace {
namespace {

TEST(MemoryAlloc, RenderingA256RankMatrixMakesFewerThan16Allocations) {
  analysis::CommMatrix matrix;
  matrix.nprocs = 256;
  matrix.bytes.resize(256 * 256);
  for (std::size_t i = 0; i < matrix.bytes.size(); ++i) {
    matrix.bytes[i] = static_cast<std::int64_t>((i * 2654435761u) % 5'000'000);
  }
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const std::string text = matrix.render();
  const std::uint64_t allocations = g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_LT(allocations, 16u);
  EXPECT_EQ(text.size() % 258, 0u);  // 256 rows, the header and its underline
}

TEST(MemoryAlloc, TracedRunReleasesEveryVtBuffer) {
  dynprof::Launch::Options options;
  options.app = &asci::sweep3d();
  options.params.nprocs = 64;
  options.params.problem_scale = 0.05;
  options.policy = dynprof::Policy::kFull;
  dynprof::Launch launch(std::move(options));
  launch.run_to_completion();
  std::uint64_t recorded = 0;
  for (int pid = 0; pid < launch.process_count(); ++pid) {
    EXPECT_EQ(launch.vt(pid).buffer_capacity(), 0u) << "rank " << pid;
    recorded += launch.vt(pid).events_recorded();
  }
  EXPECT_GT(recorded, 0u);
  EXPECT_EQ(launch.trace()->size(), recorded);
}

}  // namespace
}  // namespace dyntrace
