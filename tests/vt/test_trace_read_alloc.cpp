// In-memory trace reads allocate nothing proportional to the trace: a
// shard's tail is read where it lies, never copied.  Heap bytes are counted
// by this binary's replacement operator new (its own test executable, so
// the replacement touches no other suite).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "vt/trace_store.hpp"

namespace {

std::atomic<std::uint64_t> g_allocated_bytes{0};

void* counted_malloc(std::size_t size) noexcept {
  g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_alloc(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}

}  // namespace

// Every form a standard container or algorithm uses (std::stable_sort's
// buffer comes from the nothrow form) allocates and frees through malloc,
// so sanitizers see matching pairs.
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

namespace dyntrace::vt {
namespace {

/// Heap bytes `read` allocates.
template <typename Read>
std::uint64_t bytes_allocated_by(Read&& read) {
  const std::uint64_t before = g_allocated_bytes.load(std::memory_order_relaxed);
  read();
  return g_allocated_bytes.load(std::memory_order_relaxed) - before;
}

TEST(TraceReadAlloc, InMemoryReadsAllocateNothingProportional) {
  constexpr int kRanks = 4;
  constexpr int kPerRank = 20000;
  TraceStore store;
  for (int k = 0; k < kPerRank; ++k) {
    for (std::int32_t pid = 0; pid < kRanks; ++pid) {
      Event e;
      e.time = k * 10 + pid;
      e.pid = pid;
      e.tid = k % 2;
      e.kind = EventKind::kMarker;
      e.code = k;
      store.append(e);
    }
  }
  // A rank whose threads logged out of order: its first read sorts the
  // tail in place (a one-off cost), every later read allocates nothing.
  for (int k = 0; k < kPerRank; ++k) {
    Event e;
    e.time = (k % 2 == 0) ? k * 10 : k * 10 - 15;
    e.pid = kRanks;
    e.tid = k % 2;
    store.append(e);
  }
  (void)store.digest();

  const std::uint64_t trace_bytes = store.size() * sizeof(Event);
  // Cursor objects and the merge's per-run slots: O(runs), not O(events).
  const std::uint64_t bound = 4096;

  std::uint64_t digest = 0;
  EXPECT_LT(bytes_allocated_by([&] { digest = store.digest(); }), bound)
      << "a merged read of " << trace_bytes << " trace bytes";
  EXPECT_NE(digest, 0u);
  for (std::int32_t pid = 0; pid <= kRanks; ++pid) {
    std::uint64_t events = 0;
    EXPECT_LT(bytes_allocated_by([&] {
                auto cursor = store.process_cursor(pid);
                Event e;
                while (cursor->next(e)) ++events;
              }),
              bound)
        << "process " << pid;
    EXPECT_EQ(events, static_cast<std::uint64_t>(kPerRank));
  }
}

}  // namespace
}  // namespace dyntrace::vt
