// Coro<T>: the coroutine type simulated processes are written in.
//
// A Coro is lazy: creating one does not run any code.  It starts when it is
// co_await-ed by another coroutine (or spawned as a root process on the
// Engine).  On completion it resumes its awaiter via symmetric transfer, so
// arbitrarily deep call chains of simulated procedures cost no host stack.
//
// Exceptions thrown inside a Coro propagate to the awaiter, exactly like a
// normal function call; the Engine turns exceptions that escape a root
// process into a simulation failure.
//
// Frames are recycled: a simulated call creates and destroys several
// frames, so each thread keeps a free list per 64-byte size class and
// ~Engine trims the lists back to the heap.  Under AddressSanitizer a
// pooled frame is poisoned, so a use after destroy is still reported.
#pragma once

#include <coroutine>
#include <cstddef>
#include <exception>
#include <new>
#include <optional>
#include <utility>

#include "support/common.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define DYNTRACE_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DYNTRACE_ASAN 1
#endif
#endif
#ifdef DYNTRACE_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace dyntrace::sim {

template <typename T>
class Coro;

namespace detail {

/// Per-thread free lists of coroutine frames, one per 64-byte size class
/// up to 1 KiB; larger frames go straight to the heap.  Trivially
/// destructible, so reaching the thread's pool costs no TLS guard on the
/// hot path; a pool that ever took memory from the heap registers a
/// thread-exit hook (FramePoolCleanup) that trims it.
class FramePool {
 public:
  static constexpr std::size_t kGranule = 64;
  static constexpr std::size_t kClasses = 16;

  void* allocate(std::size_t size) {
    const std::size_t cls = size_class(size);
    if (cls >= kClasses) return ::operator new(size);
    Node* node = heads_[cls];
    if (node == nullptr) return refill(cls);
    unpoison(node, cls);
    heads_[cls] = node->next;
    return node;
  }

  void release(void* p, std::size_t size) noexcept {
    const std::size_t cls = size_class(size);
    if (cls >= kClasses) {
      ::operator delete(p);
      return;
    }
    Node* node = static_cast<Node*>(p);
    node->next = heads_[cls];
    heads_[cls] = node;
    poison(node, cls);
  }

  /// Free every pooled frame.
  void trim() noexcept {
    for (std::size_t cls = 0; cls < kClasses; ++cls) {
      while (Node* node = heads_[cls]) {
        unpoison(node, cls);
        heads_[cls] = node->next;
        ::operator delete(node);
      }
    }
  }

 private:
  struct Node {
    Node* next;
  };

  static std::size_t size_class(std::size_t size) { return (size - 1) / kGranule; }

  void* refill(std::size_t cls);

#ifdef DYNTRACE_ASAN
  static void poison(Node* node, std::size_t cls) {
    ASAN_POISON_MEMORY_REGION(node, (cls + 1) * kGranule);
  }
  static void unpoison(Node* node, std::size_t cls) {
    ASAN_UNPOISON_MEMORY_REGION(node, (cls + 1) * kGranule);
  }
#else
  static void poison(Node*, std::size_t) {}
  static void unpoison(Node*, std::size_t) {}
#endif

  Node* heads_[kClasses] = {};
  bool cleanup_registered_ = false;
};

/// Per-thread on purpose: a run's frames are allocated and freed on its own
/// thread, so the pool needs no lock.
inline thread_local constinit FramePool tls_frame_pool;

/// Trims this thread's pool when the thread exits.
struct FramePoolCleanup {
  ~FramePoolCleanup() { tls_frame_pool.trim(); }
};

inline void* FramePool::refill(std::size_t cls) {
  if (!cleanup_registered_) {
    static thread_local FramePoolCleanup cleanup;
    (void)cleanup;
    cleanup_registered_ = true;
  }
  return ::operator new((cls + 1) * kGranule);
}

/// Return this thread's pooled frames to the heap (~Engine calls it).
inline void trim_frame_pool() noexcept { tls_frame_pool.trim(); }

struct PromiseBase {
  std::coroutine_handle<> continuation;
  std::exception_ptr exception;

  static void* operator new(std::size_t size) { return tls_frame_pool.allocate(size); }
  static void operator delete(void* p, std::size_t size) noexcept {
    tls_frame_pool.release(p, size);
  }

  struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(std::coroutine_handle<Promise> h) noexcept {
      auto cont = h.promise().continuation;
      return cont ? cont : std::noop_coroutine();
    }
    void await_resume() const noexcept {}
  };

  std::suspend_always initial_suspend() noexcept { return {}; }
  FinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() noexcept { exception = std::current_exception(); }
};

}  // namespace detail

/// A lazily-started simulated procedure returning T.
template <typename T = void>
class [[nodiscard]] Coro {
 public:
  struct promise_type : detail::PromiseBase {
    std::optional<T> value;
    Coro get_return_object() {
      return Coro(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    template <typename U>
    void return_value(U&& v) {
      value.emplace(std::forward<U>(v));
    }
  };

  Coro() = default;
  Coro(Coro&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Coro& operator=(Coro&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Coro(const Coro&) = delete;
  Coro& operator=(const Coro&) = delete;
  ~Coro() { destroy(); }

  bool valid() const { return static_cast<bool>(handle_); }

  // --- awaitable interface -------------------------------------------------
  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> awaiter) {
    DT_ASSERT(handle_ && !handle_.done(), "awaiting an invalid or finished Coro");
    handle_.promise().continuation = awaiter;
    return handle_;  // start the child coroutine
  }
  T await_resume() {
    auto& p = handle_.promise();
    if (p.exception) std::rethrow_exception(p.exception);
    DT_ASSERT(p.value.has_value(), "Coro finished without a value");
    return std::move(*p.value);
  }

  /// For Engine::spawn: release ownership of the handle.
  std::coroutine_handle<promise_type> release() { return std::exchange(handle_, {}); }

 private:
  explicit Coro(std::coroutine_handle<promise_type> h) : handle_(h) {}
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }
  std::coroutine_handle<promise_type> handle_;
};

/// void specialization.
template <>
class [[nodiscard]] Coro<void> {
 public:
  struct promise_type : detail::PromiseBase {
    Coro get_return_object() {
      return Coro(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_void() noexcept {}
  };

  Coro() = default;
  Coro(Coro&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Coro& operator=(Coro&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Coro(const Coro&) = delete;
  Coro& operator=(const Coro&) = delete;
  ~Coro() { destroy(); }

  bool valid() const { return static_cast<bool>(handle_); }

  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> awaiter) {
    DT_ASSERT(handle_ && !handle_.done(), "awaiting an invalid or finished Coro");
    handle_.promise().continuation = awaiter;
    return handle_;
  }
  void await_resume() {
    auto& p = handle_.promise();
    if (p.exception) std::rethrow_exception(p.exception);
  }

  std::coroutine_handle<promise_type> release() { return std::exchange(handle_, {}); }

 private:
  friend struct promise_type;
  explicit Coro(std::coroutine_handle<promise_type> h) : handle_(h) {}
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }
  std::coroutine_handle<promise_type> handle_;
};

}  // namespace dyntrace::sim
