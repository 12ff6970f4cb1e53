// Small-buffer-optimised move-only callable for the event hot path.
//
// Every simulated event is a callback; std::function allocates for anything
// larger than two pointers, which made scheduling the dominant allocator in
// the whole system.  InlineCallback stores up to kInlineBytes of capture
// state in place (covering every callback the sim/mpi/dpcl layers create)
// and falls back to the heap only for oversized captures.
//
// An event's callback is moved at least twice between schedule and invoke
// (into its queue slot, out of it).  A trivially copyable capture stored
// inline -- every hot callback: compute timers, sleep, post, MPI delivery
// -- moves by copying the buffer and has no destructor to call, so those
// moves make no indirect call.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "support/common.hpp"

namespace dyntrace::sim {

class InlineCallback {
 public:
  /// Capture budget.  An MPI delivery captures an Envelope (40 bytes) plus
  /// a target pointer; 64 leaves headroom for one more word.
  static constexpr std::size_t kInlineBytes = 64;

  InlineCallback() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineCallback> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  InlineCallback(F&& f) {  // NOLINT(google-explicit-constructor): like std::function
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      if constexpr (std::is_trivially_copyable_v<Fn>) {
        ops_ = trivial_ops<Fn>();
      } else {
        ops_ = inline_ops<Fn>();
      }
    } else {
      heap_ = new Fn(std::forward<F>(f));
      ops_ = heap_ops<Fn>();
    }
  }

  InlineCallback(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  InlineCallback(InlineCallback&& other) noexcept { move_from(other); }

  InlineCallback& operator=(InlineCallback&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;

  ~InlineCallback() { reset(); }

  explicit operator bool() const { return ops_ != nullptr; }
  friend bool operator==(const InlineCallback& cb, std::nullptr_t) { return cb.ops_ == nullptr; }
  friend bool operator!=(const InlineCallback& cb, std::nullptr_t) { return cb.ops_ != nullptr; }

  void operator()() {
    DT_ASSERT(ops_ != nullptr, "invoking an empty InlineCallback");
    ops_->invoke(target());
  }

 private:
  /// A trivially copyable inline capture has neither relocate nor destroy:
  /// it moves by copying the buffer and needs no destruction.
  struct Ops {
    void (*invoke)(void*);
    void (*relocate)(void* from, InlineCallback& to) noexcept;  // move + destroy source
    void (*destroy)(void*) noexcept;
    bool inline_storage;
  };

  template <typename Fn>
  static void invoke_fn(void* p) {
    (*static_cast<Fn*>(p))();
  }

  template <typename Fn>
  static void relocate_inline(void* p, InlineCallback& to) noexcept {
    Fn* from = static_cast<Fn*>(p);
    ::new (static_cast<void*>(to.storage_)) Fn(std::move(*from));
    from->~Fn();
    to.ops_ = inline_ops<Fn>();
  }

  template <typename Fn>
  static void destroy_inline(void* p) noexcept {
    static_cast<Fn*>(p)->~Fn();
  }

  template <typename Fn>
  static void relocate_heap(void* p, InlineCallback& to) noexcept {
    to.heap_ = p;  // steal the allocation
    to.ops_ = heap_ops<Fn>();
  }

  template <typename Fn>
  static void destroy_heap(void* p) noexcept {
    delete static_cast<Fn*>(p);
  }

  template <typename Fn>
  static const Ops* inline_ops() {
    static constexpr Ops ops = {&invoke_fn<Fn>, &relocate_inline<Fn>,
                                &destroy_inline<Fn>, /*inline_storage=*/true};
    return &ops;
  }

  template <typename Fn>
  static const Ops* trivial_ops() {
    static constexpr Ops ops = {&invoke_fn<Fn>, nullptr, nullptr, /*inline_storage=*/true};
    return &ops;
  }

  template <typename Fn>
  static const Ops* heap_ops() {
    static constexpr Ops ops = {&invoke_fn<Fn>, &relocate_heap<Fn>, &destroy_heap<Fn>,
                                /*inline_storage=*/false};
    return &ops;
  }

  void* target() { return ops_->inline_storage ? static_cast<void*>(storage_) : heap_; }

  void reset() {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(target());
      ops_ = nullptr;
      heap_ = nullptr;
    }
  }

  void move_from(InlineCallback& other) noexcept {
    if (other.ops_ != nullptr) {
      const Ops* ops = other.ops_;
      if (ops->relocate == nullptr) {
        std::memcpy(storage_, other.storage_, kInlineBytes);
        ops_ = ops;
      } else {
        ops->relocate(other.target(), *this);
      }
      other.ops_ = nullptr;
      other.heap_ = nullptr;
    }
  }

  alignas(std::max_align_t) std::byte storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
  void* heap_ = nullptr;
};

}  // namespace dyntrace::sim
