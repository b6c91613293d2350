// Allocation-free event callback for the simulator hot path.
//
// `EventFn` used to be `std::function<void()>`; with libstdc++'s 16-byte
// inline buffer, nearly every closure the stack schedules (an IoRequest by
// value plus a `this` pointer is already 56 bytes) paid one heap
// allocation per simulated event. `InlineFn` is a move-only callable
// wrapper whose inline buffer is sized for the largest hot-path closure in
// the tree — the target's completion step captures an IoRequest (48 B), an
// IoCompletion (40 B) and two pointers — so the schedule path allocates
// nothing. Larger closures still work; they fall back to the heap like
// std::function would, and a counter records that it happened so the
// regression is visible in tests and in perfbench.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

namespace gimbal::sim {

class InlineFn {
 public:
  // Sized for the largest closure the simulator schedules per-IO — the
  // target's completion step captures an IoRequest (48 B), an IoCompletion
  // (40 B), a pipeline pointer, a sink pointer and `this` (see header
  // comment); anything bigger spills to the heap.
  static constexpr size_t kInlineCapacity = 120;

  InlineFn() = default;
  InlineFn(std::nullptr_t) {}  // NOLINT: std::function accepted nullptr too

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  InlineFn(F&& f) {  // NOLINT(google-explicit-constructor): drop-in for
                     // std::function at every sim.After()/At() call site.
    using T = std::decay_t<F>;
    if constexpr (sizeof(T) <= kInlineCapacity &&
                  alignof(T) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<T>) {
      ::new (static_cast<void*>(buf_)) T(std::forward<F>(f));
      ops_ = &InlineOps<T>::ops;
    } else {
      ::new (static_cast<void*>(buf_)) T*(new T(std::forward<F>(f)));
      ops_ = &HeapOps<T>::ops;
      ++heap_fallbacks_;
    }
  }

  InlineFn(InlineFn&& other) noexcept : ops_(other.ops_) {
    if (ops_) {
      ops_->relocate(other.buf_, buf_);
      other.ops_ = nullptr;
    }
  }

  InlineFn& operator=(InlineFn&& other) noexcept {
    if (this != &other) {
      Reset();
      ops_ = other.ops_;
      if (ops_) {
        ops_->relocate(other.buf_, buf_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;

  ~InlineFn() { Reset(); }

  void operator()() { ops_->invoke(buf_); }

  explicit operator bool() const { return ops_ != nullptr; }

  void Reset() {
    if (ops_) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  // Closures that exceeded kInlineCapacity since process start (process-
  // wide). The sharded faulted determinism test asserts it stays flat over
  // a whole testbed run.
  static uint64_t heap_fallbacks() { return heap_fallbacks_; }

 private:
  struct Ops {
    void (*invoke)(void*);
    // Move-construct from `from` into `to`, destroying `from`.
    void (*relocate)(void* from, void* to);
    void (*destroy)(void*);
  };

  template <typename T>
  struct InlineOps {
    static void Invoke(void* p) { (*static_cast<T*>(p))(); }
    static void Relocate(void* from, void* to) {
      T* src = static_cast<T*>(from);
      ::new (to) T(std::move(*src));
      src->~T();
    }
    static void Destroy(void* p) { static_cast<T*>(p)->~T(); }
    static constexpr Ops ops{&Invoke, &Relocate, &Destroy};
  };

  template <typename T>
  struct HeapOps {
    static T*& Ptr(void* p) { return *static_cast<T**>(p); }
    static void Invoke(void* p) { (*Ptr(p))(); }
    static void Relocate(void* from, void* to) {
      ::new (to) T*(Ptr(from));
    }
    static void Destroy(void* p) { delete Ptr(p); }
    static constexpr Ops ops{&Invoke, &Relocate, &Destroy};
  };

  alignas(std::max_align_t) unsigned char buf_[kInlineCapacity];
  const Ops* ops_ = nullptr;

  static inline uint64_t heap_fallbacks_ = 0;
};

using EventFn = InlineFn;

}  // namespace gimbal::sim
