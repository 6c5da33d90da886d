#pragma once
// Task: a move-only type-erased callable with a small-buffer optimization
// sized for the engine's hot path. libstdc++'s std::function only inlines
// captures up to 16 bytes; nearly every scheduled action in this codebase
// captures a `this` pointer plus a handler plus a couple of ids (~32-56
// bytes), so the sequential scheduler paid one heap allocation + free per
// event. Task inlines captures up to kInlineSize bytes and falls back to
// the heap only beyond that (quantified in bench/micro_sim).

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace hypersub::sim {

class Task {
 public:
  /// Inline capture budget. 56 bytes fits the dominant shape, a network
  /// delivery: Network::Delivery's liveness check (network pointer +
  /// destination, 16 B) around the event-frame handler (`this`, two ids
  /// and a shared_ptr, 40 B). With pointer alignment sizeof(Task) is 64.
  static constexpr std::size_t kInlineSize = 56;
  static constexpr std::size_t kInlineAlign = alignof(void*);

  Task() noexcept = default;

  template <class F,
            class = std::enable_if_t<!std::is_same_v<std::decay_t<F>, Task>>>
  /*implicit*/ Task(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    static_assert(std::is_invocable_r_v<void, Fn&>);
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &inline_ops<Fn>;
    } else {
      heap_ = new Fn(std::forward<F>(f));
      ops_ = &heap_ops<Fn>;
    }
  }

  Task(Task&& other) noexcept { move_from(other); }
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  void operator()() { ops_->invoke(*this); }

  /// True if a callable of type Fn would be stored inline (tests/bench).
  template <class Fn>
  static constexpr bool fits_inline() noexcept {
    return sizeof(Fn) <= kInlineSize && alignof(Fn) <= kInlineAlign &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

 private:
  struct Ops {
    void (*invoke)(Task&);
    void (*relocate)(Task& dst, Task& src) noexcept;
    void (*destroy)(Task&) noexcept;
  };

  template <class Fn>
  Fn* inline_target() noexcept {
    return std::launder(reinterpret_cast<Fn*>(buf_));
  }

  template <class Fn>
  static void invoke_inline(Task& t) {
    (*t.inline_target<Fn>())();
  }
  template <class Fn>
  static void relocate_inline(Task& dst, Task& src) noexcept {
    Fn* p = src.inline_target<Fn>();
    ::new (static_cast<void*>(dst.buf_)) Fn(std::move(*p));
    p->~Fn();
  }
  template <class Fn>
  static void destroy_inline(Task& t) noexcept {
    t.inline_target<Fn>()->~Fn();
  }
  template <class Fn>
  static void invoke_heap(Task& t) {
    (*static_cast<Fn*>(t.heap_))();
  }
  static void relocate_heap(Task& dst, Task& src) noexcept {
    dst.heap_ = src.heap_;
    src.heap_ = nullptr;
  }
  template <class Fn>
  static void destroy_heap(Task& t) noexcept {
    delete static_cast<Fn*>(t.heap_);
  }

  template <class Fn>
  static constexpr Ops inline_ops{&invoke_inline<Fn>, &relocate_inline<Fn>,
                                  &destroy_inline<Fn>};

  template <class Fn>
  static constexpr Ops heap_ops{&invoke_heap<Fn>, &relocate_heap,
                                &destroy_heap<Fn>};

  void move_from(Task& other) noexcept {
    ops_ = other.ops_;
    if (ops_) ops_->relocate(*this, other);
    other.ops_ = nullptr;
  }

  void reset() noexcept {
    if (ops_) ops_->destroy(*this);
    ops_ = nullptr;
  }

  const Ops* ops_ = nullptr;
  union {
    alignas(kInlineAlign) std::byte buf_[kInlineSize];
    void* heap_;
  };
};

static_assert(sizeof(Task) == Task::kInlineSize + sizeof(void*),
              "Task is its ops pointer plus the inline buffer (64 B on LP64)");

}  // namespace hypersub::sim
