#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace wmsn::sim {

/// Move-only `void()` callable with fixed inline storage — the event
/// queue's closure type. A callable of up to kInlineBytes that is nothrow
/// movable lives inside the Action itself, so scheduling it allocates
/// nothing; anything larger (a closure holding a whole Packet, say) falls
/// back to one heap block. Unlike std::function it never copies, so it can
/// own move-only captures such as std::unique_ptr.
class Action {
 public:
  static constexpr std::size_t kInlineBytes = 64;

  Action() noexcept = default;
  Action(std::nullptr_t) noexcept {}

  /// Implicit, so a lambda passes straight to Simulator::schedule.
  template <typename F,
            typename Fn = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<Fn, Action> &&
                                        std::is_invocable_r_v<void, Fn&>>>
  Action(F&& fn) {
    if constexpr (fitsInline<Fn>()) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(fn)));
      ops_ = &kHeapOps<Fn>;
    }
  }

  Action(Action&& other) noexcept { take(other); }
  Action& operator=(Action&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }
  Action(const Action&) = delete;
  Action& operator=(const Action&) = delete;
  ~Action() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// Runs the callable. Requires a non-empty Action.
  void operator()() { ops_->invoke(storage_); }

  /// True if a callable of type F is stored inline (no heap block).
  template <typename F>
  static constexpr bool fitsInline() {
    return sizeof(F) <= kInlineBytes &&
           alignof(F) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<F>;
  }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    /// Move-constructs the callable into `to` and destroys it in `from`.
    void (*relocate)(void* from, void* to) noexcept;
    void (*destroy)(void* storage) noexcept;
  };

  template <typename F>
  static constexpr Ops kInlineOps{
      [](void* s) { (*static_cast<F*>(s))(); },
      [](void* from, void* to) noexcept {
        F* src = static_cast<F*>(from);
        ::new (to) F(std::move(*src));
        src->~F();
      },
      [](void* s) noexcept { static_cast<F*>(s)->~F(); }};

  template <typename F>
  static constexpr Ops kHeapOps{
      [](void* s) { (**static_cast<F**>(s))(); },
      [](void* from, void* to) noexcept {
        ::new (to) F*(*static_cast<F**>(from));
      },
      [](void* s) noexcept { delete *static_cast<F**>(s); }};

  void reset() noexcept {
    if (ops_ != nullptr) std::exchange(ops_, nullptr)->destroy(storage_);
  }

  void take(Action& other) noexcept {
    if (other.ops_ == nullptr) return;
    other.ops_->relocate(other.storage_, storage_);
    ops_ = std::exchange(other.ops_, nullptr);
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace wmsn::sim
