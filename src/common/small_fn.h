// A move-only `void()` callable with small-buffer-optimized storage.
//
// The event scheduler executes millions of short-lived callbacks per
// simulated second; wrapping each in std::function means one heap
// allocation per event plus a copy of every capture whenever the
// priority queue shuffles. SmallFn stores captures up to kInlineBytes
// directly inside the object (enough for the medium's reception-finalize
// lambda, the fattest one in the hot path) and relocates by move, so the
// common scheduling path never touches the allocator. Larger callables
// still work — they fall back to a single heap cell.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace politewifi {

template <std::size_t InlineBytes>
class BasicSmallFn {
 public:
  static constexpr std::size_t kInlineBytes = InlineBytes;

  BasicSmallFn() noexcept = default;
  BasicSmallFn(std::nullptr_t) noexcept {}  // NOLINT: match std::function

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<
                !std::is_same_v<D, BasicSmallFn> && std::is_invocable_v<D&>>>
  BasicSmallFn(F&& f) {  // NOLINT: converting, like std::function
    if constexpr (fits_inline<D>) {
      ::new (buf_) D(std::forward<F>(f));
      ops_ = &InlineOps<D>::ops;
    } else {
      ::new (buf_) D*(new D(std::forward<F>(f)));
      ops_ = &HeapOps<D>::ops;
    }
  }

  BasicSmallFn(BasicSmallFn&& other) noexcept { move_from(other); }
  BasicSmallFn& operator=(BasicSmallFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  BasicSmallFn(const BasicSmallFn&) = delete;
  BasicSmallFn& operator=(const BasicSmallFn&) = delete;
  ~BasicSmallFn() { reset(); }

  void operator()() { ops_->invoke(buf_); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// Destroys the stored callable (drops its captures) and goes empty.
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  /// True when the stored callable lives in the inline buffer.
  bool is_inline() const noexcept { return ops_ != nullptr && ops_->inline_storage; }

  /// Whether a callable of type F would be stored without allocating.
  template <typename F>
  static constexpr bool fits_inline =
      sizeof(F) <= InlineBytes && alignof(F) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<F>;

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*relocate)(void* dst, void* src) noexcept;  // move-construct + destroy src
    void (*destroy)(void*) noexcept;
    bool inline_storage;
  };

  template <typename D>
  struct InlineOps {
    static D* self(void* p) noexcept { return std::launder(reinterpret_cast<D*>(p)); }
    static void invoke(void* p) { (*self(p))(); }
    static void relocate(void* dst, void* src) noexcept {
      ::new (dst) D(std::move(*self(src)));
      self(src)->~D();
    }
    static void destroy(void* p) noexcept { self(p)->~D(); }
    static constexpr Ops ops{&invoke, &relocate, &destroy, true};
  };

  template <typename D>
  struct HeapOps {
    static D* self(void* p) noexcept {
      return *std::launder(reinterpret_cast<D**>(p));
    }
    static void invoke(void* p) { (*self(p))(); }
    static void relocate(void* dst, void* src) noexcept {
      ::new (dst) D*(self(src));  // steal the heap cell
    }
    // pw-analyze: allow(hot-new): frees only a callable too big for the
    // inline buffer; every hot-path capture fits kInlineBytes (the
    // steady-state allocation test reads 0), so the event loop's
    // reset() never takes this branch.
    static void destroy(void* p) noexcept { delete self(p); }
    static constexpr Ops ops{&invoke, &relocate, &destroy, false};
  };

  void move_from(BasicSmallFn& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(buf_, other.buf_);
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) std::byte buf_[InlineBytes];
  const Ops* ops_ = nullptr;
};

/// The scheduler's callback type. 128 bytes of inline storage holds the
/// largest hot-path capture set (Medium's finalize lambda: a Bytes vector,
/// a TxVector, two timestamps, a power level and three pointers).
using SmallFn = BasicSmallFn<128>;

}  // namespace politewifi
