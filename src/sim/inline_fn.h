// Move-only callable with small-buffer-optimised storage, the kernel's
// replacement for std::function<void()> on the event hot path.
//
// Why not std::function: libstdc++'s std::function copies its target on
// every copy of the wrapper and heap-allocates any capture over 16
// bytes. Nearly every event closure in this codebase (a strand pointer,
// a couple of ints, a small string, a Buffer) lands between 16 and ~120
// bytes, so the seed kernel paid one malloc/free per scheduled event.
// InlineFn stores captures up to kInlineBytes in place, never copies
// (move-only), and falls back to a single heap cell only for outsized
// captures.
//
// Deliberate limitations, in exchange for the flat fast path:
//   - move-only (events fire once; nothing in the kernel copies them),
//   - no target() / target_type() introspection,
//   - invoking an empty InlineFn is undefined (callers check bool()).
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace oftt::sim {

class InlineFn {
 public:
  // Sized for the kernel's common closures: a strand pointer, a few
  // ids, a small string or a Buffer. A datagram-delivery closure
  // (Network*, destination id, and a Datagram of ids, two interned
  // PortIds and a payload Buffer) is 64 bytes; Network::send asserts at
  // compile time that it stays inline.
  static constexpr std::size_t kInlineBytes = 120;

  /// Whether a callable of type D is stored in place (no heap cell).
  template <typename D>
  static constexpr bool fits_inline() {
    return sizeof(D) <= kInlineBytes && alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

  InlineFn() = default;
  InlineFn(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, InlineFn> &&
                                        std::is_invocable_r_v<void, std::decay_t<F>&>>>
  InlineFn(F&& f) {  // NOLINT(google-explicit-constructor)
    emplace(std::forward<F>(f));
  }

  InlineFn(InlineFn&& other) noexcept { move_from(other); }
  InlineFn& operator=(InlineFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;
  ~InlineFn() { reset(); }

  explicit operator bool() const { return vt_ != nullptr; }

  void operator()() { vt_->invoke(&buf_); }

  void reset() {
    if (vt_ != nullptr) {
      vt_->destroy(&buf_);
      vt_ = nullptr;
    }
  }

 private:
  struct VTable {
    void (*invoke)(void*);
    void (*destroy)(void*);
    // Move-construct the target into dst from src, then destroy src's.
    void (*relocate)(void* src, void* dst);
  };

  template <typename D>
  static constexpr VTable kInlineVt{
      [](void* s) { (*static_cast<D*>(s))(); },
      [](void* s) { static_cast<D*>(s)->~D(); },
      [](void* src, void* dst) {
        ::new (dst) D(std::move(*static_cast<D*>(src)));
        static_cast<D*>(src)->~D();
      },
  };

  template <typename D>
  static constexpr VTable kHeapVt{
      [](void* s) { (**static_cast<D**>(s))(); },
      [](void* s) { delete *static_cast<D**>(s); },
      [](void* src, void* dst) { *static_cast<D**>(dst) = *static_cast<D**>(src); },
  };

  template <typename F>
  void emplace(F&& f) {
    using D = std::decay_t<F>;
    if constexpr (fits_inline<D>()) {
      ::new (static_cast<void*>(&buf_)) D(std::forward<F>(f));
      vt_ = &kInlineVt<D>;
    } else {
      *reinterpret_cast<D**>(&buf_) = new D(std::forward<F>(f));
      vt_ = &kHeapVt<D>;
    }
  }

  void move_from(InlineFn& other) noexcept {
    if (other.vt_ != nullptr) {
      other.vt_->relocate(&other.buf_, &buf_);
      vt_ = other.vt_;
      other.vt_ = nullptr;
    }
  }

  alignas(std::max_align_t) std::byte buf_[kInlineBytes];
  const VTable* vt_ = nullptr;
};

}  // namespace oftt::sim
