// A heap-held value with value semantics.
//
// Copying a Box deep-copies the pointee; moving one moves the pointer. A
// large, rarely sent alternative of a std::variant rides boxed so that it
// does not size every other alternative up to itself (DESIGN.md §6b), while
// the variant stays an ordinary value: std::unique_ptr would make it
// move-only, and std::shared_ptr<const T> would let a copy share what it
// must own (the overlay's fault layer copies envelopes for duplicates and
// retransmits, and receivers move vectors out of the payload).
#pragma once

#include <memory>
#include <utility>

namespace wst::support {

template <typename T>
class Box {
 public:
  // Implicit, so a variant holding Box<T> is constructible from a T.
  Box(T value) : p_(std::make_unique<T>(std::move(value))) {}
  Box(const Box& other)
      : p_(other.p_ ? std::make_unique<T>(*other.p_) : nullptr) {}
  Box(Box&&) noexcept = default;
  Box& operator=(const Box& other) {
    if (this != &other) *this = Box(other);
    return *this;
  }
  Box& operator=(Box&&) noexcept = default;

  T& operator*() { return *p_; }
  const T& operator*() const { return *p_; }
  T* operator->() { return p_.get(); }
  const T* operator->() const { return p_.get(); }

 private:
  std::unique_ptr<T> p_;  // null only in a moved-from Box
};

}  // namespace wst::support
