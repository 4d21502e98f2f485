// A FIFO that allocates nothing until its first push.
//
// libstdc++'s std::deque allocates its block map and a first 512-byte block
// in the default constructor, about 0.6 KB per queue before anything is
// queued. Per-rank mailboxes and per-channel credit-waiter lists are empty
// almost always, so they keep their deque behind a pointer that the first
// push creates (DESIGN.md §6b). Once created the deque stays, and every
// operation keeps std::deque's cost and iterator rules: O(1) push_back and
// pop_front, erase anywhere.
#pragma once

#include <cstddef>
#include <deque>
#include <memory>
#include <utility>

namespace wst::support {

template <typename T>
class LazyDeque {
 public:
  using iterator = typename std::deque<T>::iterator;

  bool empty() const { return q_ == nullptr || q_->empty(); }
  std::size_t size() const { return q_ == nullptr ? 0 : q_->size(); }

  void push_back(T value) {
    if (q_ == nullptr) q_ = std::make_unique<std::deque<T>>();
    q_->push_back(std::move(value));
  }
  // front, pop_front and erase need a non-empty queue, as on std::deque.
  T& front() { return q_->front(); }
  void pop_front() { q_->pop_front(); }
  iterator erase(iterator it) { return q_->erase(it); }

  // A queue that never held anything is an empty range: value-initialized
  // iterators compare equal.
  iterator begin() { return q_ == nullptr ? iterator{} : q_->begin(); }
  iterator end() { return q_ == nullptr ? iterator{} : q_->end(); }

 private:
  std::unique_ptr<std::deque<T>> q_;
};

}  // namespace wst::support
