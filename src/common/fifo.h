// FIFO ring for per-tenant queues.
//
// A default-constructed libstdc++ std::deque allocates a 64 B map and a
// 512 B node before it holds anything, and the scheduler, initiators and
// baseline policies keep one or more queues per tenant that are almost
// always empty. Fifo allocates nothing until its first push_back, then
// doubles a power-of-two ring from capacity 1. Capacity survives clear(),
// so SlabArena recycling keeps a tenant's buffer across churn.
#pragma once

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace gimbal::common {

template <typename T>
class Fifo {
 public:
  Fifo() = default;
  // A moved-from Fifo is empty (capacity 0) and accepts new pushes.
  Fifo(Fifo&& o) noexcept { *this = std::move(o); }
  Fifo& operator=(Fifo&& o) noexcept {
    buf_ = std::exchange(o.buf_, {});
    head_ = std::exchange(o.head_, 0);
    size_ = std::exchange(o.size_, 0);
    return *this;
  }

  void push_back(T v) {
    if (size_ == buf_.size()) Grow();
    buf_[(head_ + size_) & (buf_.size() - 1)] = std::move(v);
    ++size_;
  }
  T& front() {
    assert(size_ > 0);
    return buf_[head_];
  }
  // Resets the vacated slot so whatever the element owns (a callback's
  // captures, say) is released now, not when the slot is next overwritten.
  void pop_front() {
    assert(size_ > 0);
    buf_[head_] = T{};
    head_ = (head_ + 1) & (buf_.size() - 1);
    --size_;
  }
  void clear() {
    while (size_ > 0) pop_front();
    head_ = 0;
  }

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }
  size_t capacity() const { return buf_.size(); }

 private:
  void Grow() {
    std::vector<T> next(buf_.empty() ? 1 : 2 * buf_.size());
    for (size_t i = 0; i < size_; ++i) {
      next[i] = std::move(buf_[(head_ + i) & (buf_.size() - 1)]);
    }
    buf_ = std::move(next);
    head_ = 0;
  }

  std::vector<T> buf_;  // size() is the capacity, a power of two or 0
  size_t head_ = 0;
  size_t size_ = 0;
};

}  // namespace gimbal::common
