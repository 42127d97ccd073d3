// Fifo<T>: the FIFO behind a TCP connection's receive bytes and its unacked
// segment queue. Like lwIP's segment-list heads, an empty queue owns no heap
// storage: a held idle connection costs only the object itself. Storage is
// contiguous (the buffered bytes can be appended or copied in one call) and
// is freed as soon as the queue drains. Popping advances a head index; a
// queue that never drains reclaims its popped prefix on the next push once
// that prefix is at least half the storage, so pops and pushes stay
// amortised O(1).
#ifndef MK_NET_FIFO_H_
#define MK_NET_FIFO_H_

#include <cstddef>
#include <utility>
#include <vector>

namespace mk::net {

template <typename T>
class Fifo {
 public:
  using const_iterator = typename std::vector<T>::const_iterator;

  bool empty() const { return head_ == items_.size(); }
  std::size_t size() const { return items_.size() - head_; }
  // Heap storage currently held (0 whenever the queue is empty).
  std::size_t capacity() const { return items_.capacity(); }

  const T& front() const { return items_[head_]; }
  const_iterator begin() const { return items_.begin() + static_cast<std::ptrdiff_t>(head_); }
  const_iterator end() const { return items_.end(); }
  // The buffered elements, contiguous from front() (nullptr when empty).
  const T* data() const { return empty() ? nullptr : items_.data() + head_; }

  void push_back(T item) {
    Reclaim();
    items_.push_back(std::move(item));
  }
  void append(const T* first, std::size_t n) {
    Reclaim();
    items_.insert(items_.end(), first, first + n);
  }
  void pop_front() {
    if (++head_ == items_.size()) {
      clear();
    }
  }
  void clear() {
    std::vector<T>().swap(items_);
    head_ = 0;
  }

 private:
  void Reclaim() {
    if (head_ > 0 && head_ * 2 >= items_.size()) {
      items_.erase(items_.begin(), items_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }

  std::vector<T> items_;
  std::size_t head_ = 0;
};

}  // namespace mk::net

#endif  // MK_NET_FIFO_H_
