// RingFifo: the growable ring buffer behind every simulator wait queue
// (DESIGN.md §12).
//
// std::deque allocates a 512-byte chunk even when empty, and frees and
// re-allocates one every few elements as a FIFO slides through it. A
// RingFifo allocates nothing until its first push, doubles its
// power-of-two capacity when full and never shrinks, so a queue that has
// reached its high-water mark pushes and pops without touching the
// allocator. Slots are std::optional elements of a std::vector, so a build
// with _GLIBCXX_ASSERTIONS bounds-checks every index and occupancy.
#pragma once

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

namespace sv::sim {

template <typename T>
class RingFifo {
 public:
  RingFifo() = default;
  RingFifo(const RingFifo&) = delete;
  RingFifo& operator=(const RingFifo&) = delete;

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  template <typename U>
  void push_back(U&& item) {
    if (size_ == slots_.size()) grow();
    slots_[(head_ + size_) & (slots_.size() - 1)].emplace(
        std::forward<U>(item));
    ++size_;
  }

  [[nodiscard]] T& front() { return *slots_[head_]; }

  void pop_front() {
    slots_[head_].reset();
    head_ = (head_ + 1) & (slots_.size() - 1);
    --size_;
  }

  /// The element `i` places behind the front.
  [[nodiscard]] const T& operator[](std::size_t i) const {
    return *slots_[(head_ + i) & (slots_.size() - 1)];
  }

 private:
  static constexpr std::size_t kFirstCapacity = 4;

  void grow() {
    std::vector<std::optional<T>> bigger(
        slots_.empty() ? kFirstCapacity : 2 * slots_.size());
    for (std::size_t i = 0; i < size_; ++i) {
      bigger[i].emplace(std::move(*slots_[(head_ + i) & (slots_.size() - 1)]));
    }
    slots_.swap(bigger);
    head_ = 0;
  }

  std::vector<std::optional<T>> slots_;  // size is 0 or a power of two
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace sv::sim
