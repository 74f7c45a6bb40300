// Flat ring buffer with stable element positions.
//
// Replaces the std::deque instances on the core's hot path (per-thread
// instruction windows, the shared front-end queue). Elements live in
// power-of-two storage addressed by a monotonically increasing 64-bit
// *position*: the element pushed as overall number n keeps position n for
// its whole lifetime (physical slot `n & mask`). pop_front advances the
// head; pop_back hands the tail position back to the next push — the
// squash-then-refetch case — so a stored position plus an identity check
// (the instruction's dyn_id) is a stable O(1) handle to a live element.
// Growth doubles the storage and re-places elements at `pos & new_mask`,
// which preserves every outstanding position.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace dwarn {

template <typename T>
class Ring {
 public:
  Ring() : Ring(2) {}
  explicit Ring(std::size_t min_capacity) {
    std::size_t cap = 2;
    while (cap < min_capacity) cap <<= 1;
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

  // Logical indexing: [0] is the oldest element.
  [[nodiscard]] T& operator[](std::size_t i) { return slots_[(head_pos_ + i) & mask_]; }
  [[nodiscard]] const T& operator[](std::size_t i) const {
    return slots_[(head_pos_ + i) & mask_];
  }
  [[nodiscard]] T& front() { return (*this)[0]; }
  [[nodiscard]] const T& front() const { return (*this)[0]; }
  [[nodiscard]] T& back() { return (*this)[size_ - 1]; }
  [[nodiscard]] const T& back() const { return (*this)[size_ - 1]; }

  /// Append and return a reference to the stored element.
  T& push_back(T&& v) {
    if (size_ == slots_.size()) grow();
    T& slot = slots_[(head_pos_ + size_) & mask_];
    slot = std::move(v);
    ++size_;
    return slot;
  }
  T& push_back(const T& v) {
    if (size_ == slots_.size()) grow();
    T& slot = slots_[(head_pos_ + size_) & mask_];
    slot = v;
    ++size_;
    return slot;
  }

  /// Append a value-initialized element in place and return it; callers
  /// fill the slot directly instead of building a temporary to move in.
  T& emplace_back() {
    if (size_ == slots_.size()) grow();
    T& slot = slots_[(head_pos_ + size_) & mask_];
    slot = T{};
    ++size_;
    return slot;
  }

  void pop_front() {
    DWARN_CHECK(size_ > 0);
    ++head_pos_;
    --size_;
  }
  void pop_back() {
    DWARN_CHECK(size_ > 0);
    --size_;
  }

  // --- stable-position handles ---------------------------------------------
  [[nodiscard]] std::uint64_t pos_at(std::size_t i) const { return head_pos_ + i; }
  [[nodiscard]] std::uint64_t pos_of_back() const {
    DWARN_CHECK(size_ > 0);
    return head_pos_ + size_ - 1;
  }
  /// Whether `pos` currently names a live element. A dead position can be
  /// re-occupied only through pop_back + push_back, which changes the
  /// occupant's identity — callers verify dyn_id after the lookup.
  [[nodiscard]] bool live(std::uint64_t pos) const {
    return pos >= head_pos_ && pos - head_pos_ < size_;
  }
  [[nodiscard]] T& at_pos(std::uint64_t pos) { return slots_[pos & mask_]; }
  [[nodiscard]] const T& at_pos(std::uint64_t pos) const { return slots_[pos & mask_]; }

 private:
  void grow() {
    std::vector<T> bigger(slots_.size() * 2);
    const std::size_t nmask = bigger.size() - 1;
    for (std::size_t i = 0; i < size_; ++i) {
      bigger[(head_pos_ + i) & nmask] = std::move(slots_[(head_pos_ + i) & mask_]);
    }
    slots_ = std::move(bigger);
    mask_ = nmask;
  }

  std::vector<T> slots_;
  std::size_t mask_ = 0;
  std::uint64_t head_pos_ = 0;  ///< position of the front element
  std::size_t size_ = 0;
};

}  // namespace dwarn
