// EpochArray<T>: a fixed-default array of values with O(1) whole-array reset.
//
// Generalizes StampSet from membership to values: each slot carries the
// epoch at which it was last written, and a slot whose stamp is stale reads
// as the default value. reset() bumps the epoch instead of touching O(n)
// memory, which is what lets a trial arena hand the same buffers to
// thousands of consecutive simulation trials with no per-trial clearing or
// allocation.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "support/assert.hpp"

namespace rumor {

template <typename T>
class EpochArray {
 public:
  EpochArray() = default;

  // Re-targets the array to `n` slots all reading `default_value`. O(1)
  // when capacity suffices (the steady-state trial path); grows otherwise.
  void reset(std::size_t n, T default_value) {
    default_ = default_value;
    if (n > stamps_.size()) {
      stamps_.assign(n, 0);
      values_.resize(n);
      epoch_ = 1;
    } else {
      ++epoch_;
      if (epoch_ == 0) {  // wrapped after 2^32 resets: hard clear, amortized free
        std::fill(stamps_.begin(), stamps_.end(), std::uint32_t{0});
        epoch_ = 1;
      }
    }
    size_ = n;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] T default_value() const { return default_; }

  [[nodiscard]] T get(std::size_t i) const {
    RUMOR_CHECK(i < size_);
    return stamps_[i] == epoch_ ? values_[i] : default_;
  }

  // True iff the slot was written since the last reset.
  [[nodiscard]] bool touched(std::size_t i) const {
    RUMOR_CHECK(i < size_);
    return stamps_[i] == epoch_;
  }

  void set(std::size_t i, T value) {
    RUMOR_CHECK(i < size_);
    stamps_[i] = epoch_;
    values_[i] = value;
  }

  // Counter-style accumulate; stale slots restart from the default.
  T add(std::size_t i, T delta) {
    const T updated = get(i) + delta;
    set(i, updated);
    return updated;
  }

  // Hints the cache lines behind slot i into cache ahead of a get() —
  // for pointer-chasing consumers (push's wake calendar) whose next slot
  // is known one iteration early.
  void prefetch(std::size_t i) const {
    __builtin_prefetch(stamps_.data() + i, /*rw=*/0, /*locality=*/3);
    __builtin_prefetch(values_.data() + i, /*rw=*/0, /*locality=*/3);
  }

  // Raw-pointer read view for hot loops: hoists the array/epoch
  // indirections out of per-element reads. Reads made through a view
  // observe set()/add() writes (the buffers are stable for the life of a
  // trial); the view dangles after the next reset() that grows the array.
  struct View {
    const std::uint32_t* stamps;
    const T* values;
    std::uint32_t epoch;
    T def;

    [[nodiscard]] T get(std::size_t i) const {
      return stamps[i] == epoch ? values[i] : def;
    }
    [[nodiscard]] bool touched(std::size_t i) const {
      return stamps[i] == epoch;
    }
    void prefetch(std::size_t i) const {
      __builtin_prefetch(stamps + i, /*rw=*/0, /*locality=*/3);
      __builtin_prefetch(values + i, /*rw=*/0, /*locality=*/3);
    }
    // The stamp alone, for a consumer that reads the value only of the
    // few slots whose stamp is current (touched() first).
    void prefetch_stamp(std::size_t i) const {
      __builtin_prefetch(stamps + i, /*rw=*/0, /*locality=*/3);
    }
  };

  [[nodiscard]] View view() const {
    return View{stamps_.data(), values_.data(), epoch_, default_};
  }

  // Concurrent write view for parallel passes: any number of threads may
  // claim the same slot, and exactly one of them wins it (and writes its
  // value) per epoch. A claim loads the stamp before it writes, so a slot
  // that millions of callers claim costs one contended write. Inside the
  // pass, read stamps through claimed() only; values and the plain
  // accessors are safe again once the pass has joined.
  struct Claims {
    std::uint32_t* stamps;
    T* values;
    std::uint32_t epoch;

    [[nodiscard]] bool claimed(std::size_t i) const {
      return std::atomic_ref<std::uint32_t>(stamps[i]).load(
                 std::memory_order_relaxed) == epoch;
    }
    // Hints slot i's stamp into cache ahead of a claimed()/claim().
    void prefetch_stamp(std::size_t i) const {
      __builtin_prefetch(stamps + i, /*rw=*/0, /*locality=*/3);
    }
    // True for the one caller that moved slot i into this epoch.
    bool claim(std::size_t i, T value) const {
      std::atomic_ref<std::uint32_t> stamp(stamps[i]);
      if (stamp.load(std::memory_order_relaxed) == epoch) return false;
      if (stamp.exchange(epoch, std::memory_order_relaxed) == epoch) {
        return false;
      }
      values[i] = value;
      return true;
    }
  };

  [[nodiscard]] Claims claims() {
    return Claims{stamps_.data(), values_.data(), epoch_};
  }

  // Materializes the logical contents (allocates; trace-export only).
  [[nodiscard]] std::vector<T> to_vector() const {
    std::vector<T> out(size_);
    for (std::size_t i = 0; i < size_; ++i) out[i] = get(i);
    return out;
  }

 private:
  std::vector<std::uint32_t> stamps_;  // capacity; logical size is size_
  std::vector<T> values_;
  std::size_t size_ = 0;
  std::uint32_t epoch_ = 1;
  T default_{};
};

}  // namespace rumor
