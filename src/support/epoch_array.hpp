// EpochArray<T>: a fixed-default array of values with a cheap whole-array
// reset.
//
// Generalizes StampSet from membership to values: each slot has one bit
// saying whether it was written since the last reset, kept in a StampSet,
// and a slot whose bit is clear reads as the default value. The values
// are allocated without zero-fill and read only under a set bit, so a
// trial touches only the value pages it writes, and reset() clears the
// ceil(n/64) bit words of the new size instead of n values. That is what
// lets a trial arena hand the same buffers to thousands of consecutive
// simulation trials with no per-trial allocation.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "support/assert.hpp"
#include "support/stamp_set.hpp"

namespace rumor {

template <typename T>
class EpochArray {
 public:
  EpochArray() = default;

  // Re-targets the array to `n` slots all reading `default_value`. Clears
  // ceil(n/64) words when capacity suffices (the steady-state trial path);
  // grows otherwise.
  void reset(std::size_t n, T default_value) {
    default_ = default_value;
    written_.reset(n);
    if (n > capacity_) {
      values_ = std::make_unique_for_overwrite<T[]>(n);
      capacity_ = n;
    }
  }

  [[nodiscard]] std::size_t size() const { return written_.size(); }
  [[nodiscard]] T default_value() const { return default_; }

  [[nodiscard]] T get(std::size_t i) const {
    return written_.contains(i) ? values_[i] : default_;
  }

  // True iff the slot was written since the last reset.
  [[nodiscard]] bool touched(std::size_t i) const {
    return written_.contains(i);
  }

  void set(std::size_t i, T value) {
    written_.insert(i);
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
  void prefetch(std::size_t i) const { view().prefetch(i); }

  // Raw-pointer read view for hot loops: hoists the array indirections out
  // of per-element reads. Reads made through a view observe set()/add()
  // writes (the buffers are stable for the life of a trial); the view
  // dangles after the next reset() that grows the array.
  struct View {
    const std::uint64_t* words;
    const T* values;
    T def;

    [[nodiscard]] T get(std::size_t i) const {
      return touched(i) ? values[i] : def;
    }
    [[nodiscard]] bool touched(std::size_t i) const {
      return slot_bits::test(words, i);
    }
    void prefetch(std::size_t i) const {
      slot_bits::prefetch(words, i);
      __builtin_prefetch(values + i, /*rw=*/0, /*locality=*/3);
    }
    // The bit alone, for a consumer that reads the value only of the few
    // slots whose bit is set (touched() first).
    void prefetch_stamp(std::size_t i) const {
      slot_bits::prefetch(words, i);
    }
  };

  [[nodiscard]] View view() const {
    return View{written_.words(), values_.get(), default_};
  }

  // Concurrent write view for parallel passes. Since 64 slots share a bit
  // word, every write inside a pass goes through it, owned slot or not:
  // claim() lets any number of threads claim the same slot, and exactly
  // one of them wins it (and writes its value) per reset; set() and add()
  // write a slot that only the calling thread writes in this pass. Inside
  // the pass, read bits through claimed() only, and values only of slots
  // the calling thread owns; the plain accessors are safe again once the
  // pass has joined.
  struct Claims {
    std::uint64_t* words;
    T* values;
    T def;

    [[nodiscard]] bool claimed(std::size_t i) const {
      return slot_bits::test_shared(words, i);
    }
    // Hints slot i's bit into cache ahead of a claimed()/claim().
    void prefetch_stamp(std::size_t i) const {
      slot_bits::prefetch(words, i);
    }
    // True for the one caller that moved slot i into this reset's writes.
    bool claim(std::size_t i, T value) const {
      if (!slot_bits::claim(words, i)) return false;
      values[i] = value;
      return true;
    }
    void set(std::size_t i, T value) const {
      values[i] = value;
      slot_bits::claim(words, i);
    }
    T add(std::size_t i, T delta) const {
      const T updated = (claimed(i) ? values[i] : def) + delta;
      set(i, updated);
      return updated;
    }
  };

  [[nodiscard]] Claims claims() {
    return Claims{written_.words(), values_.get(), default_};
  }

  // Materializes the logical contents (allocates; trace-export only).
  [[nodiscard]] std::vector<T> to_vector() const {
    std::vector<T> out(size());
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = get(i);
    return out;
  }

 private:
  StampSet written_;              // one bit per slot; logical size
  std::unique_ptr<T[]> values_;   // capacity_ slots, never zero-filled
  std::size_t capacity_ = 0;
  T default_{};
};

}  // namespace rumor
