// StampSet: membership set over [0, n), one bit per element.
//
// Protocol simulators use it for per-round marks (e.g. "which vertices
// hold a previously-informed agent this round" in meet-exchange, emptied
// by advance() every round), and EpochArray keeps its "written since the
// last reset" bits in one. Emptying clears the ceil(n/64) words of the
// logical size n and nothing else: 1.25 MB of sequential stores at
// n = 10^7, where a per-element stamp would hold 64 times the memory.
//
// 64 elements share a word, so a parallel pass must not write the set
// with plain stores even when each thread owns its elements: every write
// inside a pass goes through slot_bits::claim (StampSet::claim, or
// EpochArray::Claims), and reads inside the pass through
// slot_bits::test_shared.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>

#include "support/assert.hpp"

namespace rumor {

// The one-bit-per-slot word layout StampSet and EpochArray share.
namespace slot_bits {

[[nodiscard]] constexpr std::size_t words_for(std::size_t n) {
  return (n + 63) / 64;
}
[[nodiscard]] constexpr std::uint64_t mask(std::size_t i) {
  return std::uint64_t{1} << (i % 64);
}
[[nodiscard]] inline bool test(const std::uint64_t* words, std::size_t i) {
  return (words[i / 64] & mask(i)) != 0;
}
// Sets bit i from serial code (inside a parallel pass, use claim()).
inline void set(std::uint64_t* words, std::size_t i) {
  words[i / 64] |= mask(i);
}
// test() inside a parallel pass whose other threads may set bits of the
// same word.
[[nodiscard]] inline bool test_shared(std::uint64_t* words, std::size_t i) {
  return (std::atomic_ref<std::uint64_t>(words[i / 64]).load(
              std::memory_order_relaxed) &
          mask(i)) != 0;
}
// Sets bit i from inside a parallel pass: any number of threads may set
// the same bit or bits of the same word. True for the one caller that set
// it. The word is loaded before the fetch_or, so a bit that millions of
// callers set costs one contended write.
inline bool claim(std::uint64_t* words, std::size_t i) {
  std::atomic_ref<std::uint64_t> word(words[i / 64]);
  const std::uint64_t bit = mask(i);
  if ((word.load(std::memory_order_relaxed) & bit) != 0) return false;
  return (word.fetch_or(bit, std::memory_order_relaxed) & bit) == 0;
}
inline void prefetch(const std::uint64_t* words, std::size_t i) {
  __builtin_prefetch(words + i / 64, /*rw=*/0, /*locality=*/3);
}

}  // namespace slot_bits

class StampSet {
 public:
  StampSet() = default;
  explicit StampSet(std::size_t size) { reset(size); }

  [[nodiscard]] std::size_t size() const { return size_; }

  // Re-targets the set to cover [0, n) and empties it. Allocates only when
  // n exceeds every earlier size (arena reuse across trials).
  void reset(std::size_t n) {
    if (n > capacity_) {
      words_ = std::make_unique<std::uint64_t[]>(slot_bits::words_for(n));
      capacity_ = n;
    }
    size_ = n;
    advance();
  }

  // Empties the set by clearing the words of [0, size()). Words past them
  // may keep bits from an earlier, larger size; reset() clears those
  // before they are in range again.
  void advance() {
    std::fill_n(words_.get(), slot_bits::words_for(size_), std::uint64_t{0});
  }

  void insert(std::size_t i) {
    RUMOR_CHECK(i < size_);
    slot_bits::set(words_.get(), i);
  }

  // insert() for parallel passes (slot_bits::claim). Read the set with
  // contains() only after the pass has joined.
  void claim(std::size_t i) {
    RUMOR_CHECK(i < size_);
    slot_bits::claim(words_.get(), i);
  }

  // Hints element i's word into cache ahead of a claim() or contains(),
  // like EpochArray's prefetch.
  void prefetch(std::size_t i) const {
    slot_bits::prefetch(words_.get(), i);
  }

  [[nodiscard]] bool contains(std::size_t i) const {
    RUMOR_CHECK(i < size_);
    return slot_bits::test(words_.get(), i);
  }

  // The words behind [0, size()), for EpochArray's raw views.
  [[nodiscard]] const std::uint64_t* words() const { return words_.get(); }
  [[nodiscard]] std::uint64_t* words() { return words_.get(); }

 private:
  std::unique_ptr<std::uint64_t[]> words_;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;  // elements the words cover
};

}  // namespace rumor
