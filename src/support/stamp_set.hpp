// StampSet: membership set over [0, n) with O(1) clear.
//
// Each element stores the "epoch" at which it was last inserted; advancing
// the epoch empties the set without touching memory. Protocol simulators use
// one epoch per round (e.g. "which vertices hold a previously-informed agent
// this round" in meet-exchange).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "support/assert.hpp"

namespace rumor {

class StampSet {
 public:
  StampSet() = default;
  explicit StampSet(std::size_t size) : stamps_(size, 0) {}

  [[nodiscard]] std::size_t size() const { return stamps_.size(); }

  // Re-targets the set to cover [0, n) and empties it; O(1) when capacity
  // suffices (arena reuse across trials), grows otherwise.
  void reset(std::size_t n) {
    if (n > stamps_.size()) {
      stamps_.assign(n, 0);
      epoch_ = 0;
    }
    advance();
  }

  // Empties the set. O(1) except when the 64-bit epoch wraps (never in
  // practice: 2^64 rounds).
  void advance() {
    ++epoch_;
    if (epoch_ == 0) {  // wrapped: do the (amortized-free) hard reset
      std::fill(stamps_.begin(), stamps_.end(), std::uint64_t{0});
      epoch_ = 1;
    }
  }

  void insert(std::size_t i) {
    RUMOR_CHECK(i < stamps_.size());
    stamps_[i] = epoch_;
  }

  // insert() for parallel passes: any number of threads may claim the same
  // element. The stamp is loaded before it is written, so an element that
  // millions of callers claim costs one contended write. Read the set with
  // contains() only after the pass has joined.
  void claim(std::size_t i) {
    RUMOR_CHECK(i < stamps_.size());
    std::atomic_ref<std::uint64_t> stamp(stamps_[i]);
    if (stamp.load(std::memory_order_relaxed) != epoch_) {
      stamp.store(epoch_, std::memory_order_relaxed);
    }
  }

  // Hints element i's stamp into cache ahead of a claim() or contains(),
  // like EpochArray's prefetch.
  void prefetch(std::size_t i) const {
    __builtin_prefetch(stamps_.data() + i, /*rw=*/0, /*locality=*/3);
  }

  [[nodiscard]] bool contains(std::size_t i) const {
    RUMOR_CHECK(i < stamps_.size());
    return stamps_[i] == epoch_;
  }

 private:
  std::vector<std::uint64_t> stamps_;
  std::uint64_t epoch_ = 1;
};

}  // namespace rumor
