// Vose's alias method for O(1) sampling from a fixed discrete distribution.
//
// Used to place agents by the random-walk stationary distribution
// π(v) = deg(v) / 2|E| (paper §3) in O(1) per agent after O(n) setup.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "support/rng.hpp"

namespace rumor {

class AliasSampler {
 public:
  // Weights must be non-negative with a positive sum.
  explicit AliasSampler(std::span<const double> weights);

  // Index in [0, size()) with probability weight[i] / sum(weights).
  [[nodiscard]] std::size_t sample(Rng& rng) const;

  [[nodiscard]] std::size_t size() const { return prob_.size(); }

  // The table: column i is kept with probability prob()[i], else it
  // yields alias()[i].
  [[nodiscard]] std::span<const double> prob() const { return prob_; }
  [[nodiscard]] std::span<const std::uint32_t> alias() const {
    return alias_;
  }

 private:
  std::vector<double> prob_;        // acceptance probability per column
  std::vector<std::uint32_t> alias_;  // fallback index per column
};

}  // namespace rumor
