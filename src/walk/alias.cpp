#include "walk/alias.hpp"

#include <vector>

#include "support/assert.hpp"

namespace rumor {

// Vose's two-stack build, in place: prob_ holds each column's scaled
// weight until the column is settled, and one n-entry array holds both
// worklists, the small stack growing from the front and the large one from
// the back. Each pairing pops one index from each stack and pushes one
// back, so together they never hold more than n. Pops and pushes run in
// the order of two separate stacks, so the table is bit-identical to that
// build, at 16 bytes per column while it runs instead of 28.
AliasSampler::AliasSampler(std::span<const double> weights) {
  RUMOR_REQUIRE(!weights.empty());
  const std::size_t n = weights.size();
  double total = 0.0;
  for (double w : weights) {
    RUMOR_REQUIRE(w >= 0.0);
    total += w;
  }
  RUMOR_REQUIRE(total > 0.0);

  // Scale weights so the mean column holds probability 1.
  prob_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    prob_[i] = weights[i] * static_cast<double>(n) / total;
  }
  alias_.assign(n, 0);

  std::vector<std::uint32_t> work(n);
  std::size_t small = 0;  // work[0, small)
  std::size_t large = n;  // work[large, n); its top is work[large]
  auto push = [&](std::uint32_t i) {
    if (prob_[i] < 1.0) {
      work[small++] = i;
    } else {
      work[--large] = i;
    }
  };
  for (std::size_t i = 0; i < n; ++i) push(static_cast<std::uint32_t>(i));

  while (small > 0 && large < n) {
    const std::uint32_t s = work[--small];
    const std::uint32_t l = work[large++];
    alias_[s] = l;
    prob_[l] = (prob_[l] + prob_[s]) - 1.0;
    push(l);
  }
  // Residual columns are (numerically) exactly 1.
  for (std::size_t k = large; k < n; ++k) prob_[work[k]] = 1.0;
  for (std::size_t k = 0; k < small; ++k) prob_[work[k]] = 1.0;
}

std::size_t AliasSampler::sample(Rng& rng) const {
  const std::size_t column = rng.below(prob_.size());
  return rng.uniform01() < prob_[column] ? column : alias_[column];
}

}  // namespace rumor
