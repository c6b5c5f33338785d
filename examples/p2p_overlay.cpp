// Peer-to-peer overlay scenario.
//
// Random d-regular graphs are the standard model of unstructured p2p
// overlays (each peer keeps d neighbor links). This example disseminates a
// block announcement through a 10k-peer overlay and examines:
//   1. protocol choice on the healthy overlay (Theorem 1 regime),
//   2. behaviour under message loss (push-pull) and token churn
//      (visit-exchange with a dynamic agent population, paper §9),
//   3. the hybrid protocol as a robust default.
#include <cstdio>
#include <vector>

#include "core/dynamic_agents.hpp"
#include "core/hybrid.hpp"
#include "core/push_pull.hpp"
#include "core/visit_exchange.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

int main() {
  using namespace rumor;

  constexpr Vertex kPeers = 10000;
  constexpr std::uint32_t kDegree = 16;
  constexpr int kTrials = 10;

  Rng rng(2019);
  const Graph overlay = gen::random_regular(kPeers, kDegree, rng);
  std::printf("overlay: %u peers, degree %u, diameter >= %u\n\n",
              overlay.num_vertices(), kDegree,
              diameter_lower_bound(overlay, 4, 1));

  auto average = [&](auto&& run_once) {
    std::vector<double> samples;
    for (int seed = 0; seed < kTrials; ++seed) {
      samples.push_back(run_once(static_cast<std::uint64_t>(seed)));
    }
    return Summary::of(samples).mean;
  };

  TextTable table({"configuration", "mean rounds"});

  table.add_row({"push-pull, healthy",
                 TextTable::num(average([&](std::uint64_t seed) {
                   return double(run_push_pull(overlay, 0, seed).rounds);
                 }))});

  PushPullOptions lossy;
  lossy.transmission.tp = 0.7;  // each call's message lost w.p. 0.3
  table.add_row({"push-pull, 30% message loss",
                 TextTable::num(average([&](std::uint64_t seed) {
                   return double(
                       run_push_pull(overlay, 0, seed, lossy).rounds);
                 }))});

  table.add_row({"visit-exchange, healthy",
                 TextTable::num(average([&](std::uint64_t seed) {
                   return double(run_visit_exchange(overlay, 0, seed).rounds);
                 }))});

  DynamicAgentOptions churny;
  churny.churn = 0.1;  // 10% of tokens lost+reissued per round
  table.add_row({"visit-exchange, 10% token churn",
                 TextTable::num(average([&](std::uint64_t seed) {
                   return double(
                       run_dynamic_visit_exchange(overlay, 0, seed, churny)
                           .rounds);
                 }))});

  DynamicAgentOptions partition;
  partition.loss_round = 4;
  partition.loss_fraction = 0.75;
  table.add_row({"visit-exchange, 75% tokens lost at round 4",
                 TextTable::num(average([&](std::uint64_t seed) {
                   return double(
                       run_dynamic_visit_exchange(overlay, 0, seed, partition)
                           .rounds);
                 }))});

  table.add_row({"hybrid (push-pull + walks), healthy",
                 TextTable::num(average([&](std::uint64_t seed) {
                   return double(run_hybrid(overlay, 0, seed).rounds);
                 }))});

  std::printf("%s\n", table.render_plain().c_str());
  std::printf(
      "Takeaway: on a healthy regular overlay all protocols are within\n"
      "constant factors (Theorem 1); the dissemination asymmetries of\n"
      "Figure 1 only appear on skewed topologies. Losses degrade both\n"
      "mechanisms gracefully, and the hybrid inherits the faster side.\n");
  return 0;
}
