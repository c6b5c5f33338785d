// E16 — §9 robustness: the paper notes classical rumor spreading tolerates
// faults while the agent protocols risk "losing" agents, and sketches a
// dynamic agent population (age/die/birth) as the fix. We measure:
//   (i)  push / push-pull under per-call message loss (the classical
//        robustness baseline),
//   (ii) visit-exchange with dynamic agent churn (die + uninformed rebirth),
//   (iii) visit-exchange surviving a one-shot loss of half the agents.
#include <cstdio>

#include "common.hpp"
#include "core/dynamic_agents.hpp"
#include "graph/generators.hpp"

namespace {

using namespace rumor;
using namespace rumor::bench;

constexpr Vertex kN = 1 << 12;

Graph make_graph() {
  Rng rng(master_seed() ^ 0x0B057u);
  return gen::random_regular(kN, 16, rng);
}

void register_all() {
  // (i) lossy push-pull: independent per-call loss q is tp = 1 - q.
  for (double loss : {0.0, 0.25, 0.5}) {
    register_point(
        "robust/push-pull/loss=" + std::to_string(loss),
        [loss](benchmark::State& state) {
          const Graph g = make_graph();
          ProtocolSpec spec = default_spec(Protocol::push_pull);
          spec.push_pull().transmission.tp = 1.0 - loss;
          measure_point(state, "push-pull vs loss", loss, g, spec, 0,
                        trials_or(20));
        });
  }
  // (ii) agent churn.
  for (double churn : {0.0, 0.05, 0.2}) {
    register_point(
        "robust/visitx/churn=" + std::to_string(churn),
        [churn](benchmark::State& state) {
          const Graph g = make_graph();
          TrialArena arena;  // reused across trials: measures protocol cost
          std::vector<double> rounds;
          std::size_t incomplete = 0;
          for (auto _ : state) {
            for (std::size_t i = 0; i < trials_or(20); ++i) {
              DynamicAgentOptions options;
              options.churn = churn;
              const RunResult r = run_dynamic_visit_exchange(
                  g, 0, derive_seed(master_seed(), i), options, &arena);
              rounds.push_back(static_cast<double>(r.rounds));
              if (!r.completed) ++incomplete;
            }
          }
          SeriesRegistry::instance().record("visitx vs churn", churn,
                                            Summary::of(rounds));
          state.counters["incomplete"] = static_cast<double>(incomplete);
        });
  }
  // (iii) bulk agent loss at round 5.
  for (double loss : {0.0, 0.5, 0.9}) {
    register_point(
        "robust/visitx/bulk=" + std::to_string(loss),
        [loss](benchmark::State& state) {
          const Graph g = make_graph();
          TrialArena arena;  // reused across trials: measures protocol cost
          std::vector<double> rounds;
          for (auto _ : state) {
            for (std::size_t i = 0; i < trials_or(20); ++i) {
              DynamicAgentOptions options;
              options.loss_round = 5;
              options.loss_fraction = loss;
              const RunResult r = run_dynamic_visit_exchange(
                  g, 0, derive_seed(master_seed(), i), options, &arena);
              rounds.push_back(static_cast<double>(r.rounds));
            }
          }
          SeriesRegistry::instance().record("visitx vs bulk loss", loss,
                                            Summary::of(rounds));
        });
  }
}

void report() {
  auto& registry = SeriesRegistry::instance();
  std::printf("\n=== E16 — robustness (random 16-regular, n=%u) ===\n", kN);
  std::printf("%s\n", series_table({"push-pull vs loss"}, "loss p").c_str());
  std::printf("%s\n",
              series_table({"visitx vs churn"}, "churn p").c_str());
  std::printf("%s\n",
              series_table({"visitx vs bulk loss"}, "lost frac").c_str());

  const auto loss = registry.series("push-pull vs loss");
  print_claim(loss.points.back().summary.mean <
                  3.0 * loss.points.front().summary.mean,
              "E16(i): push-pull degrades gracefully under 50% message loss",
              "T: " + TextTable::num(loss.points.front().summary.mean, 1) +
                  " -> " + TextTable::num(loss.points.back().summary.mean, 1));

  const auto churn = registry.series("visitx vs churn");
  print_claim(churn.points.back().summary.mean <
                  4.0 * churn.points.front().summary.mean,
              "E16(ii): visit-exchange completes despite 20% per-round agent "
              "churn (dynamic population, paper §9)",
              "T: " + TextTable::num(churn.points.front().summary.mean, 1) +
                  " -> " + TextTable::num(churn.points.back().summary.mean, 1));

  const auto bulk = registry.series("visitx vs bulk loss");
  print_claim(bulk.points.back().summary.mean <
                  12.0 * bulk.points.front().summary.mean,
              "E16(iii): one-shot loss of 90% of agents delays but does not "
              "kill the broadcast",
              "T: " + TextTable::num(bulk.points.front().summary.mean, 1) +
                  " -> " + TextTable::num(bulk.points.back().summary.mean, 1));

  maybe_dump_csv("robustness", registry.all());
}

}  // namespace

RUMOR_BENCH_MAIN(register_all, report)
