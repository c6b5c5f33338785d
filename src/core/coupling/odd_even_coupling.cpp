#include "core/coupling/odd_even_coupling.hpp"

#include "core/walk_options.hpp"

#include <algorithm>
#include <cmath>

namespace rumor {

OddEvenResult run_odd_even_coupling(const Graph& g, Vertex source,
                                    std::uint64_t seed,
                                    OddEvenOptions options) {
  RUMOR_REQUIRE(source < g.num_vertices());
  const Vertex n = g.num_vertices();
  const Round cutoff = round_cutoff(options.max_rounds, n);
  SharedChoices choices(g, derive_seed(seed, 1));
  Rng rng(derive_seed(seed, 0));
  OddEvenResult result;

  // --- coupled push: u's i-th sample is w_u(i) --------------------------
  {
    std::vector<std::uint32_t> inform_round(n, kNeverInformed);
    std::vector<std::uint32_t> informed_nbr(n, 0);
    std::vector<std::uint32_t> next_index(n, 0);
    std::vector<Vertex> active;
    std::uint32_t informed = 0;
    Round round = 0;
    auto inform = [&](Vertex v) {
      inform_round[v] = static_cast<std::uint32_t>(round);
      ++informed;
      active.push_back(v);
      const std::uint32_t dv = g.degree(v);
      for (std::uint32_t i = 0; i < dv; ++i) ++informed_nbr[g.neighbor(v, i)];
    };
    inform(source);
    while (informed < n && round < cutoff) {
      ++round;
      std::size_t kept = 0;
      for (Vertex v : active) {
        if (informed_nbr[v] < g.degree(v)) active[kept++] = v;
      }
      active.resize(kept);
      const std::size_t callers = active.size();
      for (std::size_t i = 0; i < callers; ++i) {
        const Vertex u = active[i];
        const Vertex v = choices.get(u, ++next_index[u]);
        if (inform_round[v] == kNeverInformed) inform(v);
      }
    }
    result.push_rounds = round;
    result.push_completed = (informed == n);
    result.push_inform_round = std::move(inform_round);
  }

  // --- coupled visit-exchange: agents visiting an informed u in an even
  // round follow w_u(i) at the next odd round ----------------------------
  {
    const std::size_t agent_count =
        resolve_agent_count(n, options.agent_count, options.alpha);
    AgentSystem agents(g, agent_count, options.placement, rng, source);
    std::vector<std::uint32_t> inform_round(n, kNeverInformed);
    std::vector<std::uint32_t> even_rank(n, 0);
    std::vector<std::uint8_t> agent_informed(agent_count, 0);
    std::uint32_t informed_vertices = 1;
    Round round = 0;

    inform_round[source] = 0;
    for (Agent a = 0; a < agent_count; ++a) {
      if (agents.position(a) == source) agent_informed[a] = 1;
    }

    std::vector<std::uint8_t> informed_before(agent_count);
    while (informed_vertices < n && round < cutoff) {
      ++round;
      const bool odd_round = (round % 2 == 1);
      // Departures at an odd round t+1 leave positions occupied at the even
      // round t: those from informed vertices follow the shared choices.
      for (Agent a = 0; a < agent_count; ++a) {
        const Vertex u = agents.position(a);
        Vertex dest;
        if (odd_round && inform_round[u] != kNeverInformed) {
          dest = choices.get(u, ++even_rank[u]);
        } else {
          dest = g.random_neighbor(u, rng);
        }
        agents.set_position(a, dest);
      }
      // Standard visit-exchange exchange phases.
      std::copy(agent_informed.begin(), agent_informed.end(),
                informed_before.begin());
      for (Agent a = 0; a < agent_count; ++a) {
        if (!informed_before[a]) continue;
        const Vertex v = agents.position(a);
        if (inform_round[v] == kNeverInformed) {
          inform_round[v] = static_cast<std::uint32_t>(round);
          ++informed_vertices;
        }
      }
      for (Agent a = 0; a < agent_count; ++a) {
        if (agent_informed[a]) continue;
        if (inform_round[agents.position(a)] != kNeverInformed) {
          agent_informed[a] = 1;
        }
      }
    }
    result.visitx_rounds = round;
    result.visitx_completed = (informed_vertices == n);
    result.visitx_inform_round = std::move(inform_round);
  }

  // Empirical Lemma 22 constant.
  if (result.push_completed && result.visitx_completed) {
    const double log_n = std::log(static_cast<double>(n));
    for (Vertex u = 0; u < n; ++u) {
      const double ratio =
          static_cast<double>(result.visitx_inform_round[u]) /
          (static_cast<double>(result.push_inform_round[u]) + log_n);
      result.max_ratio = std::max(result.max_ratio, ratio);
    }
  }
  return result;
}

}  // namespace rumor
