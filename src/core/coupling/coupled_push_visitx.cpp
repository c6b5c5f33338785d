#include "core/coupling/coupled_push_visitx.hpp"

#include "core/walk_options.hpp"

#include <algorithm>

namespace rumor {

CoupledPushVisitx::CoupledPushVisitx(const Graph& g, Vertex source,
                                     std::uint64_t seed,
                                     CoupledOptions options)
    : graph_(&g),
      source_(source),
      rng_(derive_seed(seed, 0)),
      options_(options),
      cutoff_(round_cutoff(options.max_rounds, g.num_vertices())),
      choices_(g, derive_seed(seed, 1)) {
  RUMOR_REQUIRE(source < g.num_vertices());
}

CoupledResult CoupledPushVisitx::run() {
  run_visitx();
  if (result_.visitx_completed) run_push();

  result_.lemma13_holds = result_.push_completed && result_.visitx_completed;
  if (result_.lemma13_holds) {
    for (Vertex u = 0; u < graph_->num_vertices(); ++u) {
      if (result_.push_inform_round[u] == kNeverInformed ||
          result_.push_inform_round[u] > result_.ccounter_at_inform[u]) {
        result_.lemma13_holds = false;
        break;
      }
    }
  }
  return result_;
}

void CoupledPushVisitx::run_visitx() {
  const Graph& g = *graph_;
  const Vertex n = g.num_vertices();
  const std::size_t agent_count =
      resolve_agent_count(n, options_.agent_count, options_.alpha);
  AgentSystem agents(g, agent_count, options_.placement, rng_, source_);

  std::vector<std::uint32_t> inform_round(n, kNeverInformed);
  std::vector<std::uint32_t> rank_next(n, 0);  // consumed shared choices
  std::vector<std::uint64_t> c_val(n, 0);
  std::vector<std::uint64_t> c_at_inform(n, 0);
  std::vector<Vertex> parent(n, kNoVertex);
  std::vector<Vertex> prev_pos(agent_count);
  std::vector<Agent> order(agent_count);
  std::vector<std::uint32_t> index_of(agent_count);
  for (Agent a = 0; a < agent_count; ++a) {
    order[a] = a;
    index_of[a] = a;
  }
  std::size_t informed_agents = 0;
  std::uint32_t informed_vertices = 0;
  Round round = 0;

  auto inform_agent_at = [&](std::size_t order_index) {
    RUMOR_CHECK(order_index >= informed_agents);
    const Agent a = order[order_index];
    const auto dest = static_cast<std::uint32_t>(informed_agents);
    const Agent other = order[dest];
    order[dest] = a;
    order[order_index] = other;
    index_of[a] = dest;
    index_of[other] = static_cast<std::uint32_t>(order_index);
    ++informed_agents;
  };

  auto end_of_round = [&] {
    // C_u(t+1) = C_u(t) + |Z_u(t)| for informed u: one increment per agent
    // standing on an informed vertex.
    for (Agent a = 0; a < agent_count; ++a) {
      const Vertex v = agents.position(a);
      if (inform_round[v] != kNeverInformed) ++c_val[v];
    }
    if (options_.record_occupancy_history) {
      occupancy_history_.push_back(agents.occupancy());
      ccounter_history_.push_back(c_val);
    }
  };

  // Round 0: source informed; agents on the source informed.
  inform_round[source_] = 0;
  informed_vertices = 1;
  c_at_inform[source_] = 0;
  for (Agent a = 0; a < agent_count; ++a) {
    if (agents.position(a) == source_) inform_agent_at(index_of[a]);
  }
  end_of_round();

  std::vector<Vertex> newly_informed;
  while (informed_vertices < n && round < cutoff_) {
    ++round;

    // Movement: departures from informed vertices follow the shared
    // choices, in ascending agent id (the canonical visit order).
    for (Agent a = 0; a < agent_count; ++a) {
      const Vertex u = agents.position(a);
      prev_pos[a] = u;
      Vertex dest;
      if (inform_round[u] != kNeverInformed) {
        dest = choices_.get(u, ++rank_next[u]);
      } else {
        dest = g.random_neighbor(u, rng_);
      }
      agents.set_position(a, dest);
    }

    // Phase A: previously informed agents inform their vertex; maintain the
    // C-counter initialization C_u(t_u) = min_{v in S_u} C_v(t_u).
    const std::size_t informed_at_start = informed_agents;
    newly_informed.clear();
    for (std::size_t idx = 0; idx < informed_at_start; ++idx) {
      const Agent a = order[idx];
      const Vertex u = agents.position(a);
      const Vertex v = prev_pos[a];
      RUMOR_CHECK(inform_round[v] != kNeverInformed);  // informed agents
                                                       // stand on informed
                                                       // vertices
      if (inform_round[u] == kNeverInformed) {
        inform_round[u] = static_cast<std::uint32_t>(round);
        ++informed_vertices;
        c_val[u] = c_val[v];
        parent[u] = v;
        newly_informed.push_back(u);
      } else if (inform_round[u] == round && c_val[v] < c_val[u]) {
        c_val[u] = c_val[v];  // tighter member of S_u
        parent[u] = v;
      }
    }
    for (Vertex u : newly_informed) c_at_inform[u] = c_val[u];

    // Phase B: uninformed agents standing on informed vertices.
    for (std::size_t idx = informed_at_start; idx < agent_count; ++idx) {
      const Agent a = order[idx];
      if (inform_round[agents.position(a)] != kNeverInformed) {
        inform_agent_at(idx);
      }
    }

    end_of_round();
  }

  result_.visitx_rounds = round;
  result_.visitx_completed = (informed_vertices == n);
  result_.visitx_inform_round = std::move(inform_round);
  result_.ccounter_at_inform = std::move(c_at_inform);
  result_.parent = std::move(parent);
  result_.max_ccounter = 0;
  if (result_.visitx_completed) {
    result_.max_ccounter = *std::max_element(
        result_.ccounter_at_inform.begin(), result_.ccounter_at_inform.end());
  }
}

void CoupledPushVisitx::run_push() {
  const Graph& g = *graph_;
  const Vertex n = g.num_vertices();
  // Lemma 13 bounds every τ_u by C_u(t_u), so the coupled push must finish
  // within max_ccounter rounds; the +2 slack means a violation surfaces as
  // push_completed == false instead of an infinite loop.
  const Round push_cutoff = result_.max_ccounter + 2;

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

  inform(source_);
  while (informed < n && round < push_cutoff) {
    ++round;
    std::size_t kept = 0;
    for (Vertex v : active) {
      if (informed_nbr[v] < g.degree(v)) active[kept++] = v;
    }
    active.resize(kept);
    const std::size_t callers = active.size();
    for (std::size_t i = 0; i < callers; ++i) {
      const Vertex u = active[i];
      const Vertex v = choices_.get(u, ++next_index[u]);
      if (inform_round[v] == kNeverInformed) inform(v);
    }
  }

  result_.push_rounds = round;
  result_.push_completed = (informed == n);
  result_.push_inform_round = std::move(inform_round);
}

std::uint64_t CoupledPushVisitx::ccounter_at(Vertex u, Round t) const {
  RUMOR_REQUIRE(options_.record_occupancy_history);
  RUMOR_REQUIRE(u < graph_->num_vertices());
  const std::uint32_t t_u = result_.visitx_inform_round[u];
  RUMOR_REQUIRE(t_u != kNeverInformed);
  if (t < t_u) return 0;
  if (t == t_u) return result_.ccounter_at_inform[u];
  // ccounter_history_[r][u] holds the counter after round r's end-of-round
  // increment, which by eq. (4) is C_u(r+1).
  RUMOR_REQUIRE(t - 1 < ccounter_history_.size());
  return ccounter_history_[t - 1][u];
}

}  // namespace rumor
