#include "walk/agents.hpp"

#include <cmath>
#include <memory>

#include "support/philox.hpp"
#include "support/thread_pool.hpp"
#include "walk/alias.hpp"
#include "walk/step_kernel.hpp"

namespace rumor {

const AliasSampler& stationary_sampler(const Graph& g, TrialArena* arena,
                                       std::shared_ptr<AliasSampler>& keepalive) {
  if (arena != nullptr && arena->placement_cache_key == g.uid() &&
      arena->placement_cache != nullptr) {
    return *static_cast<const AliasSampler*>(arena->placement_cache.get());
  }
  std::vector<double> weights(g.num_vertices());
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    weights[v] = static_cast<double>(g.degree(v));
  }
  keepalive = std::make_shared<AliasSampler>(weights);
  if (arena != nullptr) {
    arena->placement_cache = keepalive;
    arena->placement_cache_key = g.uid();
  }
  return *keepalive;
}

std::size_t agent_count_for(Vertex n, double alpha) {
  RUMOR_REQUIRE(alpha > 0.0);
  const auto count =
      static_cast<std::size_t>(std::llround(alpha * static_cast<double>(n)));
  return count > 0 ? count : 1;
}

namespace {

// The sharded placement pass (see ShardedPlacement): slot = agent id.
void place_sharded(const Graph& g, std::span<Vertex> positions,
                   Placement placement, Vertex anchor,
                   const ShardedPlacement& sharded) {
  const ShardPlane plane(sharded.trial_seed, /*round=*/0);
  const std::uint64_t edge_slots = g.total_degree();
  RUMOR_REQUIRE(placement != Placement::stationary || edge_slots > 0);
  const Vertex n = g.num_vertices();
  Vertex* pos = positions.data();
  shard_pool().parallel_for_ranges(
      positions.size(), sharded.width,
      [&](std::size_t /*shard*/, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          const auto a = static_cast<Agent>(i);
          SlotDraws draws(plane, kShardPhasePlace, a);
          switch (placement) {
            case Placement::stationary: {
              const std::uint64_t slot = word_below(draws, edge_slots);
              const auto [u, v] =
                  g.edge_endpoints(static_cast<EdgeId>(slot >> 1));
              pos[i] = (slot & 1) != 0 ? v : u;
              break;
            }
            case Placement::one_per_vertex:
              pos[i] = a;
              break;
            case Placement::uniform:
              pos[i] = word_below(draws, n);
              break;
            case Placement::at_vertex:
              pos[i] = anchor;
              break;
          }
        }
      });
}

}  // namespace

AgentSystem::AgentSystem(const Graph& g, std::size_t count,
                         Placement placement, Rng& rng, Vertex anchor,
                         TrialArena* arena, ShardedPlacement sharded)
    : graph_(&g),
      positions_(arena != nullptr ? &arena->agent_positions
                                  : &owned_positions_) {
  RUMOR_REQUIRE(count > 0 && count <= kMaxAgents);
  RUMOR_REQUIRE(placement != Placement::one_per_vertex ||
                count == g.num_vertices());
  RUMOR_REQUIRE(placement != Placement::at_vertex ||
                anchor < g.num_vertices());
  positions_->resize(count);
  if (sharded.width != 0) {
    place_sharded(g, *positions_, placement, anchor, sharded);
    return;
  }
  switch (placement) {
    case Placement::stationary: {
      std::shared_ptr<AliasSampler> local;
      const AliasSampler& sampler = stationary_sampler(g, arena, local);
      for (auto& pos : *positions_) {
        pos = static_cast<Vertex>(sampler.sample(rng));
      }
      break;
    }
    case Placement::one_per_vertex: {
      for (Agent a = 0; a < count; ++a) (*positions_)[a] = a;
      break;
    }
    case Placement::uniform: {
      for (auto& pos : *positions_) {
        pos = static_cast<Vertex>(rng.below(g.num_vertices()));
      }
      break;
    }
    case Placement::at_vertex: {
      for (auto& pos : *positions_) pos = anchor;
      break;
    }
  }
}

void AgentSystem::step_all(Rng& rng, Laziness lazy) {
  step_walks(*graph_, positions_mut(), rng, lazy);
}

std::vector<std::uint32_t> AgentSystem::occupancy() const {
  std::vector<std::uint32_t> occ(graph_->num_vertices(), 0);
  for (Vertex pos : *positions_) ++occ[pos];
  return occ;
}

}  // namespace rumor
