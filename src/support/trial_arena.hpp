// TrialArena: reusable per-worker scratch state for simulation trials.
//
// Every protocol trial needs the same O(n + m) working set: per-vertex
// inform rounds, per-vertex counters, agent orderings, frontier lists.
// Allocating and zeroing that state per trial dominates wall-clock once a
// single round is cheap, so the trial runner keeps one arena per worker
// thread and hands it to every trial that worker executes. Epoch-stamped
// members reset in O(1); plain vectors are clear()ed, which keeps their
// capacity, so a steady-state trial performs zero heap allocations.
//
// An arena serves one trial at a time (each worker owns one); simulators
// that are constructed without an arena fall back to a privately owned one,
// preserving the allocate-per-run behavior of the original API.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "support/epoch_array.hpp"
#include "support/stamp_set.hpp"

namespace rumor {

// Transmission-model fields (core/transmission) materialized per (graph,
// parameters) binding: the per-vertex receive probabilities, the CSR-slot
// aligned per-edge copies, and the blocked set. Cached by graph uid +
// parameters so steady-state trials on one graph rebuild nothing; vectors
// keep their capacity across rebinds, so rebinding allocates only at a new
// high-water mark.
struct TransmissionScratch {
  std::uint64_t graph_uid = 0;  // 0 = empty cache
  double tp = 1.0;
  double exponent = 0.0;
  double block_fraction = 0.0;
  bool degree_scaled = false;
  std::vector<float> vertex_success;   // n entries
  std::vector<float> edge_success;     // 2m entries, CSR-slot aligned
  // Implicit-backend graphs have no CSR offsets array; when a traced bind
  // needs the slot-aligned edge field, the degree prefix sums are
  // materialized here (n + 1 entries) so attempt_slot keeps its one-load
  // indexing on every backend.
  std::vector<std::uint32_t> implicit_offsets;
  // Field extrema, recorded at build time: a constant sub-1 field
  // (min == max < 1) is what licenses the geometric skip-sampling mode.
  float field_min = 1.0f;
  float field_max = 1.0f;
  std::vector<std::uint8_t> blocked;   // n entries (1 = quarantined)
  std::uint32_t blocked_count = 0;
  std::vector<std::uint32_t> order;    // degree-sort scratch for blocking
};

struct TrialArena {
  // Per-vertex / per-agent inform rounds (default = kNeverInformed).
  EpochArray<std::uint32_t> vertex_inform_round;
  EpochArray<std::uint32_t> agent_inform_round;
  // Per-vertex informed-neighbor counters for push/push-pull saturation
  // retirement (default = 0).
  EpochArray<std::uint32_t> informed_nbr_count;
  // Generic vertex membership: meet-exchange's per-round "informed agent
  // stands here" marks, push-pull's and hybrid's ever-in-frontier marks.
  StampSet vertex_marks;
  // Generic agent membership: the dynamic-agent simulator's born-this-round
  // marks (advance()d per round).
  StampSet agent_marks;
  // Per-agent liveness for the dynamic-agent simulator (default = alive).
  EpochArray<std::uint8_t> agent_alive;

  // Agent-order permutation and its inverse, epoch-reset to the identity:
  // an untouched slot reads as the sentinel default and is interpreted as
  // "order[i] == i" by the owning simulator.
  EpochArray<std::uint32_t> agent_order;
  EpochArray<std::uint32_t> order_index_of;

  // Reusable plain buffers (clear() keeps capacity across trials).
  std::vector<std::uint32_t> agent_positions;
  std::vector<std::uint32_t> active;    // push/push-pull caller list
  std::vector<std::uint32_t> frontier;  // push-pull puller list
  // Calendar buckets for push's geometric skip-sampling path: a 64-round
  // wake ring plus a far-future overflow chain, matured back into the ring
  // every 64 rounds. Each ring bucket is a small flat slot array (walked
  // with plain sequential loads at its round) backed by an intrusive
  // linked-list spill for bursts; the far chain is list-only. Every caller
  // has at most one outstanding wake, so the lists thread through
  // per-vertex arrays — per-trial reset writes the 65 heads plus 64
  // counts, and steady-state trials allocate nothing.
  std::vector<std::uint32_t> wake_slots;  // 64 buckets x capacity, flat
  std::vector<std::uint32_t> wake_counts;  // per-bucket slot occupancy
  std::vector<std::uint32_t> wake_heads;  // 64 spill chains + 1 far head
  std::vector<std::uint32_t> wake_next;   // per-vertex chain link
  std::vector<std::uint64_t> wake_round;  // per-vertex wake round (far only)
  std::vector<std::uint32_t> curve;     // informed-curve trace
  std::vector<std::uint64_t> edge_traffic;  // per-edge trace counters

  // Multi-rumor scratch: per-vertex / per-agent rumor bitmasks, their
  // round-start snapshots, and the (≤ 64-entry) per-rumor bookkeeping.
  std::vector<std::uint64_t> vertex_rumors;
  std::vector<std::uint64_t> vertex_rumors_before;
  std::vector<std::uint64_t> agent_rumors;
  std::vector<std::uint64_t> agent_rumors_before;
  std::vector<std::uint32_t> rumor_have_count;
  std::vector<std::uint64_t> rumor_completion;

  // Per-shard output segments for the frontier-sharded round kernels:
  // shard s filters survivors into shard_scratch[s].survivors and appends
  // its delivery candidates to shard_scratch[s].candidates; the serial
  // shard-major concat or merge then drains them in slot order. (One
  // vector could serve both, since every pass drains its segments before
  // the next starts, but that made a width-4 sharded hybrid trial on the
  // 10^7-leaf star about 1.3x slower on a 4-vCPU host.) Passes that write
  // in place instead (atomic claims, per-agent informs) leave their
  // per-shard counts in shard_scratch[s].tally. Sized and cleared by the
  // pass helpers in core/sharding; capacity persists across rounds and
  // trials, so steady-state rounds allocate nothing.
  struct ShardTally {
    std::size_t informs = 0;
    bool source_met = false;  // meet-exchange: an agent learned at the source
  };
  struct ShardScratch {
    std::vector<std::uint32_t> survivors;
    std::vector<std::uint32_t> candidates;
    ShardTally tally;
  };
  std::vector<ShardScratch> shard_scratch;

  // Transmission-model field cache (see core/transmission).
  TransmissionScratch transmission;

  // Cache for expensive per-graph placement structures (the serial
  // engines' stationary alias sampler; sharded placement needs none).
  // Keyed by Graph::uid() so a rebuilt graph at a recycled address cannot
  // alias a stale cache. Opaque here to keep support/ free of walk-layer
  // dependencies.
  std::uint64_t placement_cache_key = 0;  // 0 = empty
  std::shared_ptr<void> placement_cache;
};

// View over the arena's agent-order permutation and its inverse, decoding
// the identity-default sentinel (an untouched slot i reads as "order[i] ==
// i"). Shared by the simulators that maintain an informed-prefix partition
// (the serial engines of visit-exchange, meet-exchange and hybrid, and the
// frog model).
class AgentOrderView {
 public:
  // Re-targets both arrays to the identity permutation over [0, count).
  void reset(TrialArena& arena, std::size_t count) {
    order_ = &arena.agent_order;
    inverse_ = &arena.order_index_of;
    order_->reset(count, kIdentitySlot);
    inverse_->reset(count, kIdentitySlot);
  }

  [[nodiscard]] std::uint32_t at(std::size_t idx) const {
    const std::uint32_t raw = order_->get(idx);
    return raw == kIdentitySlot ? static_cast<std::uint32_t>(idx) : raw;
  }

  [[nodiscard]] std::uint32_t index_of(std::uint32_t element) const {
    const std::uint32_t raw = inverse_->get(element);
    return raw == kIdentitySlot ? element : raw;
  }

  // Swaps the permutation entries at positions i and j.
  void swap(std::size_t i, std::size_t j) {
    const std::uint32_t a = at(i);
    const std::uint32_t b = at(j);
    order_->set(j, a);
    order_->set(i, b);
    inverse_->set(a, static_cast<std::uint32_t>(j));
    inverse_->set(b, static_cast<std::uint32_t>(i));
  }

 private:
  static constexpr std::uint32_t kIdentitySlot = 0xFFFFFFFFu;

  EpochArray<std::uint32_t>* order_ = nullptr;
  EpochArray<std::uint32_t>* inverse_ = nullptr;
};

}  // namespace rumor
