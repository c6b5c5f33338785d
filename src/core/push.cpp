#include "core/push.hpp"

#include "core/registry.hpp"
#include "core/sharding.hpp"
#include "graph/access.hpp"
#include "support/philox.hpp"
#include "support/spec_text.hpp"
#include "support/thread_pool.hpp"
#include "walk/step_kernel.hpp"  // word_below: the shared Lemire slot draw

namespace rumor {

namespace {
// Hub threshold for parallelizing inform()'s informed-neighbor bump in
// sharded mode: below it the fan-out overhead beats the win. On the star,
// THE dominant round cost is this one O(n) bump when the center informs —
// parallelizing it is what BM_ShardedPush measures.
constexpr std::uint32_t kShardBumpThreshold = 1u << 16;
// Calendar ring size: wakes within the next 63 rounds live in the ring
// (bucket = wake & 63); anything further sits in the far chain (head index
// kWakeBuckets) and is matured back into the ring every 64 rounds. Must be
// a power of two.
constexpr std::uint64_t kWakeBuckets = 64;
// Flat slots per ring bucket. A bucket's wakes are walked with plain
// sequential loads; only bursts beyond the capacity fall back to the
// intrusive spill chain (pointer-chased, like the far chain).
constexpr std::uint32_t kBucketCap = 32;
}  // namespace

PushProcess::PushProcess(const Graph& g, Vertex source, std::uint64_t seed,
                         PushOptions options, TrialArena* arena)
    : graph_(&g),
      rng_(seed),
      options_(options),
      trial_(options.max_rounds, g.num_vertices(), options.trace,
             InformRounds::vertices),
      arena_(arena) {
  RUMOR_REQUIRE(source < g.num_vertices());
  model_.bind(g, options_.transmission, *arena_, seed);
  // Engine choice is pure in (options, n) — see core/sharding.
  sharded_ = sharding_enabled(options_.shards, g.num_vertices());
  if (sharded_) {
    shard_width_ = resolve_shard_width(options_.shards);
    seed_ = seed;
  }
  // The calendar path schedules only successful calls (a failed call is
  // unobservable), so it needs a single constant success probability for
  // the geometric gaps. The sharded engine replaces it wholesale (per-slot
  // draws, not a serial calendar).
  skip_ = !sharded_ && model_.sample_mode() == SampleMode::skip_uniform;
  target_ = g.num_vertices();
  arena_->vertex_inform_round.reset(g.num_vertices(), kNeverInformed);
  arena_->informed_nbr_count.reset(g.num_vertices(), 0);
  arena_->active.clear();
  arena_->active.reserve(g.num_vertices());  // high-water once, then free
  if (skip_) {
    // Chain links and slots are only ever read through a head or an
    // occupancy count, so stale per-vertex entries from a previous trial
    // need no clearing.
    arena_->wake_slots.resize(kWakeBuckets * kBucketCap);
    arena_->wake_counts.assign(kWakeBuckets, 0);
    arena_->wake_heads.assign(kWakeBuckets + 1, kNoVertex);
    arena_->wake_next.resize(g.num_vertices());
    arena_->wake_round.resize(g.num_vertices());
  }
  inform(source);
}

void PushProcess::inform(Vertex v) {
  RUMOR_CHECK(!arena_->vertex_inform_round.touched(v));
  arena_->vertex_inform_round.set(v, static_cast<std::uint32_t>(round_));
  ++informed_count_;
  last_inform_round_ = round_;
  if (skip_) {
    // First successful call of the new spreader: its calls start next
    // round, so the wake is round + 1 + (failed calls before the success).
    // A spreader born saturated is never scheduled at all — every one of
    // its calls would land on an informed vertex, so its entire future
    // (gaps included) is unobservable.
    if (arena_->informed_nbr_count.get(v) < graph_->degree_unchecked(v)) {
      schedule(v, round_ + 1 + model_.next_gap());
    }
  } else {
    arena_->active.push_back(v);
  }
  const std::uint32_t deg = graph_->degree_unchecked(v);
  if (sharded_ && deg >= kShardBumpThreshold) {
    // Hub inform: the O(deg) neighbor bump dominates star-like rounds, and
    // the neighbors of one vertex are distinct, so EpochArray::add on them
    // from different shards touches disjoint slots — race-free. The bump
    // order changes, but the counters are order-independent sums.
    with_graph_access(*graph_, [&](const auto& acc) {
      const GraphRow row = acc.row(v);
      shard_pool().parallel_for_ranges(
          deg, shard_width_,
          [&](std::size_t /*shard*/, std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i) {
              arena_->informed_nbr_count.add(
                  acc.pick(row, static_cast<std::uint32_t>(i)), 1);
            }
          });
    });
    return;
  }
  for (std::uint32_t i = 0; i < deg; ++i) {
    arena_->informed_nbr_count.add(graph_->neighbor_unchecked(v, i), 1);
  }
}

void PushProcess::link(Vertex v, std::uint64_t wake) {
  // Ring entries encode their wake round in the bucket index alone; the
  // per-vertex wake_round slot is written only for far-chain entries
  // (maturation is the only reader), which keeps the common-case insert to
  // two stores.
  if (wake - round_ < kWakeBuckets) {
    const std::uint64_t b = wake & (kWakeBuckets - 1);
    const std::uint32_t c = arena_->wake_counts[b];
    if (c < kBucketCap) {
      arena_->wake_slots[b * kBucketCap + c] = v;
      arena_->wake_counts[b] = c + 1;
      return;
    }
    arena_->wake_next[v] = arena_->wake_heads[b];  // burst spill
    arena_->wake_heads[b] = v;
    return;
  }
  arena_->wake_round[v] = wake;
  arena_->wake_next[v] = arena_->wake_heads[kWakeBuckets];
  arena_->wake_heads[kWakeBuckets] = v;
}

void PushProcess::schedule(Vertex v, std::uint64_t wake) {
  ++pending_;
  link(v, wake);
}

void PushProcess::activate_blocking() {
  // Vertices quarantined while uninformed can never be informed; informed
  // blocked vertices count toward the (already reached) target. Counting
  // them as "informed" in the neighbor counters lets saturation retirement
  // drop callers whose remaining uninformed neighbors are all quarantined —
  // and an empty caller list then halts the run (see halted()).
  const std::uint8_t* blocked = model_.blocked_flags();
  const Vertex n = graph_->num_vertices();
  for (Vertex v = 0; v < n; ++v) {
    if (blocked[v] != 0 && !arena_->vertex_inform_round.touched(v)) {
      const std::uint32_t deg = graph_->degree_unchecked(v);
      for (std::uint32_t i = 0; i < deg; ++i) {
        arena_->informed_nbr_count.add(graph_->neighbor_unchecked(v, i), 1);
      }
    }
  }
  target_ =
      n - model_.count_blocked_uninformed(arena_->vertex_inform_round, n);
}

void PushProcess::step() {
  if (sharded_) {
    with_graph_access(*graph_, [&](const auto& acc) {
      if (model_.trivial()) {
        step_sharded<transmission::Uniform>(acc);
      } else {
        step_sharded<transmission::General>(acc);
      }
    });
  } else if (model_.trivial()) {
    step_impl<transmission::Uniform>();
  } else if (skip_) {
    with_graph_access(*graph_, [&](const auto& acc) { step_skip(acc); });
  } else {
    step_impl<transmission::General>();
  }
}

// One calendar round. Equivalent in law to step_impl<General> with a
// constant field p: a caller's per-round coin flips are replaced by the
// geometric gap to its next success, and the uniform neighbor pick happens
// at the success (the success coin is independent of which neighbor was
// drawn, so drawing success-first is the same joint distribution — and the
// neighbor picks of failed calls are unobservable).
// Saturated / stifled / quarantined callers retire lazily at their wake:
// all three conditions are permanent once true.
template <class Access>
void PushProcess::step_skip(const Access& acc) {
  auto* heads = arena_->wake_heads.data();
  auto* next = arena_->wake_next.data();
  const bool restricted = model_.stifle() != 0 || model_.blocking();
  // Traced runs and runs with interventions advance one round per step():
  // the run loop records the informed curve after every step(). The plain
  // heterogeneous-tp workload has neither, so it drains the calendar in a
  // batch — views hoisted once, rounds consumed until the shared halting
  // rule stops the run — turning the dominant per-round cost (view hoists
  // plus a return to the run loop; on a ballistic-spread graph rounds
  // outnumber events per round by a wide margin) into a single bucket
  // probe. Trajectories are identical: the batch stops exactly where the
  // run loop would, and empty buckets consume no RNG.
  const bool single = restricted || options_.trace.informed_curve;
  // Per-vertex state reads go through raw-pointer views — the views stay
  // valid across inform() (it writes through the same stable buffers).
  // Adjacency goes through the access policy resolved by the caller: raw
  // CSR loads on materialized backends, closed-form arithmetic on implicit.
  const auto sat = arena_->informed_nbr_count.view();
  const auto informed = arena_->vertex_inform_round.view();
  const auto process = [&](const Vertex u) {
    const GraphRow row = acc.row(u);
    const std::uint32_t deg = row.deg;
    if (sat.get(u) >= deg) {
      return;  // saturated: no future call can change anything
    }
    if (restricted && !model_.can_transmit<transmission::General>(
                          informed.get(u), u, round_)) {
      return;  // stifled or quarantined: permanent from this wake on
    }
    const Vertex v =
        acc.pick(row, static_cast<std::uint32_t>(rng_.below(deg)));
    if (!model_.blocked<transmission::General>(v, round_) &&
        !informed.touched(v)) {
      inform(v);
      // Informing v bumped u's own informed-neighbor count; retire u here
      // if that was its last uninformed neighbor instead of burning a
      // wake (and a gap draw) to rediscover it later.
      if (sat.get(u) >= deg) return;
    }
    schedule(u, round_ + 1 + model_.next_gap());
  };
  do {
    ++round_;
    if (restricted && model_.blocking() && round_ == model_.block_round()) {
      activate_blocking();
    }
    if ((round_ & (kWakeBuckets - 1)) == 0) {
      // Mature far-future wakes: every wake in the next 64 rounds moves to
      // its ring bucket (possibly this round's, which is detached below
      // after maturation). Any event parked far always crosses a multiple
      // of 64 before its wake, so nothing is ever processed late.
      std::uint32_t cur = heads[kWakeBuckets];
      heads[kWakeBuckets] = kNoVertex;
      while (cur != kNoVertex) {
        const std::uint32_t after = next[cur];
        link(cur, arena_->wake_round[cur]);
        cur = after;
      }
    }
    // Detach this round's bucket first: reschedules land in other buckets
    // (wake - round in [1, 63]) or the far chain, never back here.
    const std::uint64_t b = round_ & (kWakeBuckets - 1);
    const std::uint32_t cnt = arena_->wake_counts[b];
    std::uint32_t spill = heads[b];
    if ((cnt | (spill != kNoVertex ? 1u : 0u)) == 0) {
      continue;  // empty round: nothing wakes, nothing is observable
    }
    const std::uint32_t* slots = arena_->wake_slots.data() + b * kBucketCap;
    arena_->wake_counts[b] = 0;
    heads[b] = kNoVertex;
    pending_ -= cnt;
    for (std::uint32_t i = 0; i < cnt; ++i) {
      if (i + 2 < cnt) {
        // Two-slot lookahead: the adjacency row and saturation counter are
        // random-access loads that miss once the per-vertex state outgrows
        // L2 (the slot array itself streams). The implicit policy's
        // prefetch is a no-op — there is no adjacency memory to warm.
        const Vertex ahead = slots[i + 2];
        acc.prefetch_degree(ahead);
        sat.prefetch(ahead);
      }
      process(slots[i]);
    }
    while (spill != kNoVertex) {
      const Vertex u = spill;
      spill = next[u];
      --pending_;
      process(u);
    }
  } while (!single && !trial_.halted(round_, done(), model_, progress()));
}

template <class Mode>
void PushProcess::step_impl() {
  constexpr bool kGeneral = std::is_same_v<Mode, transmission::General>;
  ++round_;
  if constexpr (kGeneral) {
    if (model_.blocking() && round_ == model_.block_round()) {
      activate_blocking();
    }
  }

  // Retire saturated vertices before taking the round snapshot: everyone in
  // active_ right now was informed in a previous round, so what survives the
  // sweep is exactly the set of useful callers. Stifled and blocked callers
  // retire the same way — both conditions are permanent once true.
  auto& active = arena_->active;
  std::size_t kept = 0;
  for (Vertex v : active) {
    if (arena_->informed_nbr_count.get(v) < graph_->degree_unchecked(v)) {
      if constexpr (kGeneral) {
        if (!model_.can_transmit<Mode>(arena_->vertex_inform_round.get(v), v,
                                       round_)) {
          continue;
        }
      }
      active[kept++] = v;
    }
  }
  active.resize(kept);

  const std::size_t callers = active.size();  // newly informed start next round
  for (std::size_t i = 0; i < callers; ++i) {
    const Vertex u = active[i];
    const Vertex v = graph_->random_neighbor_unchecked(u, rng_);
    if constexpr (kGeneral) {
      // The success draw fires only for state-changing deliveries.
      if (model_.blocked<Mode>(v, round_) ||
          arena_->vertex_inform_round.touched(v)) {
        continue;
      }
      if (model_.attempt<Mode>(u, v)) inform(v);
    } else {
      if (!arena_->vertex_inform_round.touched(v)) inform(v);
    }
  }
}

// One frontier-sharded round. Law-equivalent to step_impl<Mode> — the only
// behavioral difference is WHICH uniform variates decide each call: serial
// draws them from one stream in execution order, sharded from per-slot
// chains keyed by the caller's compacted frontier index. Both parallel
// passes read exclusively round-start state (vertex_inform_round and
// informed_nbr_count are not written between the round snapshot and the
// merge), and every shard writes only its own scratch segment, so the
// passes are race-free and the merge — visiting candidates in shard-major
// = global slot order — is a pure function of the round-start state and
// the plane. Partition count and worker count cannot move a single draw.
//
// A caller whose pick lands on a vertex another slot informs THIS round
// still draws its attempt word and is discarded at the merge; in the
// serial engine that caller would see touched(v) and not draw. The words
// are independent per-slot variates that decide nothing observable, so the
// process law is identical (same argument as saturation retirement).
template <class Mode, class Access>
void PushProcess::step_sharded(const Access& acc) {
  constexpr bool kGeneral = std::is_same_v<Mode, transmission::General>;
  ++round_;
  if constexpr (kGeneral) {
    if (model_.blocking() && round_ == model_.block_round()) {
      activate_blocking();
    }
  }

  auto& active = arena_->active;
  const std::size_t n = graph_->num_vertices();
  const auto sat = arena_->informed_nbr_count.view();
  const auto informed = arena_->vertex_inform_round.view();

  // Pass 1: survivor filter over the round-start caller list — the
  // sharded form of step_impl's retirement sweep.
  filter_pass(*arena_, active, n, shard_width_, [&](Vertex v) {
    if (sat.get(v) >= acc.degree(v)) return false;
    if constexpr (kGeneral) {
      return model_.can_transmit<Mode>(informed.get(v), v, round_);
    }
    return true;
  });

  // Pass 2: every surviving caller draws its neighbor and success words
  // from its own chain (slot = compacted index) and stages the vertex it
  // would inform; the merge's first delivered slot targeting v informs
  // it, exactly as in the serial round.
  const ShardPlane plane(seed_, round_);
  merge_pass(
      *arena_, active.size(), n, shard_width_,
      [&](std::size_t i) {
        const Vertex u = active[i];
        SlotDraws draws(plane, kShardPhasePush, static_cast<std::uint32_t>(i));
        const GraphRow row = acc.row(u);
        const Vertex v = acc.pick(row, word_below(draws, row.deg));
        if (informed.touched(v)) return kNoVertex;
        if constexpr (kGeneral) {
          if (model_.blocked<Mode>(v, round_) ||
              !model_.attempt_from<Mode>(v, draws)) {
            return kNoVertex;
          }
        }
        return v;
      },
      [&](Vertex v) {
        if (!informed.touched(v)) inform(v);
      });
}

RoundProgress PushProcess::progress() const {
  // No callers left (all saturated, stifled, or quarantined): push has no
  // pull side, so the state can never change again. On the calendar path
  // the caller set is the outstanding wake events.
  return {.informed = informed_count_,
          .target = target_,
          .last_inform = last_inform_round_,
          .no_callers = skip_ ? pending_ == 0 : arena_->active.empty()};
}

RunResult PushProcess::run() { return trial_.run(*this, model_, *arena_); }

RunResult run_push(const Graph& g, Vertex source, std::uint64_t seed,
                   PushOptions options) {
  return PushProcess(g, source, seed, options).run();
}

// ---- Scenario registry entry ------------------------------------------

namespace {

void push_entry_format(const ProtocolOptions& options,
                       const ProtocolOptions& defaults,
                       spec_text::KeyValWriter& out) {
  const auto& opt = std::get<PushOptions>(options);
  const auto& def = std::get<PushOptions>(defaults);
  if (opt.max_rounds != def.max_rounds) {
    out.add("max_rounds", static_cast<std::uint64_t>(opt.max_rounds));
  }
  format_shards_option(opt.shards, def.shards, out);
  format_transmission_options(opt.transmission, def.transmission, out);
  format_trace_options(opt.trace, def.trace, out);
}

bool push_entry_set(ProtocolOptions& options, std::string_view key,
                    std::string_view value) {
  auto& opt = std::get<PushOptions>(options);
  if (key == "max_rounds") {
    const auto v = spec_text::parse_u64(value);
    if (!v) return false;
    opt.max_rounds = *v;
    return true;
  }
  if (key == "shards") return set_shards_option(opt.shards, value);
  if (set_transmission_option(opt.transmission, key, value)) return true;
  return set_trace_option(opt.trace, key, value);
}

}  // namespace

void register_push_simulator(SimulatorRegistry& registry) {
  add_round_simulator<PushProcess, PushOptions>(
      registry,
      {.id = Protocol::push,
       .name = "push",
       .summary = "PUSH: informed vertices call a uniform random neighbor",
       .defaults = PushOptions{},
       .format_options = push_entry_format,
       .set_option = push_entry_set});
}

}  // namespace rumor
