// Transmission-model layer: who succeeds in passing the rumor on contact.
//
// The paper's protocols assume homogeneous, always-successful transmission;
// this module makes the contact rule a *data* property shared by every
// simulator in the registry instead of a per-simulator flag:
//
//   * per-vertex receive probabilities — uniform (`tp=0.5`) or
//     degree-scaled (`tp=deg^-0.5`, Vega-Oliveros et al.: heterogeneous
//     transmission in social networks), materialized once per (graph,
//     options) binding as CSR-aligned per-vertex and per-edge float fields
//     in TrialArena scratch;
//   * interventions (Zehmakan et al.: why rumors spread fast, and how to
//     stop it) — age-based stifling (`stifle=k`: an informed entity
//     transmits only during the k rounds after it was informed) and
//     targeted vertex blocking (`block=f` quarantines the top f·n
//     highest-degree vertices from round `block@t` on: they neither
//     receive nor transmit).
//
// Every contact site draws through TransmissionModel::attempt(u, v, rng),
// templated on a mode tag: the `transmission::Uniform` instantiation
// compiles to "always succeed" — zero extra work, zero extra RNG draws —
// so the default tp=1/no-intervention configuration reproduces the
// pre-transmission trial samples byte-identically (pinned in
// tests/test_transmission.cpp), and each simulator picks the instantiation
// once per round, not once per contact.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/protocol.hpp"
#include "graph/graph.hpp"
#include "support/philox.hpp"
#include "support/rng.hpp"
#include "support/trial_arena.hpp"

namespace rumor {

namespace spec_text {
class KeyValWriter;
}  // namespace spec_text

namespace transmission {
// Compile-time mode tags for the per-round loop specialization: Uniform is
// the trivial homogeneous model (tp=1, no interventions) whose attempt()
// and intervention predicates fold away entirely; General reads the bound
// fields.
struct Uniform {};
struct General {};
}  // namespace transmission

// The grammar-facing half: what a ProtocolSpec carries. Keys (shared by
// every registered simulator through its option hooks):
//   tp=0.5        uniform contact success probability in (0, 1]
//   tp=deg^-0.5   degree-scaled receive probability min(1, deg(v)^beta)
//   stifle=3      informed entities transmit for 3 rounds, then stifle
//   block=0.1     quarantine the top 10% highest-degree vertices
//   block@t=5     ...starting at round 5 (default 1)
// All values sweep with the range/list syntax (`tp={0.25,0.5,1}`).
struct TransmissionOptions {
  double tp = 1.0;           // uniform success probability
  double tp_exponent = 0.0;  // degree_scaled: p(v) = min(1, deg(v)^exponent)
  bool degree_scaled = false;
  std::uint32_t stifle = 0;     // 0 = spreaders never stifle
  double block_fraction = 0.0;  // 0 = no blocking
  Round block_round = 1;        // blocking activates at this round's start

  // True for the homogeneous always-successful default: the simulators take
  // the byte-identical transmission-free fast path.
  [[nodiscard]] bool trivial() const {
    return !degree_scaled && tp == 1.0 && stifle == 0 &&
           block_fraction == 0.0;
  }

  friend bool operator==(const TransmissionOptions&,
                         const TransmissionOptions&) = default;
};

// Option plumbing shared by the registry entries. The full set accepts
// every key above; the probability-only variant accepts just `tp` — for
// simulators whose bookkeeping cannot honor interventions (multi-rumor's
// packed rumor masks, async's tick clock), where silently parsing
// `stifle=` would be a lie.
[[nodiscard]] bool set_transmission_option(TransmissionOptions& options,
                                           std::string_view key,
                                           std::string_view value);
[[nodiscard]] bool set_transmission_probability_option(
    TransmissionOptions& options, std::string_view key,
    std::string_view value);
// The intervention keys alone (stifle, block, block@t) — composed with the
// probability layer by option stacks that parse `tp` at a different level
// (set_agent_walk_option vs set_walk_option).
[[nodiscard]] bool set_transmission_intervention_option(
    TransmissionOptions& options, std::string_view key,
    std::string_view value);
void format_transmission_options(const TransmissionOptions& options,
                                 const TransmissionOptions& defaults,
                                 spec_text::KeyValWriter& out);
void format_transmission_probability_options(
    const TransmissionOptions& options, const TransmissionOptions& defaults,
    spec_text::KeyValWriter& out);
void format_transmission_intervention_options(
    const TransmissionOptions& options, const TransmissionOptions& defaults,
    spec_text::KeyValWriter& out);

// One-line key summary for `rumor_run --list`.
[[nodiscard]] std::vector<std::string> transmission_key_signatures();

// How a bound model draws its success uniforms, picked once per bind from
// the materialized field:
//   * trivial      — tp=1, no interventions: no draws at all (the Uniform
//                    mode tag; byte-identical golden path);
//   * skip_uniform — the field is a single constant p in (0, 1) that the
//                    gaps represent to 0.1% (every p from about 1.2e-4
//                    up, and some below it): contact sites may replace
//                    per-contact coin flips with geometric skip sampling
//                    (next_gap() = failures before the next success).
//                    Degree-scaled options land here too when the graph is
//                    regular — the field is what decides, not the option
//                    flags;
//   * batched      — any other field (non-constant, a constant 1 with
//                    interventions, or a constant too small for the gaps):
//                    per-contact draws against the field, served from the
//                    block-buffered SIMD Philox stream.
enum class SampleMode : std::uint8_t { trivial, skip_uniform, batched };

// The bound model a simulator holds for one trial. Binding a non-trivial
// model materializes the per-vertex receive field, the CSR-slot-aligned
// per-edge field, and the blocked set into the arena's TransmissionScratch;
// the build is cached by (graph uid, parameters), so steady-state trials on
// the same graph rebuild nothing and allocate nothing.
//
// Randomness: a non-trivial bind seeds two counter-based Philox streams
// (stream 0: per-contact success draws, stream 1: geometric gaps) from the
// per-trial seed, so every success draw is a pure function of
// (master_seed, trial) regardless of what the simulator's own xoshiro
// stream did in between — and the trivial path seeds nothing and draws
// nothing.
class TransmissionModel {
 public:
  TransmissionModel() = default;
  // `seed` is the per-trial seed (the same derive_seed(master, trial) value
  // the simulator's Rng was constructed with). `need_edge_field`
  // materializes the 2m-entry per-edge field too — only the edge-traffic
  // traced contact sites read it (attempt_slot), so untraced binds skip the
  // O(m) build and its memory entirely.
  void bind(const Graph& g, const TransmissionOptions& options,
            TrialArena& arena, std::uint64_t seed,
            bool need_edge_field = false);

  [[nodiscard]] bool trivial() const { return trivial_; }
  [[nodiscard]] SampleMode sample_mode() const { return sample_mode_; }
  // The constant field value; valid iff sample_mode() == skip_uniform.
  [[nodiscard]] float uniform_success() const { return uniform_p_; }
  [[nodiscard]] std::uint32_t stifle() const { return stifle_; }
  [[nodiscard]] bool blocking() const { return blocked_ != nullptr; }
  [[nodiscard]] Round block_round() const { return block_round_; }
  // Per-vertex blocked flags (valid iff blocking()); simulators use this to
  // compute their containment target when blocking activates.
  [[nodiscard]] const std::uint8_t* blocked_flags() const { return blocked_; }

  // Vertices that are blocked and still uninformed when blocking
  // activates — they can never be informed, so they come off the
  // completion target (the shared piece of every activate_blocking()).
  [[nodiscard]] std::uint32_t count_blocked_uninformed(
      const EpochArray<std::uint32_t>& vertex_inform_round, Vertex n) const {
    std::uint32_t unreachable = 0;
    for (Vertex v = 0; v < n; ++v) {
      if (blocked_[v] != 0 && !vertex_inform_round.touched(v)) {
        ++unreachable;
      }
    }
    return unreachable;
  }

  // Success draw for a contact delivering the rumor to (an entity at)
  // vertex v; u is the transmitting side's vertex. Uniform: always true,
  // no RNG consumed. General: one uniform draw from the model's own Philox
  // stream against the per-vertex receive field (skipped when the field
  // entry is 1, so tp=1-with-interventions configurations stay draw-free
  // too).
  template <class Mode>
  [[nodiscard]] bool attempt(Vertex u, Vertex v) {
    (void)u;
    if constexpr (std::is_same_v<Mode, transmission::Uniform>) {
      return true;
    } else {
      const float p = vertex_success_[v];
      if (p >= 1.0f) return true;
      return attempt_stream_.next_unit_float() < p;
    }
  }

  // As attempt(), but drawing from the CALLER's word source instead of the
  // model's serial stream — the sharded-round form, where each frontier
  // slot owns an addressable SlotDraws chain and the model must stay
  // read-only across concurrent shards. Same draw-free tp=1 fast path.
  template <class Mode, class WordSource>
  [[nodiscard]] bool attempt_from(Vertex v, WordSource& words) const {
    if constexpr (std::is_same_v<Mode, transmission::Uniform>) {
      return true;
    } else {
      const float p = vertex_success_[v];
      if (p >= 1.0f) return true;
      return static_cast<float>(words.next_u32() >> 8) * 0x1.0p-24f < p;
    }
  }

  // As attempt(), but reads the CSR-aligned per-edge field through the
  // transmitter's adjacency slot — for contact sites that already hold the
  // slot (edge-traffic tracing paths).
  template <class Mode>
  [[nodiscard]] bool attempt_slot(Vertex u, std::uint32_t slot) {
    if constexpr (std::is_same_v<Mode, transmission::Uniform>) {
      return true;
    } else {
      const float p = edge_success_[offsets_[u] + slot];
      if (p >= 1.0f) return true;
      return attempt_stream_.next_unit_float() < p;
    }
  }

  // Filters a multi-rumor mask: each set bit survives an independent
  // attempt() toward receiver v, lowest bit drawn first.
  template <class Mode>
  [[nodiscard]] std::uint64_t filter_mask(std::uint64_t mask, Vertex v) {
    if constexpr (std::is_same_v<Mode, transmission::Uniform>) {
      return mask;
    } else {
      std::uint64_t kept = 0;
      std::uint64_t rest = mask;
      while (rest != 0) {
        const std::uint64_t bit = rest & (0 - rest);
        rest &= rest - 1;
        if (attempt<Mode>(v, v)) kept |= bit;
      }
      return kept;
    }
  }

  // Geometric skip sampling (sample_mode() == skip_uniform only): the
  // number of failed Bernoulli(p) contacts before the next success,
  // floor(log(U) / log(1-p)), batch-computed 64 at a time so the log and
  // the compare vectorize. Capped at kGapCap — a gap no finite run ever
  // reaches, standing in for "never" when U lands in the top ulp.
  [[nodiscard]] std::uint32_t next_gap() {
    if (gap_pos_ == kGapBatch) refill_gaps();
    return gaps_[gap_pos_++];
  }

  static constexpr std::uint32_t kGapCap = 1u << 30;

  // True iff vertex v is quarantined at round `now` (blocked vertices
  // neither receive nor transmit once blocking has activated).
  template <class Mode>
  [[nodiscard]] bool blocked(Vertex v, Round now) const {
    if constexpr (std::is_same_v<Mode, transmission::Uniform>) {
      return false;
    } else {
      return blocked_ != nullptr && now >= block_round_ && blocked_[v] != 0;
    }
  }

  // True iff an entity informed at `inform_round` may still transmit at
  // round `now` (age-based stifling; both arguments in simulator rounds).
  template <class Mode>
  [[nodiscard]] bool spreader_active(std::uint32_t inform_round,
                                     Round now) const {
    if constexpr (std::is_same_v<Mode, transmission::Uniform>) {
      return true;
    } else {
      // 64-bit sum: the parser admits stifle up to 2^32-1 ("effectively
      // never"), which would wrap a uint32 addition.
      return stifle_ == 0 ||
             now <= static_cast<Round>(inform_round) + stifle_;
    }
  }

  // spreader_active and not quarantined: the full "may this informed entity
  // standing at vertex `at` transmit now" predicate.
  template <class Mode>
  [[nodiscard]] bool can_transmit(std::uint32_t inform_round, Vertex at,
                                  Round now) const {
    return spreader_active<Mode>(inform_round, now) &&
           !blocked<Mode>(at, now);
  }

  // Exact extinction test under stifling: an entity informed at round L
  // transmits only in rounds L+1 .. L+stifle, so once `now` reaches
  // last_inform + stifle with the run not done, no contact can ever
  // change the state again.
  [[nodiscard]] bool extinct(Round now, Round last_inform_round) const {
    return stifle_ != 0 && now >= last_inform_round + stifle_;
  }

 private:
  static constexpr std::uint32_t kGapBatch = 64;

  void refill_gaps();

  bool trivial_ = true;
  SampleMode sample_mode_ = SampleMode::trivial;
  std::uint32_t stifle_ = 0;
  Round block_round_ = 1;
  float uniform_p_ = 1.0f;   // constant field value (skip_uniform mode)
  float gap_scale_ = 0.0f;   // 1 / log2(1 - uniform_p_)
  const float* vertex_success_ = nullptr;  // n entries
  const float* edge_success_ = nullptr;    // 2m entries, CSR-slot aligned
  const std::uint8_t* blocked_ = nullptr;  // n entries; nullptr = none
  const std::uint32_t* offsets_ = nullptr;
  PhiloxStream attempt_stream_;  // stream 0: per-contact success draws
  PhiloxStream gap_stream_;      // stream 1: geometric gap uniforms
  std::uint32_t gap_pos_ = kGapBatch;
  alignas(64) std::array<std::uint32_t, kGapBatch> gaps_;
};

// The per-round stifled-entity counts derivable from an informed curve:
// an entity informed at round q transmits in rounds q+1 .. q+stifle and
// counts as stifled from round q+stifle+1 on, so
// stifled[t] = informed[t - stifle - 1] (0 before that index exists).
// Returns an empty vector when stifle == 0 (nothing ever stifles).
[[nodiscard]] std::vector<std::uint32_t> derive_stifled_curve(
    const std::vector<std::uint32_t>& informed_curve, std::uint32_t stifle);

}  // namespace rumor
