// Counter-based RNG substrate: Philox4x32-10 (Salmon et al., SC'11), the
// addressable companion to the serial xoshiro stream in support/rng.hpp.
//
// A counter-based generator is a pure function: block = philox(key,
// counter). There is no hidden serial state, so any draw of a trial is
// computable from its logical coordinate alone, which is what makes batched
// draw generation, frontier-sharded execution, and multi-node reproduction
// possible: two workers that agree on coordinates agree on randomness
// without ever exchanging generator state.
//
// Two consumption shapes:
//   * ShardPlane / SlotDraws — the one addressable scheme: every draw of a
//     sharded round is keyed by (trial seed, round, phase, slot), never by
//     execution order (first words pinned cross-platform in
//     tests/test_support_philox.cpp); passes that draw for every slot
//     compute the slots' first words eight at a time (shard_first_words);
//   * PhiloxStream — a buffered sequential view for the transmission
//     model's attempt and gap draws: key = (seed, stream id), counter =
//     running block index. Refills generate four independent blocks per
//     inner iteration in SoA form, so the compiler can vectorize the
//     32x32->64 multiplies across lanes (pmuludq/vpmuludq where available;
//     the same loop is the scalar fallback elsewhere).
//
// The tp=1 golden paths never touch this module: simulators keep drawing
// their trajectories from Rng (xoshiro), byte-identically to before.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "support/rng.hpp"

namespace rumor {

inline constexpr std::uint32_t kPhiloxM0 = 0xD2511F53u;
inline constexpr std::uint32_t kPhiloxM1 = 0xCD9E8D57u;
inline constexpr std::uint32_t kPhiloxW0 = 0x9E3779B9u;  // golden ratio
inline constexpr std::uint32_t kPhiloxW1 = 0xBB67AE85u;  // sqrt(3) - 1

// One Philox4x32-10 block: 4 counter words + 2 key words -> 4 output words.
// Matches the Random123 reference bit-for-bit (known-answer vectors are
// static_asserted in philox.cpp and pinned in the tests).
[[nodiscard]] constexpr std::array<std::uint32_t, 4> philox4x32(
    std::array<std::uint32_t, 4> ctr, std::uint32_t k0, std::uint32_t k1) {
  for (int round = 0; round < 10; ++round) {
    const std::uint64_t p0 = std::uint64_t{kPhiloxM0} * ctr[0];
    const std::uint64_t p1 = std::uint64_t{kPhiloxM1} * ctr[2];
    ctr = {static_cast<std::uint32_t>(p1 >> 32) ^ ctr[1] ^ k0,
           static_cast<std::uint32_t>(p1),
           static_cast<std::uint32_t>(p0 >> 32) ^ ctr[3] ^ k1,
           static_cast<std::uint32_t>(p0)};
    k0 += kPhiloxW0;
    k1 += kPhiloxW1;
  }
  return ctr;
}

// 64-bit key from a 64-bit seed, one splitmix step away so that related
// seeds (derive_seed(master, i) for consecutive i) land on unrelated keys.
[[nodiscard]] constexpr std::uint64_t philox_key(std::uint64_t seed) {
  std::uint64_t state = seed;
  return splitmix64(state);
}

// Deterministic base-2 log for the geometric skip-sampling gap computation:
// plain IEEE float arithmetic (exponent extraction + a degree-9 polynomial
// for the mantissa), no libm call, so every platform that runs the same
// binary semantics computes the same gaps. Division-free on purpose: the
// hot consumer is the lane-parallel gap kernel, where a Horner chain of
// mul/add pipelines several times better than divps. The polynomial is a
// Chebyshev interpolant of log2(1+t)/t on t in [0, 1) (2.6e-8 in exact
// arithmetic); exhaustive evaluation over every mantissa puts the float
// implementation at |error| < 1.7e-7 over (0, inf) normals — far below
// the 2^-24 resolution of the uniforms it is applied to. t*P(t) is
// exactly 0 at t = 0, so powers of two stay exact. Requires v > 0 and
// finite.
[[nodiscard]] inline float fast_log2f(float v) {
  const auto bits = std::bit_cast<std::uint32_t>(v);
  const int exponent = static_cast<int>((bits >> 23) & 0xFFu) - 127;
  const float m =
      std::bit_cast<float>((bits & 0x007FFFFFu) | 0x3F800000u);  // [1, 2)
  const float t = m - 1.0f;
  float p = 7.395402161e-03f;
  p = p * t + -4.194500901e-02f;
  p = p * t + 1.118320740e-01f;
  p = p * t + -1.962389519e-01f;
  p = p * t + 2.752212123e-01f;
  p = p * t + -3.582990696e-01f;
  p = p * t + 4.806788896e-01f;
  p = p * t + -7.213395131e-01f;
  p = p * t + 1.442694992e+00f;  // log2(1+t)/t, Chebyshev on [0, 1)
  return static_cast<float>(exponent) + t * p;
}

// Buffered sequential view over one Philox stream: key = (seed, stream id),
// counter = running block index. Distinct stream ids on the same seed are
// independent streams (disjoint counter planes); the block index never
// wraps in any realistic run (2^64 blocks).
class PhiloxStream {
 public:
  PhiloxStream() = default;
  PhiloxStream(std::uint64_t seed, std::uint32_t stream) {
    reseed(seed, stream);
  }

  void reseed(std::uint64_t seed, std::uint32_t stream) {
    const std::uint64_t key = philox_key(seed);
    k0_ = static_cast<std::uint32_t>(key);
    k1_ = static_cast<std::uint32_t>(key >> 32);
    stream_ = stream;
    block_ = 0;
    pos_ = kBufWords;  // force refill on first draw
  }

  [[nodiscard]] std::uint32_t next_u32() {
    if (pos_ == kBufWords) refill();
    return buf_[pos_++];
  }

  [[nodiscard]] std::uint64_t next_u64() {
    const std::uint64_t lo = next_u32();
    return lo | (std::uint64_t{next_u32()} << 32);
  }

  // Uniform in [0, 1) with 24-bit resolution — the natural grain for
  // comparisons against float probability fields.
  [[nodiscard]] float next_unit_float() {
    return static_cast<float>(next_u32() >> 8) * 0x1.0p-24f;
  }

  // Advances to the next block boundary and exposes the freshly generated
  // kBufWords-word buffer — for consumers that digest draws in whole-buffer
  // batches (the geometric gap sampler) and skip the per-word buffered
  // reads. Any partially consumed words are discarded; the pointer is valid
  // until the next draw.
  [[nodiscard]] const std::uint32_t* next_block() {
    refill();
    pos_ = kBufWords;  // the caller owns this whole block
    return buf_.data();
  }

  static constexpr std::size_t kBufWords = 64;  // 16 blocks per refill

 private:
  void refill();

  alignas(64) std::array<std::uint32_t, kBufWords> buf_;
  std::uint32_t pos_ = kBufWords;
  std::uint64_t block_ = 0;
  std::uint32_t stream_ = 0;
  std::uint32_t k0_ = 0;
  std::uint32_t k1_ = 0;
};

// ---- Sharded-kernel draw plane -------------------------------------------
//
// The frontier-sharded round kernels need every random decision of a round
// addressable by the LOGICAL slot it belongs to (walker index, compacted
// frontier position, ...), never by execution order: a shard boundary or a
// different worker count must not shift a single draw. Each slot therefore
// owns a private chain of Philox blocks:
//
//   key     = philox_key(derive_seed(trial_seed, kShardDrawSalt))
//   counter = { slot, (seq << 8) | phase, round_lo, round_hi }
//
// The dedicated salt keys this plane off the other Philox consumer (the
// transmission model's attempt and gap streams), so counters may overlap
// freely with theirs. `phase` separates draw sites within one round (a
// pusher and a puller can share slot numbers); `seq` advances when a slot
// consumes more than one block — rejection sampling may draw any number of
// words, and the chain keeps those continuation words addressable by slot
// alone. 2^24 blocks per (slot, phase) is ~6e7 words: beyond any rejection
// loop.

inline constexpr std::uint64_t kShardDrawSalt = 0x51AED2A9C0DE5A17ULL;

inline constexpr std::uint32_t kShardPhaseWalk = 0;         // walker steps
inline constexpr std::uint32_t kShardPhasePush = 1;         // push callers
inline constexpr std::uint32_t kShardPhasePull = 2;         // pull callers
inline constexpr std::uint32_t kShardPhaseAgentInform = 3;  // agent -> vertex
inline constexpr std::uint32_t kShardPhaseAgentCatch = 4;   // vertex -> agent
inline constexpr std::uint32_t kShardPhaseMeet = 5;         // agent meetings
inline constexpr std::uint32_t kShardPhasePlace = 6;        // round-0 placement

// One (trial, round)'s worth of the plane: the precomputed key plus the
// round words every SlotDraws of that round shares. Cheap to copy into
// per-shard closures.
struct ShardPlane {
  std::uint32_t k0 = 0;
  std::uint32_t k1 = 0;
  std::uint32_t round_lo = 0;
  std::uint32_t round_hi = 0;

  ShardPlane() = default;
  ShardPlane(std::uint64_t trial_seed, std::uint64_t round) {
    const std::uint64_t key =
        philox_key(derive_seed(trial_seed, kShardDrawSalt));
    k0 = static_cast<std::uint32_t>(key);
    k1 = static_cast<std::uint32_t>(key >> 32);
    round_lo = static_cast<std::uint32_t>(round);
    round_hi = static_cast<std::uint32_t>(round >> 32);
  }
};

// The per-slot word source: drop-in for the WordSource shape the draw
// helpers consume (next_u32/next_u64/operator()/unit floats). Constructed
// fresh per (phase, slot) — a handful of registers, no heap.
class SlotDraws {
 public:
  SlotDraws(const ShardPlane& plane, std::uint32_t phase, std::uint32_t slot)
      : plane_(plane), slot_(slot), word1_(phase) {}

  // The same chain with its first 64-bit word (block 0's words 0-1)
  // already computed, by shard_first_words: the first next_u64() returns
  // `first` with no block computation, and any later draw continues the
  // slot's own chain (block 0's words 2-3, then seq 1 on), so every draw
  // reads the word a plain SlotDraws would.
  SlotDraws(const ShardPlane& plane, std::uint32_t phase, std::uint32_t slot,
            std::uint64_t first)
      : plane_(plane),
        buf_{static_cast<std::uint32_t>(first),
             static_cast<std::uint32_t>(first >> 32), 0, 0},
        pos_(0),
        end_(2),
        slot_(slot),
        word1_(phase) {}

  [[nodiscard]] std::uint32_t next_u32() {
    if (pos_ == end_) refill();
    return buf_[pos_++];
  }

  [[nodiscard]] std::uint64_t next_u64() {
    const std::uint64_t lo = next_u32();
    return lo | (std::uint64_t{next_u32()} << 32);
  }

  [[nodiscard]] std::uint64_t operator()() { return next_u64(); }

  [[nodiscard]] float next_unit_float() {
    return static_cast<float>(next_u32() >> 8) * 0x1.0p-24f;
  }

 private:
  void refill() {
    buf_ = philox4x32({slot_, word1_, plane_.round_lo, plane_.round_hi},
                      plane_.k0, plane_.k1);
    word1_ += 256;  // seq lives in bits 8..31; phase keeps bits 0..7
    pos_ %= 4;      // a handed first word resumes at block 0's word 2
    end_ = 4;
  }

  const ShardPlane& plane_;
  std::array<std::uint32_t, 4> buf_{};
  std::uint32_t pos_ = 4;  // refill on first draw
  std::uint32_t end_ = 4;  // words of buf_ computed so far
  std::uint32_t slot_;
  std::uint32_t word1_;
};

// The first 64-bit words of eight consecutive slots' chains:
// shard_first_words(plane, phase, base)[l] is what
// SlotDraws(plane, phase, base + l).next_u64() returns first. The eight
// blocks are computed in SIMD lanes where the CPU has AVX2, else one
// philox4x32 at a time; slots past 2^32 - 1 wrap to 0.
inline constexpr std::size_t kShardWordLanes = 8;
using ShardFirstWords = std::array<std::uint64_t, kShardWordLanes>;

[[nodiscard]] ShardFirstWords shard_first_words(const ShardPlane& plane,
                                                std::uint32_t phase,
                                                std::uint32_t base);

// The always-scalar path of shard_first_words, exposed so tests can pin
// the dispatched lanes against it on whatever ISA the host offers.
[[nodiscard]] ShardFirstWords shard_first_words_reference(
    const ShardPlane& plane, std::uint32_t phase, std::uint32_t base);

// Runs f(i, draws) for every slot i in [begin, end) in ascending order,
// draws being slot i's chain under (plane, phase) started from its first
// word, which shard_first_words computes eight slots at a time. The lanes
// past `end` in the last batch are computed and dropped.
template <class F>
void for_slot_chains(const ShardPlane& plane, std::uint32_t phase,
                     std::size_t begin, std::size_t end, F&& f) {
  for (std::size_t base = begin; base < end; base += kShardWordLanes) {
    const ShardFirstWords first =
        shard_first_words(plane, phase, static_cast<std::uint32_t>(base));
    const std::size_t stop = std::min(end, base + kShardWordLanes);
    for (std::size_t i = base; i < stop; ++i) {
      SlotDraws draws(plane, phase, static_cast<std::uint32_t>(i),
                      first[i - base]);
      f(i, draws);
    }
  }
}

// Batch geometric-gap kernel: draws `count` words from `stream` (whole
// blocks; count must be a multiple of PhiloxStream::kBufWords) and writes
// floor(log2(u) * scale) gaps, clamped to `cap`, where u is the centered
// 24-bit uniform ((w >> 8) + 0.5) * 2^-24. `scale` is 1 / log2(1 - p) for
// a geometric with success probability p. Runtime-dispatches to an AVX2
// lane-parallel variant when available; every path replicates the exact
// scalar IEEE operation sequence (fast_log2f included), so the output is
// bit-identical across machines.
void philox_fill_gaps(PhiloxStream& stream, std::uint32_t count, float scale,
                      std::uint32_t cap, std::uint32_t* out);

// The always-scalar reference for the kernel above, operating on an
// already-drawn word buffer — exposed so tests can pin the dispatched
// path against it on whatever ISA the host offers.
void philox_fill_gaps_reference(const std::uint32_t* words,
                                std::uint32_t count, float scale,
                                std::uint32_t cap, std::uint32_t* out);

}  // namespace rumor
