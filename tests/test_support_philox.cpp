// Counter-based RNG tests: Random123 known-answer vectors, the
// cross-platform pin of the addressable SlotDraws words, the batched first
// words of the shard plane, stream addressability (buffered stream words ==
// direct block computations, which also proves the SIMD refill matches the
// scalar round function), independence across the (round, phase, slot)
// coordinate axes, the deterministic fast_log2f, and the statistical smoke
// checks.
//
// The *Statistical tests are gated out of the Debug CI job (ctest -E
// PhiloxStatistical) — they draw hundreds of thousands of words and only
// need to run once per platform, in Release.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include "support/philox.hpp"
#include "walk/step_kernel.hpp"

namespace rumor {
namespace {

// The three Random123 reference rows (also static_asserted at compile time
// in philox.cpp; repeated here so a toolchain that elides the asserts still
// exercises them and failures show up as test diffs, not build errors).
TEST(Philox, MatchesRandom123KnownAnswerVectors) {
  EXPECT_EQ(philox4x32({0u, 0u, 0u, 0u}, 0u, 0u),
            (std::array<std::uint32_t, 4>{0x6627E8D5u, 0xE169C58Du,
                                          0xBC57AC4Cu, 0x9B00DBD8u}));
  EXPECT_EQ(
      philox4x32({0xFFFFFFFFu, 0xFFFFFFFFu, 0xFFFFFFFFu, 0xFFFFFFFFu},
                 0xFFFFFFFFu, 0xFFFFFFFFu),
      (std::array<std::uint32_t, 4>{0x408F276Du, 0x41C83B0Eu, 0xA20BC7C6u,
                                    0x6D5451FDu}));
  EXPECT_EQ(
      philox4x32({0x243F6A88u, 0x85A308D3u, 0x13198A2Eu, 0x03707344u},
                 0xA4093822u, 0x299F31D0u),
      (std::array<std::uint32_t, 4>{0xD16CFE09u, 0x94FDCCEBu, 0x5001E420u,
                                    0x24126EA1u}));
}

// Cross-platform pin of the addressable scheme every sharded trajectory is
// made of: the first 64-bit word of SlotDraws over an 8x8 (round, slot)
// grid for a fixed trial seed and phase. Any platform or refactor that
// changes ANY of these words has changed the meaning of every stored
// sharded trajectory.
TEST(Philox, First64AddressableDrawsArePinned) {
  constexpr std::uint64_t kTrialSeed = 0xDEADBEEFCAFEF00Dull;
  constexpr std::uint64_t kExpected[64] = {
      0x7D7F1A44627DC961ull, 0x4122FC874A789EBAull, 0xBF586FCBECE4B538ull,
      0xDCD618A44313102Dull, 0x3655BFCF99D53492ull, 0x1F55ECCD2DAAC4E0ull,
      0x5973FDE024E77E1Dull, 0x14B1B295903D5E96ull, 0x26BB92FA887C170Eull,
      0xDFF9C90CEB4F49CFull, 0xA365212AA55D4279ull, 0xE9304CF2962C5F17ull,
      0x5F102CC4EE10A70Aull, 0xEE671AA7F936760Eull, 0x42A59901C31E0ECBull,
      0x6BE5CE76E2658A68ull, 0x28E4E5630490BDC3ull, 0xBEC6FBD5127F75C0ull,
      0x4CEA1D1BB682281Cull, 0xF71CCDF3F88A6A70ull, 0x9B36273E8EAD0F21ull,
      0x99E0505B2276A964ull, 0x1E0F7FBAB9B8CFA3ull, 0xFFE39522577AC1A2ull,
      0x1058EB69704430EFull, 0x05777992733DCAF8ull, 0xC8237B4F20CF5430ull,
      0x1F1B4D6F33F3FE0Bull, 0xD02A4C73BAF3FD85ull, 0x67EA638E375F54FEull,
      0xF161B0BE59D0C1E2ull, 0x2758B93C37FB0703ull, 0x59BE6F70A5FA5AB2ull,
      0x88B2124B911CFD09ull, 0x7FECBD7233966B0Aull, 0xDAEED55C37B4BFCCull,
      0x5FDD2F1B6DCCC6B7ull, 0xEE19993A2E540EF2ull, 0x3561D6F062EC4D1Bull,
      0x42D182D1FB1C0DCBull, 0xF2EE72A4144A6104ull, 0xC1998D50154CCAE2ull,
      0x8E7C859BAA79442Aull, 0xA144865EF00C00D0ull, 0x4192489CA53A6B04ull,
      0x805BB1346136FC87ull, 0x60570CC17C67DDB8ull, 0xB142655F3110F584ull,
      0x86CCBFFE65054FAEull, 0x65BE3EF82A45542Aull, 0x7253B1D30CDFE91Cull,
      0x23A90CDE7324EF59ull, 0x8DE54BA01CFD56E9ull, 0xB83B7882B3DD9EC2ull,
      0x4D3BA742CAB61CE0ull, 0x4F876DCB3441E69Aull, 0x14824485D96E4337ull,
      0x1366EFD50488CF7Eull, 0x89C0C9E7F898D02Dull, 0x954EB2693FF6AAD8ull,
      0xBF92169CBCFE1929ull, 0xBF1AB8314F6C8E3Full, 0xE139E43159EB8ECAull,
      0x6848595AC4BC64ABull,
  };
  for (std::uint64_t round = 0; round < 8; ++round) {
    const ShardPlane plane(kTrialSeed, round);
    for (std::uint32_t slot = 0; slot < 8; ++slot) {
      SlotDraws draws(plane, kShardPhaseWalk, slot);
      EXPECT_EQ(draws.next_u64(), kExpected[round * 8 + slot])
          << "round=" << round << " slot=" << slot;
    }
  }
  // The counter layout {slot, (seq << 8) | phase, round_lo, round_hi}: a
  // slot's third word opens its second block (seq 1).
  const ShardPlane plane(kTrialSeed, 5);
  SlotDraws draws(plane, kShardPhasePull, 3);
  (void)draws.next_u64();
  (void)draws.next_u64();
  const auto block = philox4x32({3u, (1u << 8) | kShardPhasePull, 5u, 0u},
                                plane.k0, plane.k1);
  EXPECT_EQ(draws.next_u64(), block[0] | (std::uint64_t{block[1]} << 32));
}

// Stream addressability: word i of PhiloxStream(seed, stream) must equal
// the direct block computation philox4x32({blk_lo, blk_hi, stream, 0},
// key)[i % 4] with blk = i / 4. This is simultaneously the proof that the
// SSE2 refill (SoA rounds + AoS transpose) is bit-identical to the scalar
// round function, across refill boundaries.
TEST(Philox, StreamWordsMatchDirectBlockComputation) {
  constexpr std::uint64_t kSeed = 0x5EED5EED5EED5EEDull;
  for (std::uint32_t stream : {0u, 1u, 77u}) {
    PhiloxStream s(kSeed, stream);
    const std::uint64_t key = philox_key(kSeed);
    const auto k0 = static_cast<std::uint32_t>(key);
    const auto k1 = static_cast<std::uint32_t>(key >> 32);
    // 3 * kBufWords words: crosses two refill boundaries.
    for (std::uint64_t i = 0; i < 3 * PhiloxStream::kBufWords; ++i) {
      const std::uint64_t blk = i / 4;
      const auto out = philox4x32({static_cast<std::uint32_t>(blk),
                                   static_cast<std::uint32_t>(blk >> 32),
                                   stream, 0u},
                                  k0, k1);
      ASSERT_EQ(s.next_u32(), out[i % 4])
          << "stream=" << stream << " word=" << i;
    }
  }
}

TEST(Philox, ReseedReproducesTheStream) {
  PhiloxStream a(123, 4);
  std::vector<std::uint32_t> first;
  for (int i = 0; i < 100; ++i) first.push_back(a.next_u32());
  a.reseed(123, 4);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u32(), first[i]);
}

TEST(Philox, NextBlockAdvancesToFreshWords) {
  PhiloxStream a(9, 0);
  PhiloxStream b(9, 0);
  (void)a.next_u32();  // partially consume the first buffer
  const std::uint32_t* blk_a = a.next_block();
  const std::uint32_t* ref = b.next_block();  // buffer 0
  const std::uint32_t* blk_b = b.next_block();  // buffer 1
  (void)ref;
  for (std::size_t i = 0; i < PhiloxStream::kBufWords; ++i) {
    EXPECT_EQ(blk_a[i], blk_b[i]);  // both are buffer 1: block-aligned skip
  }
}

// Independence across the logical coordinate axes: SlotDraws words at
// distinct (round, phase, slot) coordinates of one trial — and across
// distinct stream ids of one PhiloxStream seed — are distinct 64-bit
// values. For a 64-bit-output random function, ANY collision in a few
// thousand draws is evidence of a wiring bug (reused counter plane, dropped
// axis), not chance (p < 1e-11).
TEST(Philox, CoordinateAxesYieldDistinctDraws) {
  constexpr std::uint64_t kTrialSeed = 31337;
  std::set<std::uint64_t> seen;
  for (std::uint64_t round = 0; round < 16; ++round) {
    const ShardPlane plane(kTrialSeed, round);
    for (std::uint32_t phase = 0; phase <= kShardPhasePlace; ++phase) {
      for (std::uint32_t slot = 0; slot < 16; ++slot) {
        SlotDraws draws(plane, phase, slot);
        EXPECT_TRUE(seen.insert(draws.next_u64()).second)
            << round << "," << phase << "," << slot;
      }
    }
  }
  // Distinct stream ids on the same seed are disjoint counter planes.
  PhiloxStream s0(kTrialSeed, 0), s1(kTrialSeed, 1);
  for (int i = 0; i < 256; ++i) {
    EXPECT_TRUE(seen.insert(s0.next_u64()).second);
    EXPECT_TRUE(seen.insert(s1.next_u64()).second);
  }
}

// ---- Batched first words of the shard plane -------------------------
//
// The sharded walk and placement passes start each slot's chain from a
// first word computed eight slots at a time (shard_first_words). These
// tests pin that those are the chain's own words, wherever a batch starts
// and whatever ISA the host dispatches to. Named ShardDraws.* so the
// Debug, sanitizer and TSan (-R Shard) jobs all run them.

// Every (seed, round) plane the batch tests cover, including rounds whose
// high counter word is nonzero.
std::vector<ShardPlane> first_word_planes() {
  std::vector<ShardPlane> planes;
  for (const std::uint64_t seed : {0ull, 7ull, 0xDEADBEEFCAFEF00Dull}) {
    for (const std::uint64_t round :
         {0ull, 1ull, 37ull, (1ull << 32) + 5, ~0ull}) {
      planes.emplace_back(seed, round);
    }
  }
  return planes;
}

constexpr std::uint32_t kFirstWordBases[] = {0u, 5u, 0xFFFFFFF8u};

TEST(ShardDraws, BatchedFirstWordsAreTheChainsFirstWords) {
  for (const ShardPlane& plane : first_word_planes()) {
    for (std::uint32_t phase = 0; phase <= kShardPhasePlace; ++phase) {
      for (const std::uint32_t base : kFirstWordBases) {
        const ShardFirstWords words = shard_first_words(plane, phase, base);
        for (std::uint32_t l = 0; l < kShardWordLanes; ++l) {
          SlotDraws draws(plane, phase, base + l);
          EXPECT_EQ(words[l], draws.next_u64())
              << "round_hi=" << plane.round_hi << " phase=" << phase
              << " slot=" << base + l;
        }
      }
    }
  }
}

TEST(ShardDraws, ScalarLanesMatchDispatchedLanes) {
  for (const ShardPlane& plane : first_word_planes()) {
    for (std::uint32_t phase = 0; phase <= kShardPhasePlace; ++phase) {
      for (std::uint32_t base = 0; base < 64; base += 3) {
        EXPECT_EQ(shard_first_words(plane, phase, base),
                  shard_first_words_reference(plane, phase, base))
            << "phase=" << phase << " base=" << base;
      }
      for (const std::uint32_t base : kFirstWordBases) {
        EXPECT_EQ(shard_first_words(plane, phase, base),
                  shard_first_words_reference(plane, phase, base))
            << "phase=" << phase << " base=" << base;
      }
    }
  }
}

TEST(ShardDraws, HandedFirstWordContinuesTheChain) {
  for (const ShardPlane& plane : first_word_planes()) {
    for (const std::uint32_t base : kFirstWordBases) {
      const ShardFirstWords words =
          shard_first_words(plane, kShardPhaseWalk, base);
      for (std::uint32_t l = 0; l < kShardWordLanes; ++l) {
        SlotDraws handed(plane, kShardPhaseWalk, base + l, words[l]);
        SlotDraws plain(plane, kShardPhaseWalk, base + l);
        // The first word, then block 0's words 2-3 and five more blocks'
        // worth: the handed chain recomputes block 0 and moves on to seq 1.
        EXPECT_EQ(handed.next_u64(), plain.next_u64());
        for (int w = 0; w < 12; ++w) {
          ASSERT_EQ(handed.next_u32(), plain.next_u32())
              << "slot=" << base + l << " word=" << w + 2;
        }
      }
    }
  }
}

// Counts the 64-bit words a draw helper reads through it.
template <class Source>
struct CountedWords {
  Source& source;
  int words = 0;
  std::uint64_t operator()() {
    ++words;
    return source();
  }
};

TEST(ShardDraws, RejectionFallsBackToTheSlotsOwnChain) {
  // At bound 2^63 + 1 the Lemire draw rejects about half its words, so
  // many slots read past the handed first word into the rest of their
  // chain; each must land where a plain SlotDraws lands.
  constexpr std::uint64_t kBound = (std::uint64_t{1} << 63) + 1;
  const ShardPlane plane(0x5EED, 3);
  int rejected_slots = 0;
  for (std::uint32_t base = 0; base < 256; base += kShardWordLanes) {
    const ShardFirstWords words =
        shard_first_words(plane, kShardPhasePlace, base);
    for (std::uint32_t l = 0; l < kShardWordLanes; ++l) {
      SlotDraws handed_chain(plane, kShardPhasePlace, base + l, words[l]);
      SlotDraws plain_chain(plane, kShardPhasePlace, base + l);
      CountedWords<SlotDraws> handed{handed_chain};
      CountedWords<SlotDraws> plain{plain_chain};
      EXPECT_EQ(word_below(handed, kBound), word_below(plain, kBound))
          << "slot=" << base + l;
      EXPECT_EQ(handed.words, plain.words);
      rejected_slots += handed.words > 1 ? 1 : 0;
    }
  }
  EXPECT_GT(rejected_slots, 32);
}

// fast_log2f powers the geometric gap computation; its contract is
// |error| < 2e-6 against the exact log2 and exactness on powers of two.
TEST(Philox, FastLog2MatchesStdLog2) {
  EXPECT_EQ(fast_log2f(1.0f), 0.0f);
  EXPECT_EQ(fast_log2f(2.0f), 1.0f);
  EXPECT_EQ(fast_log2f(0.5f), -1.0f);
  EXPECT_EQ(fast_log2f(0x1.0p-24f), -24.0f);
  PhiloxStream s(5, 0);
  for (int i = 0; i < 20000; ++i) {
    const float u = s.next_unit_float();
    if (u == 0.0f) continue;
    const double exact = std::log2(static_cast<double>(u));
    EXPECT_NEAR(fast_log2f(u), exact, 2e-6) << "u=" << u;
  }
  // The skip-sampler's centered uniforms never hit 0 or 1 exactly.
  const float lo = (0.0f + 0.5f) * 0x1.0p-24f;
  const float hi = (16777215.0f + 0.5f) * 0x1.0p-24f;
  EXPECT_NEAR(fast_log2f(lo), std::log2(static_cast<double>(lo)), 2e-6);
  EXPECT_NEAR(fast_log2f(hi), std::log2(static_cast<double>(hi)), 2e-6);
}

// The batch gap kernel runtime-dispatches to lane-parallel variants; the
// contract is that whatever ISA path the host takes, the output equals
// the scalar reference word for word, and the reference itself is exactly
// the documented formula: floor(fast_log2f(centered u) * scale), clamped.
TEST(Philox, GapKernelMatchesScalarReferenceAndFormula) {
  constexpr std::uint32_t kCount = 4 * PhiloxStream::kBufWords;
  constexpr std::uint32_t kCap = 1u << 30;
  const float scale = 1.0f / fast_log2f(1.0f - 0.25f);
  alignas(64) std::array<std::uint32_t, kCount> dispatched;
  PhiloxStream s(987654321, 1);
  philox_fill_gaps(s, kCount, scale, kCap, dispatched.data());

  // Replay the same stream words through the scalar reference and the
  // formula spelled out by hand.
  PhiloxStream replay(987654321, 1);
  for (std::uint32_t base = 0; base < kCount;
       base += PhiloxStream::kBufWords) {
    const std::uint32_t* words = replay.next_block();
    std::array<std::uint32_t, PhiloxStream::kBufWords> reference;
    philox_fill_gaps_reference(words, PhiloxStream::kBufWords, scale, kCap,
                               reference.data());
    for (std::uint32_t i = 0; i < PhiloxStream::kBufWords; ++i) {
      ASSERT_EQ(dispatched[base + i], reference[i]) << "word " << base + i;
      const float u =
          (static_cast<float>(words[i] >> 8) + 0.5f) * 0x1.0p-24f;
      const float gap = fast_log2f(u) * scale;
      const std::uint32_t expected =
          gap >= static_cast<float>(kCap) ? kCap
                                          : static_cast<std::uint32_t>(gap);
      ASSERT_EQ(dispatched[base + i], expected) << "word " << base + i;
    }
  }
}

// ---- statistical smoke (Release CI only; excluded from Debug) ---------

// 256-bin chi-square over the top byte of 2^18 words: df = 255, so the
// statistic is ~N(255, sqrt(510)); 400 is ~6.4 sigma — a once-per-epoch
// false-positive rate, while catching any systematic bin bias.
TEST(PhiloxStatistical, ChiSquareEquidistribution) {
  constexpr int kBins = 256;
  constexpr int kDraws = 1 << 18;
  for (std::uint32_t stream : {0u, 1u}) {
    PhiloxStream s(0xC0FFEEull, stream);
    std::vector<int> bins(kBins, 0);
    for (int i = 0; i < kDraws; ++i) ++bins[s.next_u32() >> 24];
    const double expected = static_cast<double>(kDraws) / kBins;
    double chi2 = 0.0;
    for (int b = 0; b < kBins; ++b) {
      const double d = bins[b] - expected;
      chi2 += d * d / expected;
    }
    EXPECT_LT(chi2, 400.0) << "stream=" << stream;
    EXPECT_GT(chi2, 150.0) << "stream=" << stream;  // too-perfect is a bug
  }
}

// Bit balance across all 32 positions, 2^18 words: each bit count is
// ~N(2^17, 2^8.5); +/- 6 sigma bounds.
TEST(PhiloxStatistical, BitBalance) {
  constexpr int kDraws = 1 << 18;
  PhiloxStream s(0xBA1A2CEull, 0);
  std::vector<int> ones(32, 0);
  for (int i = 0; i < kDraws; ++i) {
    std::uint32_t w = s.next_u32();
    for (int b = 0; b < 32; ++b) ones[b] += (w >> b) & 1u;
  }
  const double mean = kDraws / 2.0;
  const double sigma = std::sqrt(kDraws / 4.0);
  for (int b = 0; b < 32; ++b) {
    EXPECT_NEAR(ones[b], mean, 6 * sigma) << "bit " << b;
  }
}

// Streams on the same seed are uncorrelated: the XOR of paired words has
// balanced popcount (mean 16, sigma 2.83 per word; averaged over 2^16
// words the mean is pinned within +/- 6 * 2.83 / 256).
TEST(PhiloxStatistical, StreamPairwiseDecorrelation) {
  constexpr int kDraws = 1 << 16;
  PhiloxStream s0(4242, 0), s1(4242, 1);
  double total = 0.0;
  for (int i = 0; i < kDraws; ++i) {
    total += std::popcount(s0.next_u32() ^ s1.next_u32());
  }
  const double mean = total / kDraws;
  EXPECT_NEAR(mean, 16.0, 6 * 2.8284 / std::sqrt(double{kDraws}));
}

}  // namespace
}  // namespace rumor
