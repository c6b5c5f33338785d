#include "support/philox.hpp"

#if defined(__SSE2__)
#include <emmintrin.h>
#if defined(__GNUC__) || defined(__clang__)
// Runtime-dispatched AVX2 kernels below: the TU is compiled for the
// x86-64 baseline, and the wide variants opt in per-function via the
// target attribute, selected once per process with
// __builtin_cpu_supports. Output is bit-identical across every path.
#include <immintrin.h>
#define RUMOR_PHILOX_AVX2_DISPATCH 1
#endif
#endif

namespace rumor {

// Known-answer vectors from the Random123 reference distribution
// (kat_vectors, philox4x32 rows, R=10) — compile-time proof that the round
// function, multipliers, and key schedule match the published generator.
static_assert(philox4x32({0u, 0u, 0u, 0u}, 0u, 0u) ==
              std::array<std::uint32_t, 4>{0x6627E8D5u, 0xE169C58Du,
                                           0xBC57AC4Cu, 0x9B00DBD8u});
static_assert(philox4x32({0xFFFFFFFFu, 0xFFFFFFFFu, 0xFFFFFFFFu,
                          0xFFFFFFFFu},
                         0xFFFFFFFFu, 0xFFFFFFFFu) ==
              std::array<std::uint32_t, 4>{0x408F276Du, 0x41C83B0Eu,
                                           0xA20BC7C6u, 0x6D5451FDu});
static_assert(philox4x32({0x243F6A88u, 0x85A308D3u, 0x13198A2Eu,
                          0x03707344u},
                         0xA4093822u, 0x299F31D0u) ==
              std::array<std::uint32_t, 4>{0xD16CFE09u, 0x94FDCCEBu,
                                           0x5001E420u, 0x24126EA1u});

namespace {

constexpr std::size_t kBufWords = PhiloxStream::kBufWords;

// Scalar refill core: four-blocks-per-group structure mirroring the SIMD
// paths, in plain integer arithmetic — bit-identical output, and the
// fallback for non-x86 targets.
[[maybe_unused]] void refill_scalar(std::uint32_t* buf, std::uint64_t block,
                                    std::uint32_t stream, std::uint32_t key0,
                                    std::uint32_t key1) {
  constexpr std::size_t kLanes = 4;
  constexpr std::size_t kGroups = kBufWords / (4 * kLanes);
  for (std::size_t g = 0; g < kGroups; ++g) {
    std::uint32_t x0[kLanes], x1[kLanes], x2[kLanes], x3[kLanes];
    std::uint32_t k0[kLanes], k1[kLanes];
    for (std::size_t l = 0; l < kLanes; ++l) {
      const std::uint64_t b = block + g * kLanes + l;
      x0[l] = static_cast<std::uint32_t>(b);
      x1[l] = static_cast<std::uint32_t>(b >> 32);
      x2[l] = stream;
      x3[l] = 0;
      k0[l] = key0;
      k1[l] = key1;
    }
    for (int round = 0; round < 10; ++round) {
      for (std::size_t l = 0; l < kLanes; ++l) {
        const std::uint64_t p0 = std::uint64_t{kPhiloxM0} * x0[l];
        const std::uint64_t p1 = std::uint64_t{kPhiloxM1} * x2[l];
        const std::uint32_t y0 =
            static_cast<std::uint32_t>(p1 >> 32) ^ x1[l] ^ k0[l];
        const std::uint32_t y1 = static_cast<std::uint32_t>(p1);
        const std::uint32_t y2 =
            static_cast<std::uint32_t>(p0 >> 32) ^ x3[l] ^ k1[l];
        const std::uint32_t y3 = static_cast<std::uint32_t>(p0);
        x0[l] = y0;
        x1[l] = y1;
        x2[l] = y2;
        x3[l] = y3;
        k0[l] += kPhiloxW0;
        k1[l] += kPhiloxW1;
      }
    }
    for (std::size_t l = 0; l < kLanes; ++l) {
      const std::size_t at = (g * kLanes + l) * 4;
      buf[at + 0] = x0[l];
      buf[at + 1] = x1[l];
      buf[at + 2] = x2[l];
      buf[at + 3] = x3[l];
    }
  }
}

#if defined(__SSE2__)

// Full 4-lane 32x32->64 multiply from the even-lane pmuludq primitive:
// multiply lanes {0,2} directly and lanes {1,3} after a 32-bit shift, then
// interleave the half-products back into lane order.
struct WideProduct {
  __m128i lo;
  __m128i hi;
};

inline WideProduct mul_wide_u32(__m128i x, __m128i m) {
  const __m128i even = _mm_mul_epu32(x, m);                      // lanes 0,2
  const __m128i odd = _mm_mul_epu32(_mm_srli_epi64(x, 32), m);   // lanes 1,3
  // even as u32 = [lo0 hi0 lo2 hi2], odd = [lo1 hi1 lo3 hi3].
  const __m128i lo02_13 = _mm_castps_si128(_mm_shuffle_ps(
      _mm_castsi128_ps(even), _mm_castsi128_ps(odd), _MM_SHUFFLE(2, 0, 2, 0)));
  const __m128i hi02_13 = _mm_castps_si128(_mm_shuffle_ps(
      _mm_castsi128_ps(even), _mm_castsi128_ps(odd), _MM_SHUFFLE(3, 1, 3, 1)));
  return {_mm_shuffle_epi32(lo02_13, _MM_SHUFFLE(3, 1, 2, 0)),
          _mm_shuffle_epi32(hi02_13, _MM_SHUFFLE(3, 1, 2, 0))};
}

// Four blocks per iteration in SoA registers; pmuludq is the widening
// multiply Philox is built around, so the whole round function is
// branch-free SSE2 (the x86-64 baseline).
void refill_sse2(std::uint32_t* buf, std::uint64_t block, std::uint32_t stream,
                 std::uint32_t key0, std::uint32_t key1) {
  constexpr std::size_t kLanes = 4;
  constexpr std::size_t kGroups = kBufWords / (4 * kLanes);
  const __m128i m0 = _mm_set1_epi32(static_cast<int>(kPhiloxM0));
  const __m128i m1 = _mm_set1_epi32(static_cast<int>(kPhiloxM1));
  const __m128i w0 = _mm_set1_epi32(static_cast<int>(kPhiloxW0));
  const __m128i w1 = _mm_set1_epi32(static_cast<int>(kPhiloxW1));
  for (std::size_t g = 0; g < kGroups; ++g) {
    const std::uint64_t b = block + g * kLanes;
    __m128i x0 = _mm_set_epi32(static_cast<int>(b + 3), static_cast<int>(b + 2),
                               static_cast<int>(b + 1), static_cast<int>(b));
    __m128i x1 = _mm_set1_epi32(static_cast<int>(b >> 32));
    // Lane counters b..b+3 share the same high word unless the low word
    // carries inside the group; groups are 4-aligned only when block_ is,
    // so handle the general case.
    if (static_cast<std::uint32_t>(b) > static_cast<std::uint32_t>(b + 3)) {
      x1 = _mm_set_epi32(
          static_cast<int>((b + 3) >> 32), static_cast<int>((b + 2) >> 32),
          static_cast<int>((b + 1) >> 32), static_cast<int>(b >> 32));
    }
    __m128i x2 = _mm_set1_epi32(static_cast<int>(stream));
    __m128i x3 = _mm_setzero_si128();
    __m128i k0 = _mm_set1_epi32(static_cast<int>(key0));
    __m128i k1 = _mm_set1_epi32(static_cast<int>(key1));
    for (int round = 0; round < 10; ++round) {
      const WideProduct p0 = mul_wide_u32(x0, m0);
      const WideProduct p1 = mul_wide_u32(x2, m1);
      const __m128i y0 = _mm_xor_si128(_mm_xor_si128(p1.hi, x1), k0);
      const __m128i y2 = _mm_xor_si128(_mm_xor_si128(p0.hi, x3), k1);
      x0 = y0;
      x1 = p1.lo;
      x2 = y2;
      x3 = p0.lo;
      k0 = _mm_add_epi32(k0, w0);
      k1 = _mm_add_epi32(k1, w1);
    }
    // Transpose SoA lanes back to block-sequential AoS order so the stream
    // reads exactly as if blocks were generated one at a time.
    const __m128i t0 = _mm_unpacklo_epi32(x0, x1);
    const __m128i t1 = _mm_unpacklo_epi32(x2, x3);
    const __m128i t2 = _mm_unpackhi_epi32(x0, x1);
    const __m128i t3 = _mm_unpackhi_epi32(x2, x3);
    auto* out = reinterpret_cast<__m128i*>(buf + g * kLanes * 4);
    _mm_store_si128(out + 0, _mm_unpacklo_epi64(t0, t1));
    _mm_store_si128(out + 1, _mm_unpackhi_epi64(t0, t1));
    _mm_store_si128(out + 2, _mm_unpacklo_epi64(t2, t3));
    _mm_store_si128(out + 3, _mm_unpackhi_epi64(t2, t3));
  }
}

#endif  // __SSE2__

#if defined(RUMOR_PHILOX_AVX2_DISPATCH)

// mul_wide_u32, widened to eight lanes: the 128-bit shuffle idioms apply
// per 256-bit half-lane, so the SSE2 interleave pattern carries over
// unchanged.
__attribute__((target("avx2"))) inline void mul_wide_u32_avx2(__m256i x,
                                                              __m256i m,
                                                              __m256i* lo,
                                                              __m256i* hi) {
  const __m256i even = _mm256_mul_epu32(x, m);
  const __m256i odd = _mm256_mul_epu32(_mm256_srli_epi64(x, 32), m);
  const __m256i lo_pairs = _mm256_castps_si256(
      _mm256_shuffle_ps(_mm256_castsi256_ps(even), _mm256_castsi256_ps(odd),
                        _MM_SHUFFLE(2, 0, 2, 0)));
  const __m256i hi_pairs = _mm256_castps_si256(
      _mm256_shuffle_ps(_mm256_castsi256_ps(even), _mm256_castsi256_ps(odd),
                        _MM_SHUFFLE(3, 1, 3, 1)));
  *lo = _mm256_shuffle_epi32(lo_pairs, _MM_SHUFFLE(3, 1, 2, 0));
  *hi = _mm256_shuffle_epi32(hi_pairs, _MM_SHUFFLE(3, 1, 2, 0));
}

// The ten Philox rounds over eight blocks in SoA lanes: x0..x3 hold the
// counter words on entry and the output words on return. Shared by the
// stream refill and the sharded first-word batch, so both compute exactly
// philox4x32 per lane.
__attribute__((target("avx2"))) inline void philox_rounds_avx2(
    __m256i& x0, __m256i& x1, __m256i& x2, __m256i& x3, std::uint32_t key0,
    std::uint32_t key1) {
  const __m256i m0 = _mm256_set1_epi32(static_cast<int>(kPhiloxM0));
  const __m256i m1 = _mm256_set1_epi32(static_cast<int>(kPhiloxM1));
  const __m256i w0 = _mm256_set1_epi32(static_cast<int>(kPhiloxW0));
  const __m256i w1 = _mm256_set1_epi32(static_cast<int>(kPhiloxW1));
  __m256i k0 = _mm256_set1_epi32(static_cast<int>(key0));
  __m256i k1 = _mm256_set1_epi32(static_cast<int>(key1));
  for (int round = 0; round < 10; ++round) {
    __m256i p0_lo, p0_hi, p1_lo, p1_hi;
    mul_wide_u32_avx2(x0, m0, &p0_lo, &p0_hi);
    mul_wide_u32_avx2(x2, m1, &p1_lo, &p1_hi);
    const __m256i y0 = _mm256_xor_si256(_mm256_xor_si256(p1_hi, x1), k0);
    const __m256i y2 = _mm256_xor_si256(_mm256_xor_si256(p0_hi, x3), k1);
    x0 = y0;
    x1 = p1_lo;
    x2 = y2;
    x3 = p0_lo;
    k0 = _mm256_add_epi32(k0, w0);
    k1 = _mm256_add_epi32(k1, w1);
  }
}

// Eight blocks per iteration; bit-identical to refill_sse2 / refill_scalar.
__attribute__((target("avx2"))) void refill_avx2(std::uint32_t* buf,
                                                 std::uint64_t block,
                                                 std::uint32_t stream,
                                                 std::uint32_t key0,
                                                 std::uint32_t key1) {
  constexpr std::size_t kLanes = 8;
  constexpr std::size_t kGroups = kBufWords / (4 * kLanes);
  for (std::size_t g = 0; g < kGroups; ++g) {
    const std::uint64_t b = block + g * kLanes;
    __m256i x0 = _mm256_set_epi32(
        static_cast<int>(b + 7), static_cast<int>(b + 6),
        static_cast<int>(b + 5), static_cast<int>(b + 4),
        static_cast<int>(b + 3), static_cast<int>(b + 2),
        static_cast<int>(b + 1), static_cast<int>(b));
    __m256i x1 = _mm256_set1_epi32(static_cast<int>(b >> 32));
    if (static_cast<std::uint32_t>(b) > static_cast<std::uint32_t>(b + 7)) {
      x1 = _mm256_set_epi32(
          static_cast<int>((b + 7) >> 32), static_cast<int>((b + 6) >> 32),
          static_cast<int>((b + 5) >> 32), static_cast<int>((b + 4) >> 32),
          static_cast<int>((b + 3) >> 32), static_cast<int>((b + 2) >> 32),
          static_cast<int>((b + 1) >> 32), static_cast<int>(b >> 32));
    }
    __m256i x2 = _mm256_set1_epi32(static_cast<int>(stream));
    __m256i x3 = _mm256_setzero_si256();
    philox_rounds_avx2(x0, x1, x2, x3, key0, key1);
    // 4x8 transpose back to block-sequential AoS order: 32-bit and 64-bit
    // unpacks give [blk0|blk4].. pairs per half-lane; the cross-lane
    // permute then restores sequential block order.
    const __m256i t0 = _mm256_unpacklo_epi32(x0, x1);
    const __m256i t1 = _mm256_unpacklo_epi32(x2, x3);
    const __m256i t2 = _mm256_unpackhi_epi32(x0, x1);
    const __m256i t3 = _mm256_unpackhi_epi32(x2, x3);
    const __m256i b04 = _mm256_unpacklo_epi64(t0, t1);  // [blk0 | blk4]
    const __m256i b15 = _mm256_unpackhi_epi64(t0, t1);  // [blk1 | blk5]
    const __m256i b26 = _mm256_unpacklo_epi64(t2, t3);  // [blk2 | blk6]
    const __m256i b37 = _mm256_unpackhi_epi64(t2, t3);  // [blk3 | blk7]
    auto* out = reinterpret_cast<__m256i*>(buf + g * kLanes * 4);
    _mm256_store_si256(out + 0, _mm256_permute2x128_si256(b04, b15, 0x20));
    _mm256_store_si256(out + 1, _mm256_permute2x128_si256(b26, b37, 0x20));
    _mm256_store_si256(out + 2, _mm256_permute2x128_si256(b04, b15, 0x31));
    _mm256_store_si256(out + 3, _mm256_permute2x128_si256(b26, b37, 0x31));
  }
}

// Block 0 of slots base..base+7 under (plane, phase), one slot per lane;
// out[l] gets the block's words 0-1 as one 64-bit word, the first
// next_u64() of that slot's SlotDraws.
__attribute__((target("avx2"))) void first_words_avx2(const ShardPlane& plane,
                                                      std::uint32_t phase,
                                                      std::uint32_t base,
                                                      std::uint64_t* out) {
  __m256i x0 = _mm256_add_epi32(_mm256_set1_epi32(static_cast<int>(base)),
                                _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  __m256i x1 = _mm256_set1_epi32(static_cast<int>(phase));  // seq 0
  __m256i x2 = _mm256_set1_epi32(static_cast<int>(plane.round_lo));
  __m256i x3 = _mm256_set1_epi32(static_cast<int>(plane.round_hi));
  philox_rounds_avx2(x0, x1, x2, x3, plane.k0, plane.k1);
  // Interleave words 0 and 1 per lane: [0 1 | 4 5] and [2 3 | 6 7] as
  // 64-bit words, then put the half-lanes back in slot order.
  const __m256i lo = _mm256_unpacklo_epi32(x0, x1);
  const __m256i hi = _mm256_unpackhi_epi32(x0, x1);
  auto* dst = reinterpret_cast<__m256i*>(out);
  _mm256_storeu_si256(dst, _mm256_permute2x128_si256(lo, hi, 0x20));
  _mm256_storeu_si256(dst + 1, _mm256_permute2x128_si256(lo, hi, 0x31));
}

[[nodiscard]] bool cpu_has_avx2() {
  static const bool kHasAvx2 = __builtin_cpu_supports("avx2") != 0;
  return kHasAvx2;
}

#endif  // RUMOR_PHILOX_AVX2_DISPATCH

}  // namespace

void PhiloxStream::refill() {
#if defined(RUMOR_PHILOX_AVX2_DISPATCH)
  if (cpu_has_avx2()) {
    refill_avx2(buf_.data(), block_, stream_, k0_, k1_);
  } else {
    refill_sse2(buf_.data(), block_, stream_, k0_, k1_);
  }
#elif defined(__SSE2__)
  refill_sse2(buf_.data(), block_, stream_, k0_, k1_);
#else
  refill_scalar(buf_.data(), block_, stream_, k0_, k1_);
#endif
  block_ += kBufWords / 4;
  pos_ = 0;
}

ShardFirstWords shard_first_words_reference(const ShardPlane& plane,
                                            std::uint32_t phase,
                                            std::uint32_t base) {
  ShardFirstWords out;
  for (std::uint32_t l = 0; l < kShardWordLanes; ++l) {
    const auto block = philox4x32(
        {base + l, phase, plane.round_lo, plane.round_hi}, plane.k0, plane.k1);
    out[l] = block[0] | (std::uint64_t{block[1]} << 32);
  }
  return out;
}

ShardFirstWords shard_first_words(const ShardPlane& plane,
                                  std::uint32_t phase, std::uint32_t base) {
#if defined(RUMOR_PHILOX_AVX2_DISPATCH)
  if (cpu_has_avx2()) {
    ShardFirstWords out;
    first_words_avx2(plane, phase, base, out.data());
    return out;
  }
#endif
  return shard_first_words_reference(plane, phase, base);
}

// ---- Geometric gap kernel ----------------------------------------------

namespace {

// One word -> one gap, the reference op sequence: center the 24-bit
// uniform, fast_log2f, scale, clamp. Every SIMD variant below replicates
// these exact IEEE single operations in the same order, so the dispatch is
// invisible in the output.
inline std::uint32_t gap_from_word(std::uint32_t w, float scale,
                                   std::uint32_t cap) {
  const float u = (static_cast<float>(w >> 8) + 0.5f) * 0x1.0p-24f;
  const float gap = fast_log2f(u) * scale;
  return gap >= static_cast<float>(cap) ? cap
                                        : static_cast<std::uint32_t>(gap);
}

#if defined(RUMOR_PHILOX_AVX2_DISPATCH)

// Eight gaps per iteration. Mirrors gap_from_word / fast_log2f operation
// for operation (separate mul and add steps — no FMA contraction; the
// target attribute enables avx2 only, so the compiler cannot fuse them
// either), so the results are bit-identical to the scalar path on every
// input.
__attribute__((target("avx2"))) void fill_gaps_avx2(const std::uint32_t* w,
                                                    std::uint32_t count,
                                                    float scale,
                                                    std::uint32_t cap,
                                                    std::uint32_t* out) {
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 two24 = _mm256_set1_ps(0x1.0p-24f);
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 vscale = _mm256_set1_ps(scale);
  const __m256 vcap = _mm256_set1_ps(static_cast<float>(cap));
  const __m256i icap = _mm256_set1_epi32(static_cast<int>(cap));
  const __m256i mant_mask = _mm256_set1_epi32(0x007FFFFF);
  const __m256i one_bits = _mm256_set1_epi32(0x3F800000);
  const __m256i exp_bias = _mm256_set1_epi32(127);
  for (std::uint32_t i = 0; i < count; i += 8) {
    const __m256i words =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(w + i));
    const __m256i top24 = _mm256_srli_epi32(words, 8);
    // (float(w >> 8) + 0.5f) * 2^-24 — exact: the 24-bit int converts
    // losslessly and the add/mul match the scalar rounding.
    const __m256 u = _mm256_mul_ps(
        _mm256_add_ps(_mm256_cvtepi32_ps(top24), half), two24);
    const __m256i bits = _mm256_castps_si256(u);
    const __m256i iexp = _mm256_sub_epi32(
        _mm256_and_si256(_mm256_srli_epi32(bits, 23),
                         _mm256_set1_epi32(0xFF)),
        exp_bias);
    const __m256 m = _mm256_castsi256_ps(
        _mm256_or_si256(_mm256_and_si256(bits, mant_mask), one_bits));
    const __m256 t = _mm256_sub_ps(m, one);
    __m256 poly = _mm256_set1_ps(7.395402161e-03f);
    poly = _mm256_add_ps(_mm256_mul_ps(poly, t),
                         _mm256_set1_ps(-4.194500901e-02f));
    poly = _mm256_add_ps(_mm256_mul_ps(poly, t),
                         _mm256_set1_ps(1.118320740e-01f));
    poly = _mm256_add_ps(_mm256_mul_ps(poly, t),
                         _mm256_set1_ps(-1.962389519e-01f));
    poly = _mm256_add_ps(_mm256_mul_ps(poly, t),
                         _mm256_set1_ps(2.752212123e-01f));
    poly = _mm256_add_ps(_mm256_mul_ps(poly, t),
                         _mm256_set1_ps(-3.582990696e-01f));
    poly = _mm256_add_ps(_mm256_mul_ps(poly, t),
                         _mm256_set1_ps(4.806788896e-01f));
    poly = _mm256_add_ps(_mm256_mul_ps(poly, t),
                         _mm256_set1_ps(-7.213395131e-01f));
    poly = _mm256_add_ps(_mm256_mul_ps(poly, t),
                         _mm256_set1_ps(1.442694992e+00f));
    const __m256 log2u = _mm256_add_ps(_mm256_cvtepi32_ps(iexp),
                                       _mm256_mul_ps(t, poly));
    const __m256 gap = _mm256_mul_ps(log2u, vscale);
    const __m256 capped = _mm256_cmp_ps(gap, vcap, _CMP_GE_OQ);
    const __m256i igap = _mm256_cvttps_epi32(gap);
    const __m256i result =
        _mm256_blendv_epi8(igap, icap, _mm256_castps_si256(capped));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), result);
  }
}

#endif  // RUMOR_PHILOX_AVX2_DISPATCH

}  // namespace

void philox_fill_gaps_reference(const std::uint32_t* words,
                                std::uint32_t count, float scale,
                                std::uint32_t cap, std::uint32_t* out) {
  for (std::uint32_t i = 0; i < count; ++i) {
    out[i] = gap_from_word(words[i], scale, cap);
  }
}

void philox_fill_gaps(PhiloxStream& stream, std::uint32_t count, float scale,
                      std::uint32_t cap, std::uint32_t* out) {
  // Whole blocks in, one flat pass out per block; the word sequence is the
  // plain sequential stream order.
  for (std::uint32_t base = 0; base < count;
       base += PhiloxStream::kBufWords) {
    const std::uint32_t* w = stream.next_block();
#if defined(RUMOR_PHILOX_AVX2_DISPATCH)
    if (cpu_has_avx2()) {
      fill_gaps_avx2(w, PhiloxStream::kBufWords, scale, cap, out + base);
      continue;
    }
#endif
    philox_fill_gaps_reference(w, PhiloxStream::kBufWords, scale, cap,
                               out + base);
  }
}

}  // namespace rumor
