#include "core/transmission.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

#include "support/spec_text.hpp"

namespace rumor {

namespace {

// Parses a `tp=` value: a plain probability in (0, 1] or the degree-scaled
// form `deg^<exponent>` (exponent a finite double in [-8, 8] — enough for
// every published degree-scaling law, small enough that pow stays finite).
bool parse_tp_value(TransmissionOptions& options, std::string_view value) {
  constexpr std::string_view kDegPrefix = "deg^";
  if (value.starts_with(kDegPrefix)) {
    const auto e = spec_text::parse_double(value.substr(kDegPrefix.size()));
    if (!e || !(*e >= -8.0 && *e <= 8.0)) return false;  // NaN-proof
    options.degree_scaled = true;
    options.tp_exponent = *e;
    options.tp = 1.0;
    return true;
  }
  const auto v = spec_text::parse_double(value);
  if (!v || !(*v > 0.0 && *v <= 1.0)) return false;  // NaN-proof
  options.degree_scaled = false;
  options.tp_exponent = 0.0;
  options.tp = *v;
  return true;
}

std::string format_tp_value(const TransmissionOptions& options) {
  if (options.degree_scaled) {
    return "deg^" + spec_text::fmt_double(options.tp_exponent);
  }
  return spec_text::fmt_double(options.tp);
}

}  // namespace

bool set_transmission_probability_option(TransmissionOptions& options,
                                         std::string_view key,
                                         std::string_view value) {
  if (key != "tp") return false;
  return parse_tp_value(options, value);
}

bool set_transmission_option(TransmissionOptions& options,
                             std::string_view key, std::string_view value) {
  if (key == "tp") return parse_tp_value(options, value);
  return set_transmission_intervention_option(options, key, value);
}

bool set_transmission_intervention_option(TransmissionOptions& options,
                                          std::string_view key,
                                          std::string_view value) {
  if (key == "stifle") {
    const auto v = spec_text::parse_u64(value);
    if (!v || *v > 0xFFFFFFFFULL) return false;
    options.stifle = static_cast<std::uint32_t>(*v);
    return true;
  }
  if (key == "block") {
    const auto v = spec_text::parse_double(value);
    if (!v || !(*v >= 0.0 && *v < 1.0)) return false;  // NaN-proof
    options.block_fraction = *v;
    return true;
  }
  if (key == "block@t") {
    const auto v = spec_text::parse_u64(value);
    if (!v || *v == 0) return false;  // round 0 is initialization
    options.block_round = *v;
    return true;
  }
  return false;
}

void format_transmission_probability_options(
    const TransmissionOptions& options, const TransmissionOptions& defaults,
    spec_text::KeyValWriter& out) {
  if (options.tp != defaults.tp ||
      options.degree_scaled != defaults.degree_scaled ||
      options.tp_exponent != defaults.tp_exponent) {
    out.add("tp", format_tp_value(options));
  }
}

void format_transmission_options(const TransmissionOptions& options,
                                 const TransmissionOptions& defaults,
                                 spec_text::KeyValWriter& out) {
  format_transmission_probability_options(options, defaults, out);
  format_transmission_intervention_options(options, defaults, out);
}

void format_transmission_intervention_options(
    const TransmissionOptions& options, const TransmissionOptions& defaults,
    spec_text::KeyValWriter& out) {
  if (options.stifle != defaults.stifle) {
    out.add("stifle", static_cast<std::uint64_t>(options.stifle));
  }
  if (options.block_fraction != defaults.block_fraction) {
    out.add("block", options.block_fraction);
  }
  if (options.block_round != defaults.block_round) {
    out.add("block@t", static_cast<std::uint64_t>(options.block_round));
  }
}

std::vector<std::string> transmission_key_signatures() {
  return {
      "tp=<p in (0,1]> | tp=deg^<exp>   contact success probability "
      "(uniform / degree-scaled receive)",
      "stifle=<k>                       informed entities transmit for k "
      "rounds, then stifle",
      "block=<f> [block@t=<round>]      quarantine the top f*n "
      "highest-degree vertices from that round on",
  };
}

namespace {

// Skip sampling draws its gaps through fast_log2f(1 - p), so the success
// probability it implies is 1 - 2^fast_log2f(1 - p), not p. Near p = 0
// the rounding of the float 1 - p and the log's absolute error dominate:
// the implied probability is 17% low at p = 1e-7 and 0.8% low at 1e-6,
// and below about 6e-8 the log is 0, so the gap scale would be infinite.
// A constant field keeps skip sampling only where the implied
// probability is within this relative tolerance of p.
constexpr double kSkipTolerance = 1e-3;

bool skip_sampling_represents(float p) {
  const double implied =
      1.0 - std::exp2(static_cast<double>(fast_log2f(1.0f - p)));
  return std::abs(implied - p) <= kSkipTolerance * p;
}

void rebuild_fields(const Graph& g, const TransmissionOptions& options,
                    TransmissionScratch& s) {
  const Vertex n = g.num_vertices();
  s.vertex_success.assign(n, static_cast<float>(options.tp));
  if (options.degree_scaled) {
    for (Vertex v = 0; v < n; ++v) {
      const std::uint32_t deg = g.degree_unchecked(v);
      // Degree-0 vertices are never contacted; keep them at tp so the
      // field stays well-defined for negative exponents.
      const double p =
          deg == 0 ? options.tp
                   : options.tp * std::pow(static_cast<double>(deg),
                                           options.tp_exponent);
      s.vertex_success[v] = static_cast<float>(std::clamp(p, 0.0, 1.0));
    }
  }
  s.field_min = 1.0f;
  s.field_max = 0.0f;
  for (Vertex v = 0; v < n; ++v) {
    s.field_min = std::min(s.field_min, s.vertex_success[v]);
    s.field_max = std::max(s.field_max, s.vertex_success[v]);
  }
  if (n == 0) s.field_min = s.field_max = 1.0f;

  s.blocked.assign(n, 0);
  s.blocked_count = 0;
  if (options.block_fraction > 0.0) {
    const auto count = static_cast<std::uint32_t>(std::min<double>(
        n, std::llround(options.block_fraction * static_cast<double>(n))));
    if (count > 0) {
      // Targeted quarantine: the highest-degree vertices go first (ties by
      // ascending id) — deterministic, so blocking consumes no RNG and the
      // trial stream is unchanged by where the blocked set lands.
      auto& order = s.order;
      order.resize(n);
      std::iota(order.begin(), order.end(), 0u);
      std::partial_sort(order.begin(), order.begin() + count, order.end(),
                        [&](std::uint32_t a, std::uint32_t b) {
                          const std::uint32_t da = g.degree_unchecked(a);
                          const std::uint32_t db = g.degree_unchecked(b);
                          if (da != db) return da > db;
                          return a < b;
                        });
      for (std::uint32_t i = 0; i < count; ++i) s.blocked[order[i]] = 1;
      s.blocked_count = count;
    }
  }
}

}  // namespace

void TransmissionModel::bind(const Graph& g,
                             const TransmissionOptions& options,
                             TrialArena& arena, std::uint64_t seed) {
  trivial_ = options.trivial();
  sample_mode_ = SampleMode::trivial;
  stifle_ = options.stifle;
  block_round_ = options.block_round;
  uniform_p_ = 1.0f;
  gap_scale_ = 0.0f;
  vertex_success_ = nullptr;
  blocked_ = nullptr;
  if (trivial_) return;  // golden path: no fields, no streams, no draws

  TransmissionScratch& s = arena.transmission;
  const bool cache_hit =
      s.graph_uid == g.uid() && s.tp == options.tp &&
      s.exponent == options.tp_exponent &&
      s.degree_scaled == options.degree_scaled &&
      s.block_fraction == options.block_fraction;
  if (!cache_hit) {
    rebuild_fields(g, options, s);
    s.graph_uid = g.uid();
    s.tp = options.tp;
    s.exponent = options.tp_exponent;
    s.degree_scaled = options.degree_scaled;
    s.block_fraction = options.block_fraction;
  }
  vertex_success_ = s.vertex_success.data();
  blocked_ = s.blocked_count > 0 ? s.blocked.data() : nullptr;

  // Mode pick from the materialized field, not the option flags: a
  // degree-scaled spec on a regular graph produces a constant field and
  // earns the skip fast path; a constant 1.0 field (tp=1 + interventions)
  // must stay draw-free, so it routes to batched where attempt() folds to
  // "always succeed" per entry; so does a constant field too small for
  // the gaps to represent.
  const bool skip = s.field_min == s.field_max && s.field_max < 1.0f &&
                    s.field_max > 0.0f &&
                    skip_sampling_represents(s.field_max);
  sample_mode_ = skip ? SampleMode::skip_uniform : SampleMode::batched;
  if (skip) {
    uniform_p_ = s.field_max;
    gap_scale_ = 1.0f / fast_log2f(1.0f - uniform_p_);
  }
  attempt_stream_.reseed(seed, 0);
  gap_stream_.reseed(seed, 1);
  gap_pos_ = kGapBatch;
}

void TransmissionModel::refill_gaps() {
  // Whole Philox blocks in, one SIMD pass out per block (the uniforms are
  // centered on (w >> 8) + 0.5 to keep log finite at both ends without a
  // branch). The word sequence is the plain sequential stream-1 order;
  // the dispatched kernel is bit-identical on every ISA.
  static_assert(kGapBatch % PhiloxStream::kBufWords == 0);
  philox_fill_gaps(gap_stream_, kGapBatch, gap_scale_, kGapCap,
                   gaps_.data());
  gap_pos_ = 0;
}

std::vector<std::uint32_t> derive_stifled_curve(
    const std::vector<std::uint32_t>& informed_curve, std::uint32_t stifle) {
  if (stifle == 0 || informed_curve.empty()) return {};
  std::vector<std::uint32_t> stifled(informed_curve.size(), 0);
  for (std::size_t t = stifle + 1; t < informed_curve.size(); ++t) {
    stifled[t] = informed_curve[t - stifle - 1];
  }
  return stifled;
}

}  // namespace rumor
