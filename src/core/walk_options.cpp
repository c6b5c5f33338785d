#include "core/walk_options.hpp"

#include "graph/properties.hpp"
#include "support/spec_text.hpp"

namespace rumor {

Laziness resolve_laziness(const Graph& g, LazyMode mode) {
  switch (mode) {
    case LazyMode::never:
      return Laziness::none;
    case LazyMode::always:
      return Laziness::half;
    case LazyMode::auto_bipartite:
      return is_bipartite(g) ? Laziness::half : Laziness::none;
  }
  return Laziness::none;
}

std::size_t resolve_agent_count(Vertex n, std::size_t agent_count,
                                double alpha) {
  return agent_count != 0 ? agent_count : agent_count_for(n, alpha);
}

// ---- Spec text plumbing ------------------------------------------------

namespace {

const char* placement_token(Placement p) {
  switch (p) {
    case Placement::stationary:
      return "stationary";
    case Placement::one_per_vertex:
      return "one_per_vertex";
    case Placement::uniform:
      return "uniform";
    case Placement::at_vertex:
      return "at_vertex";
  }
  return "stationary";
}

const char* lazy_token(LazyMode mode) {
  switch (mode) {
    case LazyMode::never:
      return "never";
    case LazyMode::always:
      return "always";
    case LazyMode::auto_bipartite:
      return "auto";
  }
  return "never";
}

}  // namespace

bool set_trace_option(TraceOptions& trace, std::string_view key,
                      std::string_view value) {
  const auto flag = spec_text::parse_bool(value);
  if (!flag) return false;
  if (key != "curve") return false;
  trace.informed_curve = *flag;
  return true;
}

void format_trace_options(const TraceOptions& trace,
                          const TraceOptions& defaults,
                          spec_text::KeyValWriter& out) {
  if (trace.informed_curve != defaults.informed_curve) {
    out.add("curve", trace.informed_curve ? "on" : "off");
  }
}

bool set_walk_option(WalkOptions& options, std::string_view key,
                     std::string_view value) {
  if (set_agent_walk_option(options, key, value)) return true;
  if (set_transmission_intervention_option(options.transmission, key,
                                           value)) {
    return true;
  }
  return set_trace_option(options.trace, key, value);
}

bool set_agent_walk_option(WalkOptions& options, std::string_view key,
                           std::string_view value) {
  if (key == "alpha") {
    const auto v = spec_text::parse_double(value);
    // Positive form rejects NaN; the upper bound rejects inf and the
    // overflow-large values that would make llround(alpha * n) UB.
    if (!v || !(*v > 0.0 && *v <= 1e9)) return false;
    options.alpha = *v;
  } else if (key == "agents") {
    // Agent ids are 32-bit (walk/agents.hpp): more agents would wrap them.
    const auto v = spec_text::parse_u64(value);
    if (!v || *v > kMaxAgents) return false;
    options.agent_count = static_cast<std::size_t>(*v);
  } else if (key == "placement") {
    if (value == "stationary") {
      options.placement = Placement::stationary;
    } else if (value == "one_per_vertex") {
      options.placement = Placement::one_per_vertex;
    } else if (value == "uniform") {
      options.placement = Placement::uniform;
    } else if (value == "at_vertex") {
      options.placement = Placement::at_vertex;
    } else {
      return false;
    }
  } else if (key == "anchor") {
    if (value == "source") {
      options.placement_anchor = kNoVertex;
    } else {
      const auto v = spec_text::parse_u64(value);
      // kNoVertex is the "the source" sentinel; anything at or above it
      // would truncate in the Vertex cast.
      if (!v || *v >= kNoVertex) return false;
      options.placement_anchor = static_cast<Vertex>(*v);
    }
  } else if (key == "lazy") {
    if (value == "never") {
      options.lazy = LazyMode::never;
    } else if (value == "always") {
      options.lazy = LazyMode::always;
    } else if (value == "auto") {
      options.lazy = LazyMode::auto_bipartite;
    } else {
      return false;
    }
  } else if (key == "max_rounds") {
    const auto v = spec_text::parse_u64(value);
    if (!v) return false;
    options.max_rounds = *v;
  } else if (key == "tp") {
    return set_transmission_probability_option(options.transmission, key,
                                               value);
  } else {
    return false;
  }
  return true;
}

void format_walk_options(const WalkOptions& options,
                         const WalkOptions& defaults,
                         spec_text::KeyValWriter& out) {
  format_agent_walk_options(options, defaults, out);
  format_transmission_intervention_options(options.transmission,
                                           defaults.transmission, out);
  format_trace_options(options.trace, defaults.trace, out);
}

void format_agent_walk_options(const WalkOptions& options,
                               const WalkOptions& defaults,
                               spec_text::KeyValWriter& out) {
  if (options.alpha != defaults.alpha) out.add("alpha", options.alpha);
  if (options.agent_count != defaults.agent_count) {
    out.add("agents", static_cast<std::uint64_t>(options.agent_count));
  }
  if (options.placement != defaults.placement) {
    out.add("placement", placement_token(options.placement));
  }
  if (options.placement_anchor != defaults.placement_anchor) {
    out.add("anchor",
            static_cast<std::uint64_t>(options.placement_anchor));
  }
  if (options.lazy != defaults.lazy) {
    out.add("lazy", lazy_token(options.lazy));
  }
  if (options.max_rounds != defaults.max_rounds) {
    out.add("max_rounds", static_cast<std::uint64_t>(options.max_rounds));
  }
  format_transmission_probability_options(options.transmission,
                                          defaults.transmission, out);
}

}  // namespace rumor
