#include "experiments/specs.hpp"

#include <array>

#include "graph/file_graph.hpp"
#include "graph/generators.hpp"
#include "support/spec_text.hpp"

namespace rumor {

namespace {

// One row per family: the spec-grammar head and the parameter keys. The
// same table drives name() and parse(), so the two cannot drift apart.
struct FamilyInfo {
  Family family;
  const char* name;
  const char* key_a;
  const char* key_b;   // nullptr = family has no second parameter
  bool has_p = false;  // erdos_renyi's edge probability
};

constexpr std::array<FamilyInfo, 19> kFamilies{{
    {Family::star, "star", "leaves", nullptr},
    {Family::double_star, "double_star", "leaves", nullptr},
    {Family::heavy_tree, "heavy_tree", "n", nullptr},
    {Family::siamese, "siamese", "n", nullptr},
    {Family::cycle_stars_cliques, "cycle_stars_cliques", "k", nullptr},
    {Family::complete, "complete", "n", nullptr},
    {Family::cycle, "cycle", "n", nullptr},
    {Family::path, "path", "n", nullptr},
    {Family::grid, "grid", "rows", "cols"},
    {Family::torus, "torus", "rows", "cols"},
    {Family::hypercube, "hypercube", "dim", nullptr},
    {Family::circulant, "circulant", "n", "k"},
    {Family::clique_ring, "clique_ring", "groups", "k"},
    {Family::clique_path, "clique_path", "groups", "k"},
    {Family::random_regular, "random_regular", "n", "d"},
    {Family::erdos_renyi, "erdos_renyi", "n", nullptr, true},
    {Family::barbell, "barbell", "k", nullptr},
    {Family::star_of_cliques, "star_of_cliques", "c", "k"},
    {Family::binary_tree, "binary_tree", "n", nullptr},
}};

const FamilyInfo& family_info(Family family) {
  for (const FamilyInfo& info : kFamilies) {
    if (info.family == family) return info;
  }
  RUMOR_CHECK(false);  // unreachable: the table covers the enum
  return kFamilies[0];
}

const FamilyInfo* family_info(std::string_view name) {
  for (const FamilyInfo& info : kFamilies) {
    if (name == info.name) return &info;
  }
  return nullptr;
}

// Families whose adjacency has a closed form (graph/implicit.hpp); the
// parameter order (a, b) matches make_implicit_desc's.
ImplicitKind implicit_kind_of(Family family) {
  switch (family) {
    case Family::star: return ImplicitKind::star;
    case Family::cycle: return ImplicitKind::cycle;
    case Family::complete: return ImplicitKind::complete;
    case Family::grid: return ImplicitKind::grid;
    case Family::torus: return ImplicitKind::torus;
    case Family::circulant: return ImplicitKind::circulant;
    default: return ImplicitKind::none;
  }
}

// Exact private footprint of an owned-CSR build: offsets and fwd_offsets
// (n+1 u32 each) + neighbors (2m u32).
std::uint64_t owned_csr_bytes(std::uint64_t n, std::uint64_t m) {
  return 8 * (n + 1) + 8 * m;
}

const char* backend_choice_name(GraphBackendChoice choice) {
  switch (choice) {
    case GraphBackendChoice::automatic: return "auto";
    case GraphBackendChoice::owned: return "owned";
    case GraphBackendChoice::implicit: return "implicit";
  }
  return "?";
}

// Closed-form n/m plus the generator preconditions for the materialized
// deterministic families (the implicit-capable six answer through
// make_implicit_desc instead). Computes in 128-bit so absurd parameters
// report "too large" rather than wrapping.
bool probe_materialized(const GraphSpec& spec, GraphProbe& out,
                        std::string* error) {
  const auto fail = [&](const char* msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  using u128 = unsigned __int128;
  const u128 a = spec.a;
  const u128 b = spec.b;
  u128 n = 0;
  u128 m = 0;
  switch (spec.family) {
    case Family::double_star:
      if (a < 2) return fail("double_star requires leaves >= 2");
      n = 2 + 2 * a;
      m = 2 * a + 1;
      break;
    case Family::heavy_tree:
    case Family::siamese: {
      if (a < 4) return fail("heavy tree families require n >= 4");
      const u128 leaves = a - a / 2;  // heap positions [n/2, n)
      const u128 one = (a - 1) + leaves * (leaves - 1) / 2;
      const bool two = spec.family == Family::siamese;
      n = two ? 2 * a - 1 : a;
      m = two ? 2 * one : one;
      break;
    }
    case Family::cycle_stars_cliques:
      if (a < 3) return fail("cycle_stars_cliques requires k >= 3");
      n = a + a * a + a * a * a;
      m = a + a * a + a * a * (a + a * (a - 1) / 2);
      break;
    case Family::path:
      if (a < 2) return fail("path requires n >= 2");
      n = a;
      m = a - 1;
      break;
    case Family::hypercube:
      if (a < 1 || a >= 31) return fail("hypercube requires 1 <= dim < 31");
      n = u128{1} << spec.a;
      m = a * (u128{1} << (spec.a - 1));
      break;
    case Family::clique_ring:
    case Family::clique_path: {
      if (a < 3 || b < 2) {
        return fail("clique families require groups >= 3, k >= 2");
      }
      const u128 links = spec.family == Family::clique_ring ? a : a - 1;
      n = a * b;
      m = a * (b * (b - 1) / 2) + links * b;
      break;
    }
    case Family::random_regular:
      if (a < 2 || b < 1 || b >= a) {
        return fail("random_regular requires n >= 2, 1 <= d < n");
      }
      if ((a * b) % 2 != 0) {
        return fail("random_regular requires n*d even");
      }
      if (b == 1 && a > 2) {
        return fail("random_regular with d=1 is a perfect matching, "
                    "connected only for n=2");
      }
      n = a;
      m = a * b / 2;
      break;
    case Family::erdos_renyi:
      if (a < 2) return fail("erdos_renyi requires n >= 2");
      n = a;
      m = static_cast<u128>(spec.p * 0.5 * static_cast<double>(spec.a) *
                            static_cast<double>(spec.a - 1));
      out.m_estimated = true;
      break;
    case Family::barbell:
      if (a < 2) return fail("barbell requires k >= 2");
      n = 2 * a;
      m = a * (a - 1) + 1;
      break;
    case Family::star_of_cliques:
      if (a < 2 || b < 2) {
        return fail("star_of_cliques requires cliques >= 2, k >= 2");
      }
      n = 1 + a * b;
      m = a + a * (b * (b - 1) / 2);
      break;
    case Family::binary_tree:
      if (a < 2) return fail("binary_tree requires n >= 2");
      n = a;
      m = a - 1;
      break;
    default:
      RUMOR_CHECK(false);  // implicit-capable / file handled by the caller
  }
  if (n > 0xFFFFFFFFull) {
    return fail("graph too large: vertex count exceeds 32-bit ids");
  }
  if (m >= u128{1} << 31) {
    return fail("graph too large: edge count exceeds 32-bit edge ids");
  }
  out.n = static_cast<Vertex>(n);
  out.m = static_cast<std::uint64_t>(m);
  return true;
}

}  // namespace

GraphBackend GraphSpec::resolved_backend() const {
  if (family == Family::file) return GraphBackend::mapped;
  if (backend != GraphBackendChoice::owned &&
      implicit_kind_of(family) != ImplicitKind::none) {
    return GraphBackend::implicit;
  }
  return GraphBackend::owned;
}

std::optional<GraphProbe> GraphSpec::probe(std::string* error) const {
  GraphProbe out;
  out.backend = resolved_backend();
  if (family == Family::file) {
    try {
      const FileGraphInfo info = probe_file_graph(path);
      out.n = info.n;
      out.m = info.m;
      out.graph_bytes = info.cache_bytes;
    } catch (const GraphFileError& e) {
      if (error != nullptr) *error = e.what();
      return std::nullopt;
    }
    return out;
  }
  if (const ImplicitKind kind = implicit_kind_of(family);
      kind != ImplicitKind::none) {
    // The closed forms validate exactly the generator preconditions, so one
    // probe covers both backend choices for these families.
    ImplicitDesc desc;
    if (!make_implicit_desc(kind, a, b, desc, error)) return std::nullopt;
    out.n = desc.n;
    out.m = desc.m;
    out.graph_bytes = out.backend == GraphBackend::implicit
                          ? 0
                          : owned_csr_bytes(desc.n, desc.m);
    return out;
  }
  if (!probe_materialized(*this, out, error)) return std::nullopt;
  out.graph_bytes = owned_csr_bytes(out.n, out.m);
  return out;
}

Graph GraphSpec::make(Rng& rng) const {
  if (family == Family::file) return load_file_graph(path);
  if (resolved_backend() == GraphBackend::implicit) {
    ImplicitDesc desc;
    // Same preconditions the generator enforces with RUMOR_REQUIRE; spec
    // consumers validate through probe() first for a typed error instead.
    RUMOR_REQUIRE(make_implicit_desc(implicit_kind_of(family), a, b, desc));
    return Graph::make_implicit(desc);
  }
  switch (family) {
    case Family::star:
      return gen::star(static_cast<Vertex>(a));
    case Family::double_star:
      return gen::double_star(static_cast<Vertex>(a));
    case Family::heavy_tree:
      return gen::heavy_binary_tree(static_cast<Vertex>(a));
    case Family::siamese:
      return gen::siamese_heavy_tree(static_cast<Vertex>(a));
    case Family::cycle_stars_cliques:
      return gen::cycle_stars_cliques(static_cast<Vertex>(a));
    case Family::complete:
      return gen::complete(static_cast<Vertex>(a));
    case Family::cycle:
      return gen::cycle(static_cast<Vertex>(a));
    case Family::path:
      return gen::path(static_cast<Vertex>(a));
    case Family::grid:
      return gen::grid2d(static_cast<Vertex>(a), static_cast<Vertex>(b));
    case Family::torus:
      return gen::torus2d(static_cast<Vertex>(a), static_cast<Vertex>(b));
    case Family::hypercube:
      return gen::hypercube(static_cast<std::uint32_t>(a));
    case Family::circulant:
      return gen::circulant(static_cast<Vertex>(a),
                            static_cast<std::uint32_t>(b));
    case Family::clique_ring:
      return gen::clique_ring(static_cast<Vertex>(a), static_cast<Vertex>(b));
    case Family::clique_path:
      return gen::clique_path(static_cast<Vertex>(a), static_cast<Vertex>(b));
    case Family::random_regular:
      return gen::random_regular(static_cast<Vertex>(a),
                                 static_cast<std::uint32_t>(b), rng);
    case Family::erdos_renyi:
      return gen::erdos_renyi_connected(static_cast<Vertex>(a), p, rng);
    case Family::barbell:
      return gen::barbell(static_cast<Vertex>(a));
    case Family::star_of_cliques:
      return gen::star_of_cliques(static_cast<Vertex>(a),
                                  static_cast<Vertex>(b));
    case Family::binary_tree:
      return gen::balanced_binary_tree(static_cast<Vertex>(a));
    case Family::file:
      break;  // handled above; unreachable
  }
  RUMOR_CHECK(false);  // unreachable
  return gen::complete(2);
}

std::string GraphSpec::name() const {
  if (family == Family::file) return "file:" + path;
  const FamilyInfo& info = family_info(family);
  spec_text::KeyValWriter writer;
  writer.add(info.key_a, a);
  if (info.key_b != nullptr) writer.add(info.key_b, b);
  if (info.has_p) writer.add("p", p);
  if (backend != GraphBackendChoice::automatic) {
    writer.add("backend", backend_choice_name(backend));
  }
  return std::string(info.name) + "(" + writer.str() + ")";
}

std::optional<GraphSpec> GraphSpec::parse(std::string_view text,
                                          std::string* error) {
  constexpr std::string_view kFilePrefix = "file:";
  if (text.starts_with(kFilePrefix)) {
    const std::string_view file_path = text.substr(kFilePrefix.size());
    if (file_path.empty()) {
      if (error != nullptr) *error = "file: requires a path";
      return std::nullopt;
    }
    GraphSpec spec;
    spec.family = Family::file;
    spec.path = std::string(file_path);
    return spec;
  }
  const auto call = spec_text::parse_call(text, error);
  if (!call) return std::nullopt;
  const FamilyInfo* info = family_info(std::string_view(call->head));
  if (info == nullptr) {
    if (error != nullptr) {
      *error = "unknown graph family \"" + call->head + "\"";
    }
    return std::nullopt;
  }
  GraphSpec spec;
  spec.family = info->family;
  bool have_a = false;
  bool have_b = false;
  bool have_p = false;
  for (const auto& [key, value] : call->args) {
    if (key == info->key_a) {
      const auto v = spec_text::parse_u64(value);
      if (!v) {
        if (error != nullptr) *error = "bad value " + key + "=" + value;
        return std::nullopt;
      }
      spec.a = *v;
      have_a = true;
    } else if (info->key_b != nullptr && key == info->key_b) {
      const auto v = spec_text::parse_u64(value);
      if (!v) {
        if (error != nullptr) *error = "bad value " + key + "=" + value;
        return std::nullopt;
      }
      spec.b = *v;
      have_b = true;
    } else if (key == "backend") {
      if (value == "auto") {
        spec.backend = GraphBackendChoice::automatic;
      } else if (value == "owned") {
        spec.backend = GraphBackendChoice::owned;
      } else if (value == "implicit") {
        if (implicit_kind_of(spec.family) == ImplicitKind::none) {
          if (error != nullptr) {
            *error = "graph family \"" + call->head +
                     "\" has no implicit (closed-form) backend";
          }
          return std::nullopt;
        }
        spec.backend = GraphBackendChoice::implicit;
      } else {
        if (error != nullptr) {
          *error = "bad value backend=" + value +
                   " (expected auto, owned, or implicit)";
        }
        return std::nullopt;
      }
    } else if (info->has_p && key == "p") {
      const auto v = spec_text::parse_double(value);
      // Positive form is NaN-proof; p = 0 is rejected too (the generator
      // requires a positive edge probability).
      if (!v || !(*v > 0.0 && *v <= 1.0)) {
        if (error != nullptr) *error = "bad value p=" + value;
        return std::nullopt;
      }
      spec.p = *v;
      have_p = true;
    } else {
      if (error != nullptr) {
        *error = "graph family \"" + call->head + "\" has no parameter \"" +
                 key + "\"";
      }
      return std::nullopt;
    }
  }
  // Every parameter the family declares is required: a defaulted-to-zero
  // size would only abort later, deep inside the generator.
  const char* missing = !have_a ? info->key_a
                        : (info->key_b != nullptr && !have_b) ? info->key_b
                        : (info->has_p && !have_p)            ? "p"
                                                              : nullptr;
  if (missing != nullptr) {
    if (error != nullptr) {
      *error = "graph family \"" + call->head + "\" requires " +
               std::string(missing) + "=<value>";
    }
    return std::nullopt;
  }
  return spec;
}

std::vector<std::string_view> graph_family_names() {
  std::vector<std::string_view> names;
  names.reserve(kFamilies.size());
  for (const FamilyInfo& info : kFamilies) names.push_back(info.name);
  return names;
}

std::vector<std::string> graph_family_signatures() {
  std::vector<std::string> signatures;
  signatures.reserve(kFamilies.size());
  for (const FamilyInfo& info : kFamilies) {
    std::string sig = std::string(info.name) + "(" + info.key_a;
    if (info.key_b != nullptr) sig += std::string(",") + info.key_b;
    if (info.has_p) sig += ",p";
    sig += ")";
    signatures.push_back(std::move(sig));
  }
  return signatures;
}

TrialResult run_protocol(const Graph& g, const ProtocolSpec& spec,
                         Vertex source, std::uint64_t seed,
                         TrialArena* arena) {
  return SimulatorRegistry::instance().at(spec.protocol).run(
      g, spec.options, source, seed, arena);
}

}  // namespace rumor
