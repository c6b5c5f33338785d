#include "graph/implicit.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>

namespace rumor {

namespace {

constexpr std::uint64_t kMaxVertices =
    std::numeric_limits<std::uint32_t>::max();
// Same ceiling the owned-CSR constructor enforces: 2m directed slots must
// fit EdgeId arithmetic.
constexpr std::uint64_t kMaxEdges =
    std::numeric_limits<std::uint32_t>::max() / 2;

bool fail(std::string* error, const char* msg) {
  if (error) *error = msg;
  return false;
}

bool finish(ImplicitDesc& out, std::string* error) {
  if (out.n > kMaxVertices) {
    return fail(error, "graph too large: vertex count exceeds 32-bit ids");
  }
  if (out.m >= kMaxEdges) {
    return fail(error, "graph too large: edge count exceeds 32-bit edge ids");
  }
  return true;
}

// Degree contributions one grid axis of size s can produce.
void grid_axis_degrees(std::uint64_t s, std::uint32_t out[2], int& count) {
  if (s == 1) {
    out[0] = 0;
    count = 1;
  } else if (s == 2) {
    out[0] = 1;
    count = 1;
  } else {
    out[0] = 1;
    out[1] = 2;
    count = 2;
  }
}

bool is_pow2(std::uint32_t d) { return d > 0 && (d & (d - 1)) == 0; }

// Owner of edge id e: the unique u with fwd_offset(u) <= e < fwd_offset(u+1).
template <typename FwdOffset>
std::uint32_t find_owner(std::uint32_t n, std::uint32_t e, FwdOffset fwd) {
  std::uint32_t lo = 0;
  std::uint32_t hi = n - 1;
  while (lo < hi) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    if (fwd(mid + 1) > e) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

}  // namespace

bool make_implicit_desc(ImplicitKind kind, std::uint64_t a, std::uint64_t b,
                        ImplicitDesc& out, std::string* error) {
  out = ImplicitDesc{};
  out.kind = kind;
  switch (kind) {
    case ImplicitKind::star: {
      if (a < 2) return fail(error, "star requires leaves >= 2");
      if (a > kMaxVertices - 1) return fail(error, "star: too many leaves");
      out.n = static_cast<std::uint32_t>(a + 1);
      out.m = a;
      out.p = static_cast<std::uint32_t>(a);
      out.min_degree = 1;
      out.max_degree = out.p;
      out.degrees_all_pow2 = is_pow2(out.p);
      out.connected = true;
      out.bipartite = true;
      return finish(out, error);
    }
    case ImplicitKind::cycle: {
      if (a < 3) return fail(error, "cycle requires n >= 3");
      if (a > kMaxVertices) return fail(error, "cycle: n too large");
      out.n = static_cast<std::uint32_t>(a);
      out.m = a;
      out.p = out.n;
      out.min_degree = out.max_degree = 2;
      out.degrees_all_pow2 = true;
      out.connected = true;
      out.bipartite = (a % 2) == 0;
      return finish(out, error);
    }
    case ImplicitKind::complete: {
      if (a < 2) return fail(error, "complete requires n >= 2");
      if (a > kMaxVertices) return fail(error, "complete: n too large");
      out.n = static_cast<std::uint32_t>(a);
      out.m = a * (a - 1) / 2;
      out.p = out.n;
      out.min_degree = out.max_degree = out.n - 1;
      out.degrees_all_pow2 = is_pow2(out.n - 1);
      out.connected = true;
      out.bipartite = a == 2;
      return finish(out, error);
    }
    case ImplicitKind::grid: {
      if (a < 1 || b < 1 || a * b < 2) {
        return fail(error, "grid requires rows, cols >= 1 and rows*cols >= 2");
      }
      if (a > kMaxVertices || b > kMaxVertices || a * b > kMaxVertices) {
        return fail(error, "grid: too many vertices");
      }
      out.n = static_cast<std::uint32_t>(a * b);
      out.m = a * (b - 1) + b * (a - 1);
      out.p = static_cast<std::uint32_t>(a);
      out.q = static_cast<std::uint32_t>(b);
      std::uint32_t ra[2];
      std::uint32_t ca[2];
      int rn = 0;
      int cn = 0;
      grid_axis_degrees(a, ra, rn);
      grid_axis_degrees(b, ca, cn);
      out.min_degree = ra[0] + ca[0];
      out.max_degree = ra[rn - 1] + ca[cn - 1];
      out.degrees_all_pow2 = true;
      for (int i = 0; i < rn; ++i) {
        for (int j = 0; j < cn; ++j) {
          out.degrees_all_pow2 =
              out.degrees_all_pow2 && is_pow2(ra[i] + ca[j]);
        }
      }
      out.connected = true;
      out.bipartite = true;
      return finish(out, error);
    }
    case ImplicitKind::torus: {
      if (a < 3 || b < 3) return fail(error, "torus requires rows, cols >= 3");
      if (a > kMaxVertices || b > kMaxVertices || a * b > kMaxVertices) {
        return fail(error, "torus: too many vertices");
      }
      out.n = static_cast<std::uint32_t>(a * b);
      out.m = 2 * a * b;
      out.p = static_cast<std::uint32_t>(a);
      out.q = static_cast<std::uint32_t>(b);
      out.min_degree = out.max_degree = 4;
      out.degrees_all_pow2 = true;
      out.connected = true;
      out.bipartite = (a % 2 == 0) && (b % 2 == 0);
      return finish(out, error);
    }
    case ImplicitKind::circulant: {
      if (b < 1) return fail(error, "circulant requires k >= 1");
      if (a > kMaxVertices || b > kMaxVertices) {
        return fail(error, "circulant: n too large");
      }
      if (a < 2 * b + 2) return fail(error, "circulant requires n >= 2k + 2");
      out.n = static_cast<std::uint32_t>(a);
      out.m = a * b;
      out.p = out.n;
      out.q = static_cast<std::uint32_t>(b);
      out.min_degree = out.max_degree = static_cast<std::uint32_t>(2 * b);
      out.degrees_all_pow2 = is_pow2(out.max_degree);
      out.connected = true;
      // k >= 2 always closes a triangle (0,1,2); k == 1 is the cycle.
      out.bipartite = b == 1 && (a % 2) == 0;
      return finish(out, error);
    }
    case ImplicitKind::none: break;
  }
  return fail(error, "not an implicit family");
}

std::pair<std::uint32_t, std::uint32_t> implicit_edge_endpoints(
    const ImplicitDesc& d, std::uint32_t e) {
  using namespace implicit_detail;
  switch (d.kind) {
    case ImplicitKind::star:
      return {0u, e + 1};
    case ImplicitKind::cycle:
      if (e == 0) return {0u, 1u};
      if (e == 1) return {0u, d.p - 1};
      return {e - 1, e};
    case ImplicitKind::complete: {
      const std::uint32_t u = find_owner(
          d.n, e, [&](std::uint32_t x) { return complete_fwd_offset(d, x); });
      const auto rank = static_cast<std::uint32_t>(e - complete_fwd_offset(d, u));
      return {u, u + 1 + rank};
    }
    case ImplicitKind::grid: {
      const std::uint32_t u = find_owner(
          d.n, e, [&](std::uint32_t x) { return grid_fwd_offset(d, x); });
      const auto rank = static_cast<std::uint32_t>(e - grid_fwd_offset(d, u));
      const std::uint32_t c = u % d.q;
      if (rank == 0 && c + 1 < d.q) return {u, u + 1};
      return {u, u + d.q};
    }
    case ImplicitKind::torus: {
      const std::uint32_t u = find_owner(
          d.n, e, [&](std::uint32_t x) { return torus_fwd_offset(d, x); });
      std::uint32_t rank =
          static_cast<std::uint32_t>(e - torus_fwd_offset(d, u));
      const std::uint32_t r = u / d.q;
      const std::uint32_t c = u % d.q;
      // Forward candidates of u ascending: u+1 (c < C-1), u+C-1 (c == 0,
      // the row wrap), u+C (r < R-1), u+(R-1)C (r == 0, the column wrap;
      // u+C is always present then, since rows >= 3).
      if (c + 1 < d.q) {
        if (rank == 0) return {u, u + 1};
        --rank;
      }
      if (c == 0) {
        if (rank == 0) return {u, u + d.q - 1};
        --rank;
      }
      if (r + 1 < d.p) {
        if (rank == 0) return {u, u + d.q};
        --rank;
      }
      return {u, u + (d.p - 1) * d.q};  // column wrap, r == 0
    }
    case ImplicitKind::circulant: {
      const std::uint32_t u = find_owner(d.n, e, [&](std::uint32_t x) {
        return circulant_fwd_offset(d, x);
      });
      const auto rank =
          static_cast<std::uint32_t>(e - circulant_fwd_offset(d, u));
      return {u, circulant_fwd_neighbor(d, u, rank)};
    }
    case ImplicitKind::none: break;
  }
  return {0u, 0u};
}

bool implicit_has_edge(const ImplicitDesc& d, std::uint32_t u,
                       std::uint32_t v) {
  // Binary search the sorted (synthesized) neighbor list of u.
  std::uint32_t lo = 0;
  std::uint32_t hi = implicit_degree(d, u);
  while (lo < hi) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    const std::uint32_t w = implicit_neighbor(d, u, mid);
    if (w == v) return true;
    if (w < v) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return false;
}

}  // namespace rumor
