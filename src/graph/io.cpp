#include "graph/io.hpp"

#include <ostream>

namespace rumor {

void export_dot(const Graph& g, std::ostream& out, const std::string& name) {
  out << "graph " << name << " {\n";
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.edge_endpoints(e);
    out << "  " << u << " -- " << v << ";\n";
  }
  out << "}\n";
}

}  // namespace rumor
