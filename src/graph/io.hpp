// Graphviz DOT export for small illustration graphs. Edge lists are read
// by graph/file_graph (the `file:` graph input).
#pragma once

#include <iosfwd>
#include <string>

#include "graph/graph.hpp"

namespace rumor {

// Graphviz DOT (undirected). Intended for small illustration graphs.
void export_dot(const Graph& g, std::ostream& out,
                const std::string& name = "G");

}  // namespace rumor
