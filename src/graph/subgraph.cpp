#include "graph/subgraph.hpp"

#include "graph/row_builder.hpp"

namespace parsh {

namespace {

/// The induced subgraph of every class at once. Class c's members are
/// order[start[c], start[c+1]) in local-id order; label[v] is v's class
/// (kNoVertex: none) and local[v] its local id. Each member's row is its
/// host row kept to its own class, so a class listed in increasing vertex
/// order gets sorted rows with no sort.
std::vector<Subgraph> build_induced(const Graph& g, const std::vector<vid>& label,
                                    const std::vector<vid>& local,
                                    const std::vector<vid>& order,
                                    const std::vector<std::size_t>& start) {
  std::vector<Graph> graphs = graphs_from_rows(start, false, [&](std::size_t r, auto&& emit) {
    const vid u = order[r];
    const vid c = label[u];
    g.for_arcs(u, 0, g.degree(u), [](vid) {}, [&](eid e, vid v) {
      if (v != u && label[v] == c) emit(local[v], g.weight(e));
    });
  });
  std::vector<Subgraph> out(graphs.size());
  for (std::size_t c = 0; c < graphs.size(); ++c) {
    out[c].graph = std::move(graphs[c]);
    out[c].original_id.assign(order.begin() + static_cast<std::ptrdiff_t>(start[c]),
                              order.begin() + static_cast<std::ptrdiff_t>(start[c + 1]));
  }
  return out;
}

}  // namespace

Subgraph induced_subgraph(const Graph& g, const std::vector<vid>& vertices) {
  std::vector<vid> label(g.num_vertices(), kNoVertex);
  std::vector<vid> local(g.num_vertices(), kNoVertex);
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    label[vertices[i]] = 0;
    local[vertices[i]] = static_cast<vid>(i);
  }
  return std::move(build_induced(g, label, local, vertices, {0, vertices.size()}).front());
}

std::vector<Subgraph> induced_subgraphs_by_label(const Graph& g,
                                                 const std::vector<vid>& label,
                                                 vid num_clusters) {
  const vid n = g.num_vertices();
  // Counting sort by label, stable in vertex order (so deterministic, and
  // every class's rows come out sorted): class c's members are
  // order[start[c], start[c+1]) and local[v] is v's rank among them.
  std::vector<std::size_t> start(static_cast<std::size_t>(num_clusters) + 1, 0);
  for (vid v = 0; v < n; ++v) {
    if (label[v] != kNoVertex) ++start[label[v] + 1];
  }
  for (vid c = 0; c < num_clusters; ++c) start[c + 1] += start[c];
  std::vector<vid> order(start[num_clusters]);
  std::vector<vid> local(n, kNoVertex);
  std::vector<std::size_t> next(start.begin(), start.end() - 1);
  for (vid v = 0; v < n; ++v) {
    const vid c = label[v];
    if (c == kNoVertex) continue;
    local[v] = static_cast<vid>(next[c] - start[c]);
    order[next[c]++] = v;
  }
  return build_induced(g, label, local, order, start);
}

QuotientGraph quotient_graph(const Graph& g, const std::vector<vid>& label,
                             vid num_components) {
  std::vector<Edge> edges;
  for (vid u = 0; u < g.num_vertices(); ++u) {
    for (eid e = g.begin(u); e < g.end(u); ++e) {
      const vid v = g.target(e);
      if (u >= v) continue;
      const vid cu = label[u], cv = label[v];
      if (cu == cv) continue;  // self loop in the quotient — drop
      edges.push_back({cu, cv, g.weight(e)});
    }
  }
  QuotientGraph out;
  out.graph = Graph::from_edges(num_components, std::move(edges));  // dedup keeps min w
  out.component = label;
  return out;
}

}  // namespace parsh
