#include "sssp/weighted_bfs.hpp"

#include "graph/validation.hpp"
#include "sssp/st_sweep.hpp"

namespace parsh {

WeightedBfsResult weighted_bfs(const Graph& g, vid source, weight_t limit,
                               SsspWorkspace& ws) {
  require_integer_weights(g, "weighted_bfs");
  require_vertex(g, source, "weighted_bfs");
  WeightedBfsResult r;
  r.rounds = st_sweep(g, source, kNoVertex, limit, ws).keys;
  if (!g.has_flat_adjacency()) ws.counts().compressed += r.rounds;
  r.dist.assign(g.num_vertices(), kInfWeight);
  for (vid v : ws.touched()) r.dist[v] = ws.dist_of(v);
  return r;
}

WeightedBfsResult weighted_bfs(const Graph& g, vid source, weight_t limit) {
  SsspWorkspace ws;
  return weighted_bfs(g, source, limit, ws);
}

}  // namespace parsh
