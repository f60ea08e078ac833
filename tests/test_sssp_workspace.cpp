// Tests for the shared SSSP traversal workspace (SsspWorkspace) and the
// batched query-server path built on it: answers through a workspace are
// identical to the plain per-call path, and — the PR's acceptance bar —
// a warm request batch over a 1M-edge RMAT graph performs zero workspace
// heap allocations (mirroring the est_cluster workspace guarantee pinned
// in test_cluster_connectivity.cpp).
#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "random/rng.hpp"
#include "sssp/approx_query.hpp"
#include "sssp/sssp_workspace.hpp"

namespace parsh {
namespace {

std::vector<ApproxShortestPaths::QueryPair> request_batch(vid n, int count,
                                                          std::uint64_t seed) {
  Rng rng(seed);
  std::vector<ApproxShortestPaths::QueryPair> pairs;
  pairs.reserve(static_cast<std::size_t>(count));
  for (int q = 0; q < count; ++q) {
    const vid s = static_cast<vid>(rng.uniform_int(2 * q, n));
    const vid t = static_cast<vid>(rng.uniform_int(2 * q + 1, n));
    if (s != t) pairs.push_back({s, t});
  }
  return pairs;
}

TEST(QueryBatch, MatchesPointQueriesAndPoolPath) {
  const Graph g = with_uniform_weights(
      ensure_connected(make_random_graph(600, 2400, 4)), 1, 9, 17);
  ApproxShortestPaths::Params p;
  p.hopset.hopset.seed = 5;
  const ApproxShortestPaths engine(g, p);
  const auto pairs = request_batch(g.num_vertices(), 24, 0xabcdULL);

  SsspWorkspace ws;
  const auto seq = engine.query_batch(pairs, ws);
  SsspWorkspacePool pool;
  const auto par = engine.query_batch(pairs, pool);
  ASSERT_EQ(seq.size(), pairs.size());
  ASSERT_EQ(par.size(), pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const auto plain = engine.query(pairs[i].first, pairs[i].second);
    EXPECT_EQ(seq[i].estimate, plain.estimate) << i;
    EXPECT_EQ(seq[i].rounds, plain.rounds) << i;
    EXPECT_EQ(seq[i].relaxations, plain.relaxations) << i;
    EXPECT_EQ(seq[i].scale_used, plain.scale_used) << i;
    EXPECT_EQ(par[i].estimate, plain.estimate) << i;
    EXPECT_EQ(par[i].rounds, plain.rounds) << i;
  }
}

TEST(QueryBatch, QueryAllThroughWorkspaceMatchesPlain) {
  const Graph g = with_uniform_weights(make_grid(14, 14), 1, 6, 3);
  const ApproxShortestPaths engine(g, {});
  SsspWorkspace ws;
  const auto plain = engine.query_all(7);
  const auto via_ws = engine.query_all(7, ws);
  EXPECT_EQ(plain.estimate, via_ws.estimate);
  EXPECT_EQ(plain.rounds, via_ws.rounds);
  EXPECT_EQ(plain.relaxations, via_ws.relaxations);
}

TEST(QueryBatch, WarmBatchDoesZeroWorkspaceAllocationsOn1MEdgeRmat) {
  // The workspace-reuse acceptance bar: preprocess a 1M-edge RMAT graph
  // once, serve a request batch twice through one workspace — the second
  // (warm) batch must run entirely inside the buffers the first batch
  // grew, so the workspace's allocation counter freezes. Pinned to one
  // worker like every identical-rerun Warm test: the hop-limited sweeps'
  // parallel rounds stage improvers in per-worker lists, whose high-water
  // marks are schedule-dependent at >1 workers (same caveat as the delta
  // and est_cluster Warm tests).
  const int threads_before = num_workers();
  set_num_workers(1);
  const Graph g = ensure_connected(make_rmat(120000, 1120000, 7));
  ASSERT_GE(g.num_edges(), 1000000u);
  ApproxShortestPaths::Params p;
  p.hopset.hopset.seed = 3;
  p.hopset.hopset.gamma2 = 0.3;  // shallow top-level clustering: fast build
  p.hopset.eta = 1.0;            // coarse scale ladder: few scales
  const ApproxShortestPaths engine(g, p);

  const auto pairs = request_batch(g.num_vertices(), 32, 0xf00dULL);
  SsspWorkspace ws;
  const auto cold = engine.query_batch(pairs, ws);
  const std::uint64_t after_cold = ws.alloc_events();
  EXPECT_GT(after_cold, 0u);
  const auto warm = engine.query_batch(pairs, ws);
  EXPECT_EQ(ws.alloc_events(), after_cold)
      << "warm query_batch allocated inside the workspace";
  ASSERT_EQ(cold.size(), warm.size());
  for (std::size_t i = 0; i < cold.size(); ++i) {
    EXPECT_EQ(cold[i].estimate, warm[i].estimate) << i;
    EXPECT_EQ(cold[i].rounds, warm[i].rounds) << i;
  }
  set_num_workers(threads_before);
}

}  // namespace
}  // namespace parsh
