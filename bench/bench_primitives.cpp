// PRIM — google-benchmark microbenches for the substrate primitives the
// paper's work/depth accounting charges: scan, pack, sort, weighted BFS,
// EST clustering throughput.
#include <benchmark/benchmark.h>

#include "core/parsh.hpp"

namespace {

using namespace parsh;

void BM_ExclusiveScan(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint64_t> base(n, 3);
  for (auto _ : state) {
    auto v = base;
    benchmark::DoNotOptimize(exclusive_scan_inplace(v));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_ExclusiveScan)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_PackIndices(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(pack_indices(n, [](std::size_t i) { return i % 3 == 0; }));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_PackIndices)->Arg(1 << 12)->Arg(1 << 18);

void BM_ParallelSort(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  std::vector<std::uint64_t> base(n);
  for (std::size_t i = 0; i < n; ++i) base[i] = rng.bits(i);
  for (auto _ : state) {
    auto v = base;
    parallel_sort(v);
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_ParallelSort)->Arg(1 << 14)->Arg(1 << 18);

void BM_CsrBuild(benchmark::State& state) {
  const auto n = static_cast<vid>(state.range(0));
  const Graph g = make_random_graph(n, static_cast<eid>(n) * 8, 3);
  auto edges = g.undirected_edges();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Graph::from_edges(n, edges));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(edges.size()) * state.iterations());
}
BENCHMARK(BM_CsrBuild)->Arg(1 << 12)->Arg(1 << 15);

void BM_WeightedBfs(benchmark::State& state) {
  const auto n = static_cast<vid>(state.range(0));
  const Graph g = with_uniform_weights(
      ensure_connected(make_random_graph(n, static_cast<eid>(n) * 8, 3)), 1, 16, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(weighted_bfs(g, 0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(g.num_arcs()) * state.iterations());
}
BENCHMARK(BM_WeightedBfs)->Arg(1 << 12)->Arg(1 << 15);

void BM_Dijkstra(benchmark::State& state) {
  const auto n = static_cast<vid>(state.range(0));
  const Graph g = with_uniform_weights(
      ensure_connected(make_random_graph(n, static_cast<eid>(n) * 8, 3)), 1, 16, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dijkstra(g, 0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(g.num_arcs()) * state.iterations());
}
BENCHMARK(BM_Dijkstra)->Arg(1 << 12)->Arg(1 << 15);

void BM_EstCluster(benchmark::State& state) {
  const auto n = static_cast<vid>(state.range(0));
  const Graph g = ensure_connected(make_random_graph(n, static_cast<eid>(n) * 6, 3));
  for (auto _ : state) {
    benchmark::DoNotOptimize(est_cluster(g, 0.2, 5));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(g.num_arcs()) * state.iterations());
}
BENCHMARK(BM_EstCluster)->Arg(1 << 12)->Arg(1 << 15);

void BM_UnweightedSpanner(benchmark::State& state) {
  const auto n = static_cast<vid>(state.range(0));
  const Graph g = ensure_connected(make_random_graph(n, static_cast<eid>(n) * 6, 3));
  for (auto _ : state) {
    benchmark::DoNotOptimize(unweighted_spanner(g, 3.0, 5));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(g.num_arcs()) * state.iterations());
}
BENCHMARK(BM_UnweightedSpanner)->Arg(1 << 12)->Arg(1 << 15);

void BM_HopsetBuild(benchmark::State& state) {
  const auto n = static_cast<vid>(state.range(0));
  const Graph g = make_path_with_chords(n, n / 50, 3);
  HopsetParams p;
  p.gamma2 = 0.5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_hopset(g, p));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(g.num_arcs()) * state.iterations());
}
BENCHMARK(BM_HopsetBuild)->Arg(1 << 12)->Arg(1 << 14);

}  // namespace

BENCHMARK_MAIN();
