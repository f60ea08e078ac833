// Umbrella header: the full public API of the parsh library — a
// reproduction of Miller, Peng, Vladu, Xu, "Improved Parallel Algorithms
// for Spanners and Hopsets" (SPAA 2015).
//
// Quick tour:
//   est_cluster            — Algorithm 1 (exponential start time clustering)
//   unweighted_spanner     — Algorithm 2 (O(k)-spanner, size n^{1+1/k})
//   weighted_spanner       — Theorem 3.3 (O(k)-spanner, size n^{1+1/k} log k)
//   build_hopset           — Algorithm 4 (unweighted/integer-weight hopsets)
//   build_weighted_hopset  — Section 5 (rounding + per-scale hopsets)
//   WeightDecomposition    — Appendix B (weight-ratio reduction)
//   build_limited_hopset   — Appendix C (depth n^alpha hopsets)
//   ApproxShortestPaths    — Theorem 1.2 ((1+eps) s-t query engine)
//   DynamicApproxShortestPaths — batched edge updates, epoch-swapped
//                            incremental re-serving over apply_delta
// plus the substrates: CSR graphs, generators, parallel primitives, BFS /
// weighted BFS / Dijkstra / hop-limited search.
#pragma once

#include "cluster/cluster_connectivity.hpp"
#include "cluster/cluster_stats.hpp"
#include "cluster/est_cluster.hpp"
#include "graph/connectivity.hpp"
#include "graph/delta.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "graph/pcsr.hpp"
#include "graph/storage.hpp"
#include "graph/subgraph.hpp"
#include "graph/validation.hpp"
#include "hopset/baseline_cohen.hpp"
#include "hopset/baseline_ks97.hpp"
#include "hopset/hopset.hpp"
#include "hopset/limited_hopset.hpp"
#include "hopset/rounding.hpp"
#include "hopset/verify.hpp"
#include "hopset/weight_reduction.hpp"
#include "hopset/weighted_hopset.hpp"
#include "parallel/atomics.hpp"
#include "parallel/bucket_engine.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/primitives.hpp"
#include "parallel/sort.hpp"
#include "parallel/work_depth.hpp"
#include "random/rng.hpp"
#include "spanner/baselines.hpp"
#include "spanner/distributed_spanner.hpp"
#include "spanner/low_stretch_tree.hpp"
#include "spanner/spanner.hpp"
#include "spanner/verify.hpp"
#include "sssp/approx_query.hpp"
#include "sssp/bfs.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/dynamic_approx.hpp"
#include "sssp/hop_limited.hpp"
#include "sssp/sssp_workspace.hpp"
#include "sssp/weighted_bfs.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "util/types.hpp"
