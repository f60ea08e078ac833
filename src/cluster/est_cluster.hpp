// Exponential Start Time clustering (Algorithm 1; [MPX13]).
//
// Every vertex u draws delta_u ~ Exp(beta); vertex v joins the cluster of
//     argmin_u { dist(u, v) - delta_u }.
// Equivalently, with start times s_u = delta_max - delta_u >= 0, u "wakes
// up" at time s_u and grows a ball at unit speed; v belongs to the first
// ball to reach it. The output is a partition of V into clusters, each
// certified by a spanning tree rooted at its center (Lemma 2.1: tree
// radius <= k beta^-1 log n w.p. >= 1 - n^{1-k}).
//
// Two implementations:
//  * est_cluster — the parallel round-synchronous engine, built on the
//    shared bucketed frontier engine (parallel/bucket_engine.hpp). For
//    integer weights the key s_u + dist(u,v) of a vertex settled in round
//    t lies in [t, t+1) and every edge relaxation moves a key to a
//    strictly later round, so processing integer rounds with a per-round
//    min-reduction is an EXACT evaluation of the argmin (not the
//    fractional-tie-break approximation discussed in [MPX13] — integer
//    weights make it free). The min-reduction is a CRCW-style atomic
//    priority write resolved by (key, via) minimum, so the clustering is
//    identical at every thread count. Depth = O(delta_max + radius)
//    rounds; work O(m).
//  * est_cluster_reference — sequential super-source Dijkstra with real
//    keys. Same draws, same argmin; the test-suite oracle.
//
// Weights must be positive integers (the paper normalises to
// min_e w(e) = 1 and rounds; see Lemma 2.1's statement). Unweighted graphs
// trivially qualify.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "parallel/bucket_engine.hpp"
#include "parallel/round_scheduler.hpp"

namespace parsh {

/// A low-diameter decomposition: partition + per-cluster spanning tree.
struct Clustering {
  /// Dense cluster id per vertex, in [0, num_clusters).
  std::vector<vid> cluster_of;
  /// Center vertex of each cluster.
  std::vector<vid> center;
  /// Spanning-forest parent per vertex (kNoVertex at cluster centers).
  std::vector<vid> parent;
  /// Distance from the cluster center along the tree (equals the
  /// shifted-search distance; 0 at centers).
  std::vector<weight_t> dist_to_center;
  vid num_clusters = 0;
  /// Synchronous rounds the parallel engine executed (depth proxy).
  std::uint64_t rounds = 0;

  /// Member lists, ordered by cluster id then vertex id.
  [[nodiscard]] std::vector<std::vector<vid>> members() const;
  /// Size of each cluster.
  [[nodiscard]] std::vector<vid> sizes() const;
};

/// A claim on vertex `v` through neighbour `via` (kNoVertex = v starts its
/// own cluster) with key = s_center + dist(center, v) and tree distance dw.
/// The payload of the bucketed frontier engine inside est_cluster.
struct EstProposal {
  vid v;
  vid via;
  double key;
  weight_t dw;
};

class EstClusterWorkspace;

/// Parallel EST clustering. `seed` fixes the delta draws; results are
/// deterministic in (graph, beta, seed).
Clustering est_cluster(const Graph& g, double beta, std::uint64_t seed);

/// Same algorithm, same output, but every allocation that can outlive one
/// call lives in `ws`: the bucket engine (calendar slots, staging buffers,
/// overflow store) and the per-vertex priority arrays. Iterated drivers —
/// cluster_connectivity's quotient loop, AKPW's weight classes, the
/// spanner levels, the hopset recursion — pass one workspace across calls
/// so warm calls on graphs no larger than already seen do zero engine heap
/// allocations (for runs whose key spread fits the calendar span, as all
/// the drivers' do; overflow-store map nodes are per-run).
Clustering est_cluster(const Graph& g, double beta, std::uint64_t seed,
                       EstClusterWorkspace& ws);

/// Reusable scratch for est_cluster: one BucketEngine plus the per-vertex
/// priority arrays, grown monotonically and never shrunk. The round
/// policy and the per-round counters come from RoundScheduler. Not
/// thread-safe across concurrent est_cluster calls (one workspace per
/// call chain).
class EstClusterWorkspace : public RoundScheduler {
 public:
  EstClusterWorkspace();

  /// Heap-allocation events inside the bucket engine so far (cumulative).
  /// A warm call that reuses every buffer leaves this unchanged — the
  /// reuse guarantee the iterated drivers' tests pin down.
  [[nodiscard]] std::uint64_t engine_alloc_events() const {
    return engine_.alloc_events();
  }
  /// Times the per-vertex arrays had to grow (once per high-water n).
  [[nodiscard]] std::uint64_t array_grow_events() const { return grow_events_; }

 private:
  friend Clustering est_cluster(const Graph&, double, std::uint64_t,
                                EstClusterWorkspace&);

  /// Grow every per-vertex array to hold n vertices (no-op when already
  /// large enough; the atomic arrays are reconstructed, the plain ones
  /// resized in place).
  void ensure_(vid n);

  BucketEngine<EstProposal> engine_;
  // Per-vertex state (sized to the high-water n; only [0, n) touched).
  std::vector<double> start_;     // delta draws, then start times
  std::vector<double> key_;       // settled key per vertex
  std::vector<vid> parent_;       // settled tree parent
  std::vector<weight_t> hops_;    // settled tree distance
  std::vector<vid> center_of_;    // final center per vertex (densify input)
  std::vector<std::atomic<vid>> center_;      // claimed center (kNoVertex = open)
  std::vector<std::atomic<double>> best_key_;  // min-reduce scratch: min key
  std::vector<std::atomic<vid>> best_via_;     // min-reduce scratch: min via
  // Per-round scratch independent of n.
  std::vector<EstProposal> props_;            // the popped bucket
  std::vector<std::vector<vid>> newly_local_; // per-worker winner lists
  std::vector<vid> newly_;                    // concatenated winners
  std::vector<std::size_t> offset_;           // winner-concat scan
  WorkerCounter tally_;
  std::size_t vertex_capacity_ = 0;
  std::uint64_t grow_events_ = 0;
};

/// Sequential exact oracle (super-source Dijkstra over real-valued keys).
Clustering est_cluster_reference(const Graph& g, double beta, std::uint64_t seed);

/// The delta_u draws both implementations use (exposed for tests and for
/// the diagnostics in cluster_stats).
std::vector<double> est_shifts(vid n, double beta, std::uint64_t seed);

/// est_shifts into a caller-owned buffer (resized to n, capacity reused):
/// the allocation-free variant for iterated drivers like the distributed
/// spanner port that redraw shifts per run.
void est_shifts_into(std::vector<double>& out, vid n, double beta, std::uint64_t seed);

}  // namespace parsh
