// End-to-end (1+eps)-approximate shortest-path engine (Theorem 1.2).
//
// Preprocessing: Klein-Subramanian rounding per distance scale + the
// Algorithm 4 hopset on each rounded graph (build_weighted_hopset).
// Query: for each scale, dist^h(s, t) over the rounded graph-plus-hopset
// ([KS97]'s reduction: given an (eps, h, m')-hopset, a
// (1+eps)-approximate distance needs only h-hop paths). Every scale graph
// has integer weights >= 1, so a label-setting Dial sweep (st_sweep.hpp)
// finds dist(t) with the fewest hops over its lightest paths and stops
// once t settles; when that hop count is within the scale's budget it is
// dist^h(t), and otherwise the scale reruns the hop-limited
// round-synchronous sweep (hop_limited.hpp). The answer is bit-identical
// either way. The smallest consistent scale answers; every scale's answer
// is a valid upper bound, so the engine returns the minimum seen.
//
// Works for unweighted graphs too (they are the single-scale special
// case).
//
// Serving: every per-scale sweep runs on an SsspWorkspace, so a
// long-lived server thread reuses one workspace across requests and warm
// queries perform zero traversal-engine heap allocations. query_batch is
// the request-batch form: sequential over one workspace, or parallel
// across a workspace pool (one workspace per pool worker).
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "hopset/weighted_hopset.hpp"
#include "sssp/sssp_workspace.hpp"
#include "util/deadline.hpp"

namespace parsh {

class ApproxShortestPaths {
 public:
  struct Params {
    double epsilon = 0.25;  ///< end-to-end approximation target
    WeightedHopsetParams hopset;  ///< scale/rounding/hopset knobs
    /// Safety factor on the Lemma 4.2 hop budget (Markov slack).
    double hop_slack = 2.0;
    /// Hard cap on per-scale query rounds.
    std::uint64_t max_hops = 1u << 14;
  };

  /// Preprocess g (positive weights; integer not required — rounding
  /// handles it). Deterministic in (g, params). Both constructors throw
  /// InvalidGraphError if a scale graph carries a weight that is not an
  /// integer >= 1 (the query sweep's precondition).
  ApproxShortestPaths(const Graph& g, Params params);

  /// Wrap a hopset the caller already built (the incremental-rebuild path
  /// of DynamicApproxShortestPaths). `params` must be the exact,
  /// already-normalized parameter set that built `hopset` — unlike the
  /// graph ctor, no zeta defaulting is applied, so an engine assembled
  /// this way is bit-identical to one built from the graph with the same
  /// normalized params.
  ApproxShortestPaths(vid n, WeightedHopset hopset, Params params);

  struct QueryResult {
    weight_t estimate = kInfWeight;  ///< (1+eps)-approximate distance
    /// Hop depth: per scale run, t's hop label (the fewest hops over its
    /// lightest paths, or the deepest settled label when t was not
    /// reached), plus the hop-limited rounds of a fallback rerun.
    std::uint64_t rounds = 0;
    std::uint64_t relaxations = 0;   ///< arcs scanned (work proxy)
    std::size_t scale_used = 0;      ///< index of the answering scale
    /// Scales answered by the hop-limited rerun because every lightest
    /// s-t path exceeded the scale's hop budget.
    std::uint64_t fallbacks = 0;
    /// The deadline expired before every scheduled scale finished. The
    /// estimate folds in the cut scale's current label for t: the weight
    /// of a real path over rounded-up weights, so never below the exact
    /// distance, but neither the (1+eps) stretch target nor equality with
    /// the uncut query's estimate is guaranteed. Unless that scale needed
    /// the hop-limited rerun, the cut estimate is also never below the
    /// uncut one (the cut only stopped a sweep early).
    bool deadline_exceeded = false;
    /// Served from a degraded tier (skip_scales > 0 actually skipped
    /// scales); see QueryOptions for the tier's stretch contract.
    bool degraded = false;
  };

  /// Per-query serving knobs. Defaults reproduce the plain query exactly.
  struct QueryOptions {
    /// Cooperative cancellation budget, polled between scales and, inside
    /// each scale, every 256 settled vertices (between rounds in a
    /// fallback rerun). On expiry the query unwinds with a
    /// partial, deadline_exceeded-flagged answer instead of blocking.
    Deadline deadline = Deadline::never();
    /// Graceful degradation tier: skip the `skip_scales` finest distance
    /// scales (clamped so at least one scale is always served). Skipped
    /// fine scales are where short-range accuracy and most out-of-scale
    /// round cost live, so tier t trades precision on short distances for
    /// a cheaper query. Stretch contract of tier t (see degraded_slack()):
    /// a query whose matching scale is still served keeps the (1+eps)
    /// target; one whose distance D falls below the finest served scale's
    /// band is answered by that scale with
    ///   estimate <= (1+eps) * D + degraded_slack() * d_first
    /// where d_first is the finest served scale's lower bound.
    std::size_t skip_scales = 0;
  };

  /// Approximate dist(s, t).
  [[nodiscard]] QueryResult query(vid s, vid t) const;
  /// Workspace form: all traversal state lives in `ws`; warm calls
  /// allocate nothing. Results are identical to the plain form.
  [[nodiscard]] QueryResult query(vid s, vid t, SsspWorkspace& ws) const;
  /// Serving form: deadline-checked, degradable. With default options
  /// this is exactly the workspace form.
  [[nodiscard]] QueryResult query(vid s, vid t, SsspWorkspace& ws,
                                  const QueryOptions& opts) const;

  /// An s-t request batch, answered in order. The workspace overload runs
  /// the batch sequentially through one workspace (the deterministic-reuse
  /// path a single server thread uses); the pool overload fans the batch
  /// out across workers, one workspace each.
  using QueryPair = std::pair<vid, vid>;
  [[nodiscard]] std::vector<QueryResult> query_batch(
      const std::vector<QueryPair>& pairs) const;
  [[nodiscard]] std::vector<QueryResult> query_batch(
      const std::vector<QueryPair>& pairs, SsspWorkspace& ws) const;
  [[nodiscard]] std::vector<QueryResult> query_batch(
      const std::vector<QueryPair>& pairs, SsspWorkspacePool& pool) const;
  /// Serving form: the batch shares one budget. The deadline is also
  /// checked between requests — once it expires, the remaining requests
  /// return immediately as deadline_exceeded partials (estimate infinite)
  /// rather than blocking the worker on work nobody will wait for.
  [[nodiscard]] std::vector<QueryResult> query_batch(
      const std::vector<QueryPair>& pairs, SsspWorkspace& ws,
      const QueryOptions& opts) const;

  /// Batch form: approximate distances from s to every vertex (one
  /// hop-budgeted sweep per scale; unreachable stays kInfWeight). This is
  /// the "single-source" reading of Theorem 1.2 — the same per-scale hop
  /// budget as one query, answers for all targets. Its sweeps carry no
  /// target bound, so they cost more than a point query's.
  struct AllResult {
    std::vector<weight_t> estimate;
    std::uint64_t rounds = 0;
    std::uint64_t relaxations = 0;
  };
  [[nodiscard]] AllResult query_all(vid s) const;
  [[nodiscard]] AllResult query_all(vid s, SsspWorkspace& ws) const;

  [[nodiscard]] const WeightedHopset& hopset() const { return hopset_; }
  [[nodiscard]] std::uint64_t preprocessing_rounds() const { return hopset_.rounds; }

  /// Number of distance scales a query can be degraded across (the max
  /// meaningful QueryOptions::skip_scales is num_scales() - 1).
  [[nodiscard]] std::size_t num_scales() const { return hopset_.scales.size(); }

  /// The additive-slack coefficient of the degraded-tier stretch bound:
  /// answering a query of true distance D from a scale with lower bound d
  /// (instead of its finer matching scale) costs at most
  ///   estimate <= (1+eps) * D + degraded_slack() * d.
  /// Derivation: the scale's rounding granularity is w_hat = zeta * d / k
  /// (Lemma 5.2), the query walks paths of at most hop_slack * k + 2 hops,
  /// and each hop rounds up by < w_hat — so the additive term is bounded
  /// by (hop_slack * k + 2) * w_hat * (1 + eps) ~= zeta * hop_slack *
  /// (1 + eps) * d; the extra (1+eps) factor absorbs the hopset's own
  /// multiplicative stretch on the rounded graph.
  [[nodiscard]] double degraded_slack() const {
    return params_.hopset.zeta * params_.hop_slack * (1.0 + params_.epsilon) +
           2.0 * params_.hopset.zeta / std::max(1.0, hopset_.k_hops);
  }

 private:
  /// Check the scale graphs' integer weights and set the hop budgets.
  void init_scales_();

  Params params_;
  vid n_ = 0;
  WeightedHopset hopset_;
  std::vector<std::uint64_t> hop_budget_;  ///< per scale
};

}  // namespace parsh
