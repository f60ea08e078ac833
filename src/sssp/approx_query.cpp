#include "sssp/approx_query.hpp"

#include <algorithm>
#include <cmath>

#include "graph/validation.hpp"
#include "hopset/hopset.hpp"
#include "parallel/parallel_for.hpp"
#include "sssp/hop_limited.hpp"
#include "sssp/st_sweep.hpp"

namespace parsh {

ApproxShortestPaths::ApproxShortestPaths(const Graph& g, Params params)
    : params_(params), n_(g.num_vertices()) {
  // The engine's epsilon splits between rounding distortion and hopset
  // distortion; default the sub-knobs off the top-level target unless the
  // caller overrode them.
  if (params_.hopset.zeta <= 0) params_.hopset.zeta = params_.epsilon / 2.0;
  hopset_ = build_weighted_hopset(g, params_.hopset);
  init_scales_();
}

ApproxShortestPaths::ApproxShortestPaths(vid n, WeightedHopset hopset, Params params)
    : params_(params), n_(n), hopset_(std::move(hopset)) {
  init_scales_();
}

void ApproxShortestPaths::init_scales_() {
  // query()'s st_sweep keys its queue by distance, so every scale graph
  // must carry integer weights >= 1. Rounding and the hopset's path sums
  // guarantee that; checking once here keeps the per-query path free of it.
  for (const HopsetScale& sc : hopset_.scales) {
    require_integer_weights(sc.rounded, "ApproxShortestPaths scale graph");
  }
  // Per-scale hop budget: the k the rounding was charged with (a path
  // using more hops than that would exceed the rounding's distortion
  // allowance anyway), capped by max_hops. The Lemma 4.2 bound is the
  // asymptotic version of the same quantity.
  hop_budget_.resize(hopset_.scales.size());
  for (std::size_t i = 0; i < hopset_.scales.size(); ++i) {
    hop_budget_[i] = std::min<std::uint64_t>(
        params_.max_hops,
        static_cast<std::uint64_t>(std::ceil(hopset_.k_hops * params_.hop_slack)) + 2);
  }
}

ApproxShortestPaths::QueryResult ApproxShortestPaths::query(
    vid s, vid t, SsspWorkspace& ws, const QueryOptions& opts) const {
  QueryResult out;
  if (s == t) {
    out.estimate = 0;
    return out;
  }
  // Degraded tier: start at the requested scale, never past the last one
  // (some scale must answer). Skipping fine scales drops both their
  // short-range precision and their per-query round cost.
  const std::size_t first =
      hopset_.scales.empty()
          ? 0
          : std::min(opts.skip_scales, hopset_.scales.size() - 1);
  out.degraded = first > 0;
  const bool check_deadline = !opts.deadline.never_expires();
  const double ratio =
      std::pow(static_cast<double>(std::max<vid>(n_, 2)), params_.hopset.eta);
  for (std::size_t i = first; i < hopset_.scales.size(); ++i) {
    if (check_deadline && opts.deadline.expired()) {
      out.deadline_exceeded = true;
      break;
    }
    const HopsetScale& sc = hopset_.scales[i];
    // Only distances up to the scale's cap are this scale's business;
    // pruning there makes out-of-scale searches die after a few keys.
    const weight_t dist_limit =
        sc.d * ratio * (1.0 + params_.epsilon) / sc.w_hat + 1.0;
    // The label-setting sweep finds dist(t) and the fewest hops over the
    // lightest s-t paths; within the budget that is exactly dist^h(t).
    const StSweepStats r = st_sweep(sc.rounded, s, t, dist_limit, ws, opts.deadline);
    out.rounds += r.hops;
    out.relaxations += r.relaxations;
    bool cut = r.deadline_hit;
    if (!cut && ws.dist_of(t) != kInfWeight && r.hops > hop_budget_[i]) {
      // Every lightest path is over budget, so dist^h(t) may be heavier:
      // compute it with the hop-limited sweep.
      ++out.fallbacks;
      const HopLimitedStats b = hop_limited_sssp(sc.rounded, s, hop_budget_[i],
                                                 dist_limit, ws, opts.deadline, t);
      out.rounds += b.rounds;
      out.relaxations += b.relaxations;
      cut = b.deadline_hit;
    }
    // A deadline-cut sweep's label for t is still a real path's weight,
    // so fold this scale's (partial) answer in before unwinding.
    const weight_t dt = ws.dist_of(t);
    if (dt != kInfWeight) {
      const weight_t est = dt * sc.w_hat;
      if (est < out.estimate) {
        out.estimate = est;
        out.scale_used = i;
      }
      // The scale whose range contains the estimate is (1+eps)-accurate;
      // larger scales only get coarser. Stop once consistent.
      if (!cut && est <= sc.d * ratio * (1.0 + params_.epsilon)) break;
    }
    if (cut) {
      out.deadline_exceeded = true;
      break;
    }
  }
  return out;
}

ApproxShortestPaths::QueryResult ApproxShortestPaths::query(vid s, vid t,
                                                            SsspWorkspace& ws) const {
  return query(s, t, ws, QueryOptions{});
}

ApproxShortestPaths::QueryResult ApproxShortestPaths::query(vid s, vid t) const {
  SsspWorkspace ws;
  return query(s, t, ws);
}

std::vector<ApproxShortestPaths::QueryResult> ApproxShortestPaths::query_batch(
    const std::vector<QueryPair>& pairs, SsspWorkspace& ws) const {
  std::vector<QueryResult> out(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    out[i] = query(pairs[i].first, pairs[i].second, ws);
  }
  return out;
}

std::vector<ApproxShortestPaths::QueryResult> ApproxShortestPaths::query_batch(
    const std::vector<QueryPair>& pairs, SsspWorkspace& ws,
    const QueryOptions& opts) const {
  std::vector<QueryResult> out(pairs.size());
  const bool check_deadline = !opts.deadline.never_expires();
  bool expired = false;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    // Once the shared budget runs out, answer the rest of the batch
    // immediately: infinite partials, flagged, no traversal work.
    if (!expired && check_deadline && opts.deadline.expired()) expired = true;
    if (expired) {
      out[i].deadline_exceeded = true;
      out[i].degraded = opts.skip_scales > 0 && num_scales() > 1;
      continue;
    }
    out[i] = query(pairs[i].first, pairs[i].second, ws, opts);
  }
  return out;
}

std::vector<ApproxShortestPaths::QueryResult> ApproxShortestPaths::query_batch(
    const std::vector<QueryPair>& pairs, SsspWorkspacePool& pool) const {
  pool.prepare();
  std::vector<QueryResult> out(pairs.size());
  // One request per iteration: each worker serves its share of the batch
  // through its own workspace, so requests never contend and every answer
  // is the same as the sequential path's.
  parallel_for_grain(0, pairs.size(), 1, [&](std::size_t i) {
    out[i] = query(pairs[i].first, pairs[i].second, pool.local());
  });
  return out;
}

std::vector<ApproxShortestPaths::QueryResult> ApproxShortestPaths::query_batch(
    const std::vector<QueryPair>& pairs) const {
  SsspWorkspacePool pool;
  return query_batch(pairs, pool);
}

ApproxShortestPaths::AllResult ApproxShortestPaths::query_all(vid s,
                                                              SsspWorkspace& ws) const {
  AllResult out;
  out.estimate.assign(n_, kInfWeight);
  if (n_ == 0) return out;
  out.estimate[s] = 0;
  const double ratio =
      std::pow(static_cast<double>(std::max<vid>(n_, 2)), params_.hopset.eta);
  for (std::size_t i = 0; i < hopset_.scales.size(); ++i) {
    const HopsetScale& sc = hopset_.scales[i];
    const weight_t dist_limit =
        sc.d * ratio * (1.0 + params_.epsilon) / sc.w_hat + 1.0;
    const HopLimitedStats r =
        hop_limited_sssp(sc.rounded, s, hop_budget_[i], dist_limit, ws);
    out.rounds += r.rounds;
    out.relaxations += r.relaxations;
    // Fold this scale in sparsely: only the vertices the sweep reached
    // can improve (the workspace's touched list), so a distance-capped
    // scale costs O(reached), not O(n).
    for (vid v : ws.touched()) {
      const weight_t est = ws.dist_of(v) * sc.w_hat;
      if (est < out.estimate[v]) out.estimate[v] = est;
    }
  }
  out.estimate[s] = 0;
  return out;
}

ApproxShortestPaths::AllResult ApproxShortestPaths::query_all(vid s) const {
  SsspWorkspace ws;
  return query_all(s, ws);
}

}  // namespace parsh
