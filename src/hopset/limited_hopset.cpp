#include "hopset/limited_hopset.hpp"

#include <algorithm>
#include <cmath>

#include "hopset/hopset.hpp"
#include "hopset/rounding.hpp"
#include "parallel/sort.hpp"

namespace parsh {

LimitedHopsetResult build_limited_hopset(const Graph& g, const LimitedHopsetParams& p) {
  LimitedHopsetResult out;
  const vid n = g.num_vertices();
  if (n == 0 || g.num_edges() == 0) return out;

  const double eta = p.alpha / 2.0;
  const double nd = static_cast<double>(std::max<vid>(n, 2));
  const double k_hops = std::max(4.0, std::pow(nd, 2.0 * eta));  // n^{2 eta}
  const double scale_ratio = std::max(2.0, std::pow(nd, eta));   // c = n^eta
  const int iterations = std::min<int>(p.max_iterations,
                                       static_cast<int>(std::ceil(1.0 / eta)));

  Graph work = g;  // G plus the hopset edges added so far
  for (int iter = 0; iter < iterations; ++iter) {
    std::vector<Edge> added_this_iter;
    const weight_t lo = work.min_weight();
    const weight_t hi = static_cast<weight_t>(n) * work.max_weight();
    std::uint64_t scale_idx = 0;
    for (weight_t d = lo; d / scale_ratio <= hi; d *= scale_ratio, ++scale_idx) {
      // Only paths of weight in [d, c*d] matter at this scale.
      const Graph pruned = work.prune_heavier_than(d * scale_ratio);
      if (pruned.num_edges() == 0) continue;
      RoundedGraph rg = round_weights(pruned, d, k_hops, p.epsilon);
      // Rounded path weights are <= ~c*k/zeta =: d_rounded.
      const double d_rounded = rounded_weight_bound(scale_ratio, k_hops, p.epsilon);
      HopsetParams hp;
      hp.epsilon = p.epsilon / std::log(nd);  // eps' = eps / log n (Lemma C.1)
      hp.delta = 2.0 / eta;
      hp.beta0_override = 1.0 / d_rounded;
      hp.n_final_override =
          std::max<vid>(8, static_cast<vid>(std::pow(nd, eta / 2.0)));
      hp.seed = p.seed ^ (0x9e3779b9ULL * (iter * 131 + scale_idx + 1));
      HopsetResult hr = build_hopset(rg.graph, hp);
      out.rounds += hr.rounds;
      for (const Edge& e : hr.edges) {
        // Convert rounded weight back to a true-weight upper bound.
        added_this_iter.push_back({e.u, e.v, e.w * rg.w_hat});
      }
    }
    ++out.iterations;
    if (added_this_iter.empty()) break;
    out.edges.insert(out.edges.end(), added_this_iter.begin(), added_this_iter.end());
    work = work.with_extra_edges(added_this_iter);
  }
  // Scales and iterations rediscover the same pairs many times over. Keep
  // one edge per unordered pair at its minimum weight, sorted by (u, v)
  // with u < v: with_extra_edges keeps the minimum of parallel edges
  // anyway, so the augmented graph is unchanged.
  for (Edge& e : out.edges) {
    if (e.v < e.u) std::swap(e.u, e.v);
  }
  parallel_sort(out.edges, [](const Edge& a, const Edge& b) {
    if (a.u != b.u) return a.u < b.u;
    if (a.v != b.v) return a.v < b.v;
    return a.w < b.w;
  });
  out.edges.erase(std::unique(out.edges.begin(), out.edges.end(),
                              [](const Edge& a, const Edge& b) {
                                return a.u == b.u && a.v == b.v;
                              }),
                  out.edges.end());
  return out;
}

}  // namespace parsh
