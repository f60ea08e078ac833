#include "sssp/hop_limited.hpp"

#include <algorithm>
#include <atomic>
#include <functional>

#include "graph/validation.hpp"
#include "parallel/bucket_engine.hpp"
#include "parallel/team.hpp"
#include "parallel/work_depth.hpp"

namespace parsh {

namespace {

/// The workspace pieces one Bellman-Ford round needs (built inside the
/// friend run helper below; the round itself is not a friend).
struct BellmanFordRefs {
  std::vector<std::atomic<weight_t>>& dist;
  std::vector<vid>& touched;
  std::vector<vid>& frontier;
  std::vector<vid>& improved;
  std::vector<weight_t>& frontier_dist;          // round-start snapshot
  std::vector<std::vector<vid>>& newly_local;    // per-worker improvers
  std::vector<std::vector<vid>>& touched_local;  // per-worker first touches
  std::vector<std::size_t>& offset;              // concat scan scratch
  FrontierRelaxer& relaxer;                      // holds the round policy
  RoundCounts& counts;
  std::atomic<std::uint64_t>& allocs;
};

/// One frontier-driven Bellman-Ford round: relax the out-edges of
/// `frontier` into `dist`, leaving the improved vertices (deduped,
/// sorted) as the next frontier. Rounds are barrier-separated: every
/// relaxation reads the frontier distances as they stood at the START of
/// the round (snapshot below), so after round h every vertex holds the
/// exact minimum-weight <=h-hop distance — independent of schedule and
/// thread count. Edge work is one relaxer round: stolen ranges across the
/// persistent team, or — at most one range — the same body on the driver
/// alone. First touches are recorded so the workspace can restore its
/// dist-infinity invariant lazily.
///
/// With a `target` (kNoVertex: none), proposals at or above its
/// round-start distance are dropped and vertices at or above its
/// post-barrier distance leave the next frontier. Weights are positive
/// and floating-point addition is monotone, so every prefix of a path
/// weighs at most the path: neither cut removes a path that beats
/// dist(target). Both cuts read barrier-fixed values, so the smaller
/// frontiers (and counters) stay schedule-independent.
template <typename TeamLike>
void relax_round(const Graph& g, BellmanFordRefs& r, TeamLike& team,
                 std::uint64_t* relaxations, weight_t dist_limit, vid target) {
  auto dist_of = [&](vid v) { return r.dist[v].load(std::memory_order_relaxed); };
  const weight_t bound = target == kNoVertex ? kInfWeight : dist_of(target);
  // Snapshot the frontier's round-start distances: relaxations below may
  // lower dist[u] for a frontier member u mid-round (a short cross edge),
  // and the barrier-separated contract requires every proposal this round
  // to be based on the round-start value.
  if (r.frontier.size() > r.frontier_dist.capacity()) {
    r.allocs.fetch_add(1, std::memory_order_relaxed);
  }
  r.frontier_dist.resize(r.frontier.size());
  team.loop(0, r.frontier.size(), 512, [&](std::size_t i) {
    r.frontier_dist[i] = dist_of(r.frontier[i]);
  });
  // CRCW min via a CAS loop. The vertices appended are exactly those
  // whose round-start distance some proposal beat (any successful CAS
  // implies a strict improvement over the round-start value), so the
  // deduped set is schedule-independent; the one CAS that observed
  // infinity records the first touch.
  const auto plan = r.relaxer.relax(
      team, r.frontier.size(),
      [&](std::size_t i) { return static_cast<std::size_t>(g.degree(r.frontier[i])); },
      [&](std::size_t i, std::size_t lo, std::size_t hi) {
        const vid u = r.frontier[i];
        const weight_t du = r.frontier_dist[i];
        g.for_arcs(u, lo, hi, [](vid) {}, [&](eid e, vid v) {
          const weight_t nd = du + g.weight(e);
          if (nd > dist_limit || nd >= bound) return;
          weight_t cur = r.dist[v].load(std::memory_order_relaxed);
          while (nd < cur) {
            if (r.dist[v].compare_exchange_weak(cur, nd,
                                                std::memory_order_relaxed)) {
              const auto w = static_cast<std::size_t>(worker_id());
              if (cur == kInfWeight) {
                detail::push_counted(r.touched_local[w], v, r.allocs);
              }
              detail::push_counted(r.newly_local[w], v, r.allocs);
              break;
            }
          }
        });
      });
  r.counts.add_round(plan.on_driver);
  if (!g.has_flat_adjacency()) ++r.counts.compressed;
  *relaxations += plan.edges;
  wd::add_work(plan.edges);
  wd::add_round();
  // Concatenate the per-worker improver lists, and fold the first-touch
  // lists into the workspace's touched set.
  const std::size_t capacity = r.improved.capacity();
  concat_worker_lists(team, r.newly_local, r.offset, r.improved);
  if (r.improved.capacity() != capacity) r.allocs.fetch_add(1, std::memory_order_relaxed);
  for (std::vector<vid>& local : r.touched_local) {
    for (vid v : local) detail::push_counted(r.touched, v, r.allocs);
    local.clear();
  }
  // Dedup (a vertex may be improved via several frontier members; the
  // sort also makes the next frontier's order deterministic).
  std::sort(r.improved.begin(), r.improved.end());
  r.improved.erase(std::unique(r.improved.begin(), r.improved.end()),
                   r.improved.end());
  if (target != kNoVertex) {
    const weight_t dt = dist_of(target);
    r.improved.erase(std::remove_if(r.improved.begin(), r.improved.end(),
                                    [&](vid v) { return dist_of(v) >= dt; }),
                     r.improved.end());
  }
  std::swap(r.frontier, r.improved);
}

}  // namespace

namespace detail {

std::uint64_t bellman_ford(const Graph& g, vid source, SsspWorkspace& ws,
                           std::uint64_t& relaxations, weight_t dist_limit, vid target,
                           const std::function<bool(std::uint64_t)>& more) {
  ws.begin_run_(g.num_vertices());
  BellmanFordRefs r{ws.dist_,          ws.touched_,       ws.frontier_,
                    ws.improved_,      ws.frontier_dist_, ws.newly_local_,
                    ws.touched_local_, ws.offset_,        ws.relaxer(),
                    ws.counts(),       ws.scratch_allocs_};
  r.dist[source].store(0, std::memory_order_relaxed);
  push_counted(r.touched, source, r.allocs);
  r.frontier.clear();
  push_counted(r.frontier, source, r.allocs);
  std::uint64_t rounds = 0;
  Team::drive([&](Team& team) {
    while (!r.frontier.empty() && more(rounds)) {
      relax_round(g, r, team, &relaxations, dist_limit, target);
      ++rounds;
    }
  });
  r.frontier.clear();
  // Each round swaps the frontier/improved buffers; restore the original
  // pairing after odd round counts so identical warm reruns (and the
  // other drivers sharing these scratch vectors) see the same per-buffer
  // capacities every time — the warm-reuse guarantee is byte-identical
  // behavior, not just amortized growth.
  if (rounds % 2 != 0) std::swap(r.frontier, r.improved);
  return rounds;
}

}  // namespace detail

HopLimitedStats hop_limited_sssp(const Graph& g, vid source, std::uint64_t h,
                                 weight_t dist_limit, SsspWorkspace& ws,
                                 const Deadline& deadline, vid target) {
  require_vertex(g, source, "hop_limited_sssp");
  if (target != kNoVertex) require_vertex(g, target, "hop_limited_sssp");
  HopLimitedStats stats;
  // The deadline is polled on the driver thread between rounds only — a
  // round is the unit of cancellation, so a partial run is always "the
  // first k rounds in full" and the settled distances are exact dist^k.
  const bool check_deadline = !deadline.never_expires();
  stats.rounds = detail::bellman_ford(
      g, source, ws, stats.relaxations, dist_limit, target, [&](std::uint64_t done) {
        if (done >= h) return false;
        stats.deadline_hit = check_deadline && deadline.expired();
        return !stats.deadline_hit;
      });
  return stats;
}

HopLimitedResult hop_limited_sssp(const Graph& g, vid source, std::uint64_t h,
                                  weight_t dist_limit) {
  SsspWorkspace ws;
  const HopLimitedStats stats = hop_limited_sssp(g, source, h, dist_limit, ws);
  HopLimitedResult r;
  r.rounds = stats.rounds;
  r.relaxations = stats.relaxations;
  r.dist.assign(g.num_vertices(), kInfWeight);
  for (vid v : ws.touched()) r.dist[v] = ws.dist_of(v);
  return r;
}

std::uint64_t hops_to_approx(const Graph& g, vid s, vid t, weight_t true_dist,
                             double eps, std::uint64_t h_cap) {
  require_vertex(g, s, "hops_to_approx");
  require_vertex(g, t, "hops_to_approx");
  if (s == t) return 0;
  SsspWorkspace ws;
  const weight_t goal = (1.0 + eps) * true_dist;
  std::uint64_t relaxations = 0;
  // Stop after the first round that brings dist(t) within the goal; a run
  // that ends short of it (h_cap rounds, or dist(t) final) reports h_cap.
  const std::uint64_t rounds = detail::bellman_ford(
      g, s, ws, relaxations, kInfWeight, t, [&](std::uint64_t done) {
        return done < h_cap && (done == 0 || ws.dist_of(t) > goal);
      });
  return rounds > 0 && ws.dist_of(t) <= goal ? rounds : h_cap;
}

}  // namespace parsh
