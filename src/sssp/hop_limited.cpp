#include "sssp/hop_limited.hpp"

#include <algorithm>
#include <atomic>

#include "graph/validation.hpp"
#include "parallel/bucket_engine.hpp"
#include "parallel/team.hpp"
#include "parallel/work_depth.hpp"

namespace parsh {

namespace {

/// The workspace pieces one Bellman-Ford round needs (built inside the
/// friend entry points; this helper itself is not a friend).
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
/// thread count. (The pre-team code chained in-round improvements on one
/// thread; that order-dependent shortcut is exactly what cannot
/// parallelize deterministically, so the chained semantics became this
/// barrier-separated stage.) Edge work is one adaptive relaxer round:
/// stolen ranges across the persistent team, or — below the threshold —
/// one worker with plain writes. First touches are recorded so the
/// workspace can restore its dist-infinity invariant lazily.
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
  r.improved.clear();
  const auto plan = r.relaxer.relax(
      team, r.frontier.size(),
      [&](std::size_t i) { return static_cast<std::size_t>(g.degree(r.frontier[i])); },
      // Sequential round: one worker, plain relaxed loads/stores, direct
      // appends. A vertex may be improved several times (several frontier
      // members reach it); each strict improvement appends once and the
      // dedup below collapses them, matching the parallel path's set.
      [&](std::size_t i, std::size_t lo, std::size_t hi) {
        const vid u = r.frontier[i];
        const weight_t du = r.frontier_dist[i];
        g.for_arcs(u, lo, hi, [](vid) {}, [&](eid e, vid v) {
          const weight_t nd = du + g.weight(e);
          if (nd > dist_limit || nd >= bound) return;
          const weight_t dv = dist_of(v);
          if (nd >= dv) return;
          r.dist[v].store(nd, std::memory_order_relaxed);
          if (dv == kInfWeight) detail::push_counted(r.touched, v, r.allocs);
          detail::push_counted(r.improved, v, r.allocs);
        });
      },
      // Parallel round: CRCW min via a CAS loop. The vertices appended
      // are exactly those whose round-start distance some proposal beat
      // (any successful CAS implies a strict improvement over the
      // round-start value), so the deduped set is schedule-independent;
      // the one CAS that observed infinity records the first touch.
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
  r.counts.add_round(plan.sequential);
  if (!g.has_flat_adjacency()) ++r.counts.compressed;
  *relaxations += plan.edges;
  wd::add_work(plan.edges);
  wd::add_round();
  if (!plan.sequential) {
    // Concatenate the per-worker improver lists with an exclusive scan,
    // and fold the first-touch lists into the workspace's touched set.
    const std::size_t workers = r.newly_local.size();
    for (std::size_t t = 0; t < workers; ++t) r.offset[t] = r.newly_local[t].size();
    const std::size_t improved_now = exclusive_scan_inplace(r.offset);
    if (improved_now > r.improved.capacity()) {
      r.allocs.fetch_add(1, std::memory_order_relaxed);
    }
    r.improved.resize(improved_now);
    team.loop(0, workers, 1, [&](std::size_t t) {
      std::copy(r.newly_local[t].begin(), r.newly_local[t].end(),
                r.improved.begin() + r.offset[t]);
      r.newly_local[t].clear();
    });
    for (std::size_t t = 0; t < workers; ++t) {
      for (vid v : r.touched_local[t]) detail::push_counted(r.touched, v, r.allocs);
      r.touched_local[t].clear();
    }
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

HopLimitedStats hop_limited_sssp(const Graph& g, vid source, std::uint64_t h,
                                 weight_t dist_limit, SsspWorkspace& ws,
                                 const Deadline& deadline, vid target) {
  require_vertex(g, source, "hop_limited_sssp");
  if (target != kNoVertex) require_vertex(g, target, "hop_limited_sssp");
  ws.begin_run_(g.num_vertices());
  BellmanFordRefs r{ws.dist_,          ws.touched_,       ws.frontier_,
                    ws.improved_,      ws.frontier_dist_, ws.newly_local_,
                    ws.touched_local_, ws.offset_,        ws.relaxer(),
                    ws.counts(),       ws.scratch_allocs_};
  r.dist[source].store(0, std::memory_order_relaxed);
  detail::push_counted(r.touched, source, r.allocs);
  r.frontier.clear();
  detail::push_counted(r.frontier, source, r.allocs);
  HopLimitedStats stats;
  // The deadline is polled on the driver thread between rounds only — a
  // round is the unit of cancellation, so a partial run is always "the
  // first k rounds in full" and the settled distances are exact dist^k.
  const bool check_deadline = !deadline.never_expires();
  Team::drive([&](Team& team) {
    for (std::uint64_t round = 0; round < h; ++round) {
      if (r.frontier.empty()) break;  // nothing more can ever improve
      if (check_deadline && deadline.expired()) {
        stats.deadline_hit = true;
        break;
      }
      relax_round(g, r, team, &stats.relaxations, dist_limit, target);
      ++stats.rounds;
    }
  });
  r.frontier.clear();
  // Each round swaps the frontier/improved buffers; restore the original
  // pairing after odd round counts so identical warm reruns (and the
  // other drivers sharing these scratch vectors) see the same per-buffer
  // capacities every time — the warm-reuse guarantee is byte-identical
  // behavior, not just amortized growth.
  if (stats.rounds % 2 != 0) std::swap(r.frontier, r.improved);
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
  ws.begin_run_(g.num_vertices());
  BellmanFordRefs r{ws.dist_,          ws.touched_,       ws.frontier_,
                    ws.improved_,      ws.frontier_dist_, ws.newly_local_,
                    ws.touched_local_, ws.offset_,        ws.relaxer(),
                    ws.counts(),       ws.scratch_allocs_};
  r.dist[s].store(0, std::memory_order_relaxed);
  detail::push_counted(r.touched, s, r.allocs);
  r.frontier.clear();
  detail::push_counted(r.frontier, s, r.allocs);
  const weight_t goal = (1.0 + eps) * true_dist;
  std::uint64_t relaxations = 0;
  std::uint64_t rounds = 0;
  std::uint64_t reached_at = h_cap;
  Team::drive([&](Team& team) {
    for (std::uint64_t h = 1; h <= h_cap; ++h) {
      if (r.frontier.empty()) return;  // dist(t) final without reaching goal
      relax_round(g, r, team, &relaxations, kInfWeight, t);
      ++rounds;
      if (ws.dist_of(t) <= goal) {
        reached_at = h;
        return;
      }
    }
  });
  if (rounds % 2 != 0) std::swap(r.frontier, r.improved);  // see above
  return reached_at;
}

}  // namespace parsh
