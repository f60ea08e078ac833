#include "sssp/bfs.hpp"

#include <algorithm>
#include <atomic>

#include "graph/validation.hpp"
#include "parallel/atomics.hpp"
#include "parallel/bucket_engine.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/primitives.hpp"
#include "parallel/team.hpp"
#include "parallel/work_depth.hpp"

namespace parsh {

namespace {

/// Workspace state one BFS run threads through the level loop (references
/// into the friend-accessible SsspWorkspace members, including its relaxer
/// and round counters, and the run's base stamp).
struct BfsCtx {
  const Graph& g;
  FrontierRelaxer& relaxer;  // holds the round policy
  RoundCounts& counts;
  BucketEngine<vid>& engine;
  std::vector<vid>& frontier;
  std::vector<std::vector<vid>>& newly_local;  // per-worker claim winners
  std::vector<vid>& newly;                     // concatenated winners
  std::vector<std::size_t>& offset;            // winner-concat scan scratch
  std::vector<std::atomic<std::uint64_t>>& stamp;
  std::vector<std::atomic<vid>>& best_via;  // per-round parent argmin
  std::atomic<std::uint64_t>& scratch_allocs;
  std::uint64_t run_base;  // stamp claiming the run; rounds stamp above it
};

/// Level-synchronous BFS on the workspace's frontier engine: levels are
/// consecutive bucket keys, and claimed children are emitted through the
/// engine's per-worker staging buffers (scan-compacted per round) instead
/// of a serial per-level concatenation. The engine must already hold the
/// seed frontier at key 0 (seeds stamped run_base). The whole level loop
/// runs inside ONE persistent parallel region (parallel/team.hpp); each
/// level's edge work is one adaptive relaxer round — degree-aware stolen
/// ranges, the sequential fast path, or (dense levels) a pull round where
/// unclaimed vertices scan their own adjacency for the frontier bitmap.
///
/// Parents are an ARGMIN, not a race: a round's claim attempts fold every
/// proposing neighbour into best_via[v] with a CRCW min-reduce, and only
/// after the relax barrier does the settle stage write (dist, parent) from
/// the per-vertex minimum — so the tree is bit-identical across thread
/// counts, schedules and directions (adjacency is sorted by target, so the
/// pull scan's first frontier hit IS the min via, making its early exit
/// exact). `finalize(v, level)` is that settle step: it must consume
/// best_via[v] and restore it to kNoVertex (the "no proposal" invariant).
template <typename NextStamp, typename Finalize>
vid run_bfs(BfsCtx ctx, vid max_levels, NextStamp next_stamp, Finalize finalize) {
  const Graph& g = ctx.g;
  std::vector<vid>& frontier = ctx.frontier;
  std::vector<std::atomic<std::uint64_t>>& stamp = ctx.stamp;
  std::vector<std::atomic<vid>>& best_via = ctx.best_via;
  const std::uint64_t run_base = ctx.run_base;
  FrontierRelaxer& relaxer = ctx.relaxer;
  vid level = 0;
  Team::drive([&](Team& team) {
    std::uint64_t key;
    while ((key = ctx.engine.pop_round(team, frontier)) != kNoBucket) {
      if (level >= max_levels) break;
      ++level;
      wd::add_round();
      const vid next_level = static_cast<vid>(key) + 1;
      // One stamp per round: stamp[v] == round_id means "claimed this
      // round, best_via[v] is live"; run_base <= stamp[v] < round_id means
      // "settled in an earlier round of this run"; below run_base is a
      // leftover from an earlier run (stamps are globally monotone, so
      // the array never needs wiping).
      const std::uint64_t round_id = next_stamp();
      // Claim routes: CAS + atomic min in parallel stages, plain
      // single-writer loads/stores on the sequential fast path. Both
      // record every proposing via in best_via[v] and return true for
      // exactly one claimer (the one that emits v into the next level).
      auto claim = [&](vid v, vid via) -> bool {
        std::uint64_t seen = stamp[v].load(std::memory_order_relaxed);
        if (seen >= run_base && seen != round_id) return false;
        atomic_write_min(&best_via[v], via);
        if (seen == round_id) return false;
        return stamp[v].compare_exchange_strong(seen, round_id,
                                                std::memory_order_relaxed);
      };
      auto claim_seq = [&](vid v, vid via) -> bool {
        const std::uint64_t seen = stamp[v].load(std::memory_order_relaxed);
        if (seen >= run_base && seen != round_id) return false;
        if (seen == round_id) {
          if (via < best_via[v].load(std::memory_order_relaxed)) {
            best_via[v].store(via, std::memory_order_relaxed);
          }
          return false;
        }
        stamp[v].store(round_id, std::memory_order_relaxed);
        best_via[v].store(via, std::memory_order_relaxed);
        return true;
      };
      auto scan_with = [&](auto try_claim, auto record) {
        return [&, try_claim, record](std::size_t i, std::size_t lo,
                                      std::size_t hi) {
          const vid u = frontier[i];
          g.for_arcs(
              u, lo, hi,
              [&](vid ahead) { prefetch_read(&stamp[ahead]); },
              [&](eid, vid v) {
                if (try_claim(v, u)) record(v);
              });
        };
      };
      // Pull candidate scan: an unclaimed vertex takes the FIRST frontier
      // neighbour in its sorted adjacency — the min via, i.e. the same
      // argmin the push reduce computes — so it can stop scanning there.
      // Each vertex is scanned by exactly one worker, so plain stores
      // suffice; returns the edges examined (the pull_edges_scanned
      // payoff counter).
      auto pull_scan = [&](vid v) -> std::size_t {
        if (stamp[v].load(std::memory_order_relaxed) >= run_base) return 0;
        return g.scan_arcs(
            v,
            [&](vid ahead) { relaxer.prefetch_frontier_bit(ahead); },
            [&](eid, vid u) {
              if (!relaxer.in_frontier(u)) return false;
              best_via[v].store(u, std::memory_order_relaxed);
              stamp[v].store(round_id, std::memory_order_relaxed);
              ctx.engine.push_from_worker(key + 1, v);
              detail::push_counted(
                  ctx.newly_local[static_cast<std::size_t>(worker_id())], v,
                  ctx.scratch_allocs);
              return true;  // first frontier neighbour is the argmin via
            });
      };
      ctx.newly.clear();
      const auto plan = relaxer.relax(
          team, frontier, g.num_vertices(), g.num_arcs(),
          [&](std::size_t i) {
            return static_cast<std::size_t>(g.degree(frontier[i]));
          },
          scan_with(claim_seq,
                    [&](vid v) {
                      ctx.engine.push(key + 1, v);
                      detail::push_counted(ctx.newly, v, ctx.scratch_allocs);
                    }),
          scan_with(claim,
                    [&](vid v) {
                      ctx.engine.push_from_worker(key + 1, v);
                      detail::push_counted(
                          ctx.newly_local[static_cast<std::size_t>(worker_id())],
                          v, ctx.scratch_allocs);
                    }),
          pull_scan);
      // Settle stage, after the relax barrier: every proposal of the
      // round is folded into best_via, so finalize reads the true minima.
      if (plan.sequential) {
        for (vid v : ctx.newly) finalize(v, next_level);
      } else {
        std::vector<std::size_t>& offset = ctx.offset;
        const std::size_t workers = ctx.newly_local.size();
        for (std::size_t t = 0; t < workers; ++t) {
          offset[t] = ctx.newly_local[t].size();
        }
        const std::size_t claimed = exclusive_scan_inplace(offset);
        if (claimed > ctx.newly.capacity()) {
          ctx.scratch_allocs.fetch_add(1, std::memory_order_relaxed);
        }
        ctx.newly.resize(claimed);
        team.loop(0, workers, 1, [&](std::size_t t) {
          std::copy(ctx.newly_local[t].begin(), ctx.newly_local[t].end(),
                    ctx.newly.begin() + offset[t]);
          ctx.newly_local[t].clear();
        });
        team.loop(0, ctx.newly.size(), std::size_t{512},
                  [&](std::size_t i) { finalize(ctx.newly[i], next_level); });
      }
      ctx.counts.add_round(plan.sequential);
      if (!g.has_flat_adjacency()) ++ctx.counts.compressed;
      wd::add_work(plan.edges);  // the relaxer's prefix scan summed degrees
    }
  });
  frontier.clear();
  return level;
}

}  // namespace

BfsResult bfs(const Graph& g, vid source, vid max_levels, SsspWorkspace& ws) {
  require_vertex(g, source, "bfs");
  const vid n = g.num_vertices();
  BfsResult r;
  r.dist.assign(n, kUnreachedHops);
  r.parent.assign(n, kNoVertex);
  ws.begin_run_(n);
  ws.ensure_reduce_(n);  // best_via_ backs the per-round parent argmin
  const std::uint64_t run_base = ws.next_stamp_();
  std::vector<std::atomic<vid>>& best_via = ws.best_via_;
  BucketEngine<vid>& engine = ws.frontier_engine_;
  engine.reset();
  r.dist[source] = 0;
  ws.stamp_[source].store(run_base, std::memory_order_relaxed);
  engine.push(0, source);
  BfsCtx ctx{g,
             ws.relaxer(),
             ws.counts(),
             engine,
             ws.frontier_,
             ws.newly_local_,
             ws.newly_,
             ws.offset_,
             ws.stamp_,
             best_via,
             ws.scratch_allocs_,
             run_base};
  r.rounds = run_bfs(
      ctx, max_levels, [&] { return ws.next_stamp_(); },
      [&](vid v, vid level) {
        r.dist[v] = level;
        r.parent[v] = best_via[v].load(std::memory_order_relaxed);
        best_via[v].store(kNoVertex, std::memory_order_relaxed);
      });
  return r;
}

BfsResult bfs(const Graph& g, vid source, vid max_levels) {
  SsspWorkspace ws;
  return bfs(g, source, max_levels, ws);
}

MultiBfsResult multi_bfs(const Graph& g, const std::vector<vid>& sources,
                         vid max_levels, SsspWorkspace& ws) {
  const vid n = g.num_vertices();
  MultiBfsResult r;
  r.dist.assign(n, kUnreachedHops);
  r.owner.assign(n, kNoVertex);
  ws.begin_run_(n);
  ws.ensure_reduce_(n);
  const std::uint64_t run_base = ws.next_stamp_();
  std::vector<std::atomic<vid>>& best_via = ws.best_via_;
  std::vector<std::atomic<std::uint64_t>>& stamp = ws.stamp_;
  BucketEngine<vid>& engine = ws.frontier_engine_;
  engine.reset();
  // Ties at level 0 (duplicate sources) resolve to the smaller index.
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const vid s = sources[i];
    if (stamp[s].load(std::memory_order_relaxed) >= run_base) continue;
    stamp[s].store(run_base, std::memory_order_relaxed);
    r.owner[s] = static_cast<vid>(i);
    r.dist[s] = 0;
    engine.push(0, s);
  }
  BfsCtx ctx{g,
             ws.relaxer(),
             ws.counts(),
             engine,
             ws.frontier_,
             ws.newly_local_,
             ws.newly_,
             ws.offset_,
             stamp,
             best_via,
             ws.scratch_allocs_,
             run_base};
  r.rounds = run_bfs(
      ctx, max_levels, [&] { return ws.next_stamp_(); },
      [&](vid v, vid level) {
        // via settled in an earlier level, so its owner is stable (the
        // round barrier orders the write).
        const vid via = best_via[v].load(std::memory_order_relaxed);
        r.owner[v] = r.owner[via];
        r.dist[v] = level;
        best_via[v].store(kNoVertex, std::memory_order_relaxed);
      });
  return r;
}

MultiBfsResult multi_bfs(const Graph& g, const std::vector<vid>& sources, vid max_levels) {
  SsspWorkspace ws;
  return multi_bfs(g, sources, max_levels, ws);
}

}  // namespace parsh
