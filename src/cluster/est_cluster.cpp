#include "cluster/est_cluster.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>

#include "graph/validation.hpp"
#include "parallel/atomics.hpp"
#include "parallel/bucket_engine.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/primitives.hpp"
#include "parallel/team.hpp"
#include "parallel/work_depth.hpp"
#include "random/rng.hpp"

#include <queue>

namespace parsh {

std::vector<double> est_shifts(vid n, double beta, std::uint64_t seed) {
  std::vector<double> delta;
  est_shifts_into(delta, n, beta, seed);
  return delta;
}

void est_shifts_into(std::vector<double>& out, vid n, double beta,
                     std::uint64_t seed) {
  const Rng rng(seed);
  out.resize(n);
  parallel_for(0, n, [&](std::size_t v) { out[v] = rng.exponential(v, beta); });
}

std::vector<vid> Clustering::sizes() const {
  // Single counting pass. One partial histogram per *worker* (not per
  // fixed-size block): with num_clusters up to Theta(n), per-block
  // histograms would cost O(blocks * clusters) memory and merge work.
  const std::size_t n = cluster_of.size();
  const auto nb = static_cast<std::size_t>(num_workers());
  if (nb <= 1 || n < kParallelGrain) {
    std::vector<vid> out(num_clusters, 0);
    for (vid c : cluster_of) ++out[c];
    return out;
  }
  const std::size_t block = (n + nb - 1) / nb;
  std::vector<std::vector<vid>> partial(nb);
  parallel_for_grain(0, nb, 1, [&](std::size_t b) {
    std::vector<vid>& mine = partial[b];
    mine.assign(num_clusters, 0);
    const std::size_t lo = b * block;
    const std::size_t hi = std::min(n, lo + block);
    for (std::size_t v = lo; v < hi; ++v) ++mine[cluster_of[v]];
  });
  std::vector<vid> out(num_clusters, 0);
  parallel_for(0, num_clusters, [&](std::size_t c) {
    vid acc = 0;
    for (const auto& mine : partial) acc += mine[c];
    out[c] = acc;
  });
  return out;
}

std::vector<std::vector<vid>> Clustering::members() const {
  // Counting pass + prefix-sum offsets + one scatter pass: each member
  // vector is allocated exactly once at its final size, instead of the
  // push_back growth that reallocates per cluster as it fills.
  const std::vector<vid> count = sizes();
  std::vector<std::vector<vid>> out(num_clusters);
  parallel_for(0, num_clusters, [&](std::size_t c) {
    out[c].resize(count[c]);
  });
  std::vector<vid> cursor(num_clusters, 0);  // next write slot per cluster
  for (vid v = 0; v < cluster_of.size(); ++v) {
    const vid c = cluster_of[v];
    out[c][cursor[c]++] = v;  // sequential scatter keeps vertex-id order
  }
  return out;
}

namespace {

/// Densify cluster labels (center vertex ids) to [0, k) ordered by center
/// vertex id, and fill the center list. A center is exactly a vertex that
/// is its own center, so the center list is a pack (already sorted by
/// vertex id) and the remap two scan-free parallel passes.
void finalize_labels(Clustering& c, const std::vector<vid>& center_of) {
  const vid n = static_cast<vid>(center_of.size());
  assert(parallel_count(n, [&](std::size_t v) { return center_of[v] == kNoVertex; }) == 0 &&
         "every vertex must be clustered");
  std::vector<std::size_t> centers =
      pack_indices(n, [&](std::size_t v) { return center_of[v] == static_cast<vid>(v); });
  std::vector<vid> remap(n, kNoVertex);
  parallel_for(0, centers.size(), [&](std::size_t i) {
    remap[centers[i]] = static_cast<vid>(i);
  });
  c.num_clusters = static_cast<vid>(centers.size());
  c.center.resize(centers.size());
  parallel_for(0, centers.size(), [&](std::size_t i) {
    c.center[i] = static_cast<vid>(centers[i]);
  });
  c.cluster_of.resize(n);
  parallel_for(0, n, [&](std::size_t v) { c.cluster_of[v] = remap[center_of[v]]; });
}

}  // namespace

EstClusterWorkspace::EstClusterWorkspace()
    : engine_({.span = 256}),
      newly_local_(static_cast<std::size_t>(num_workers())),
      offset_(static_cast<std::size_t>(num_workers())) {}

void EstClusterWorkspace::ensure_(vid n) {
  // The worker count may have been raised since construction (the engine
  // handles its own staging in reset()); the per-worker winner lists and
  // scan scratch are indexed by worker_id() and must cover it too.
  const auto workers = static_cast<std::size_t>(num_workers());
  if (workers > newly_local_.size()) {
    newly_local_.resize(workers);
    offset_.resize(workers);
    tally_ = WorkerCounter();
  }
  if (static_cast<std::size_t>(n) <= vertex_capacity_) return;
  ++grow_events_;
  // Geometric headroom: a driver whose quotient sizes creep upwards
  // (AKPW's weight classes can enlarge the active component set) pays
  // O(log n) reallocations, not one per new high-water mark.
  const std::size_t cap = std::max<std::size_t>(n, 2 * vertex_capacity_);
  start_.resize(cap);
  key_.resize(cap);
  parent_.resize(cap);
  hops_.resize(cap);
  center_of_.resize(cap);
  // std::atomic is immovable, so the atomic arrays are reconstructed at
  // the new size (their values are re-initialized per call anyway).
  center_ = std::vector<std::atomic<vid>>(cap);
  best_key_ = std::vector<std::atomic<double>>(cap);
  best_via_ = std::vector<std::atomic<vid>>(cap);
  vertex_capacity_ = cap;
}

Clustering est_cluster(const Graph& g, double beta, std::uint64_t seed) {
  EstClusterWorkspace ws;
  return est_cluster(g, beta, seed, ws);
}

Clustering est_cluster(const Graph& g, double beta, std::uint64_t seed,
                       EstClusterWorkspace& ws) {
  require_integer_weights(g, "est_cluster");
  if (!(beta > 0)) throw std::invalid_argument("est_cluster: beta must be positive");
  const vid n = g.num_vertices();
  Clustering c;
  c.parent.assign(n, kNoVertex);
  c.dist_to_center.assign(n, 0);
  if (n == 0) return c;

  ws.ensure_(n);
  ws.engine_.reset();
  FrontierRelaxer& relaxer = ws.relaxer();
  relaxer.begin_run();  // fresh direction hysteresis per run

  // Same draws as est_shifts, written into the reused start buffer:
  // first the raw delta, then start = delta_max - delta in place.
  std::vector<double>& start = ws.start_;
  est_shifts_into(start, n, beta, seed);
  const double delta_max =
      parallel_reduce_max<double>(n, [&](std::size_t v) { return start[v]; }, 0.0);
  // Start time per vertex; key(v) = s_u + dist(u,v) for its final center u.
  parallel_for(0, n, [&](std::size_t v) { start[v] = delta_max - start[v]; });

  std::vector<double>& key = ws.key_;
  std::vector<vid>& parent = ws.parent_;
  std::vector<weight_t>& hops = ws.hops_;
  // Settled state: the claimed center per vertex (kNoVertex = open).
  std::vector<std::atomic<vid>>& center = ws.center_;
  // Per-round CRCW priority-write scratch: the minimum proposal key seen
  // for v this round, and the smallest via among proposals at that key.
  // Reset per round for the touched vertices only.
  std::vector<std::atomic<double>>& best_key = ws.best_key_;
  std::vector<std::atomic<vid>>& best_via = ws.best_via_;
  parallel_for(0, n, [&](std::size_t v) {
    key[v] = kInfWeight;
    parent[v] = kNoVertex;
    hops[v] = 0;
    center[v].store(kNoVertex, std::memory_order_relaxed);
    best_key[v].store(kInfWeight, std::memory_order_relaxed);
    best_via[v].store(kNoVertex, std::memory_order_relaxed);
  });

  // Proposals live in the shared bucketed frontier engine; with integer
  // weights every key s_u + dist lands in bucket floor(key) and every edge
  // relaxation moves a proposal to a strictly later bucket, so one popped
  // bucket is one exact synchronous round of the CRCW algorithm.
  BucketEngine<EstProposal>& engine = ws.engine_;
  // Calendar alignment: every vertex settles by time s_v <= delta_max, so
  // the settlement mass concentrates just below delta_max — whose value
  // shifts with n across the iterated drivers' calls. Offsetting bucket
  // keys so floor(delta_max) always lands on the same calendar slot makes
  // the per-slot demand profile nest across shrinking warm calls, which is
  // what lets them reuse every slot buffer without growing it. The offset
  // is bookkeeping only: bucket = floor(key) + cal_off, popped in the same
  // order.
  const std::uint64_t span = engine.span();
  const std::uint64_t cal_off =
      (span - static_cast<std::uint64_t>(delta_max) % span) % span;
  engine.start_at(cal_off);  // seeds occupy [cal_off, cal_off + delta_max]
  // Self-start proposals: every vertex may found its own cluster at time
  // s_v (bucket floor(s_v)).
  parallel_for(0, n, [&](std::size_t v) {
    const vid u = static_cast<vid>(v);
    engine.push_from_worker(static_cast<std::uint64_t>(start[v]) + cal_off,
                            {u, kNoVertex, start[v], 0});
  });

  // Per-worker scratch for the round phases: live-proposal/work tallies
  // and winner lists (padded so the hot path never shares cache lines).
  const std::size_t workers = ws.newly_local_.size();
  WorkerCounter& tally = ws.tally_;
  std::vector<std::vector<vid>>& newly_local = ws.newly_local_;
  std::vector<vid>& newly = ws.newly_;

  vid assigned = 0;
  std::uint64_t rounds = 0;
  std::vector<EstProposal>& props = ws.props_;
  auto alive = [&](const EstProposal& p) {
    return center[p.v].load(std::memory_order_relaxed) == kNoVertex;
  };
  // Phase "settle": p won the round's priority write for p.v; the CAS
  // admits one of possibly several exact duplicates (parallel edges of
  // equal weight carry identical (key, via, dw)), so the settled state is
  // schedule-independent either way.
  auto settle = [&](const EstProposal& p) {
    const vid ctr =
        p.via == kNoVertex ? p.v : center[p.via].load(std::memory_order_relaxed);
    vid open = kNoVertex;
    if (center[p.v].compare_exchange_strong(open, ctr, std::memory_order_relaxed)) {
      key[p.v] = p.key;
      parent[p.v] = p.via;
      hops[p.v] = p.dw;
      newly_local[static_cast<std::size_t>(worker_id())].push_back(p.v);
    }
  };
  // The sequential-round form of settle: plain relaxed loads/stores (one
  // worker owns the whole round), winners straight into `newly` — the
  // first of exact duplicates wins, like the CAS. Same settled state.
  auto settle_seq = [&](const EstProposal& p) {
    if (center[p.v].load(std::memory_order_relaxed) != kNoVertex) return;
    const vid ctr =
        p.via == kNoVertex ? p.v : center[p.via].load(std::memory_order_relaxed);
    center[p.v].store(ctr, std::memory_order_relaxed);
    key[p.v] = p.key;
    parent[p.v] = p.via;
    hops[p.v] = p.dw;
    newly.push_back(p.v);
  };

  // A round below this many items (proposals for the reduce, frontier
  // edges for the expansion — the relaxer's prefix scan supplies the
  // latter) runs entirely on one worker: plain writes, no atomics, direct
  // calendar pushes, no barriers. The decision depends only on the
  // (deterministic) round contents, so counters match at every thread
  // count; output is bit-identical either way because both paths compute
  // the same (key, via) argmin. The round policy sets the cut (zero: every
  // round through the team stages).
  const std::size_t seq_threshold = relaxer.seq_threshold();
  // Per-stage chunk for the proposal-indexed phases below.
  constexpr std::size_t kStageGrain = 512;

  // One drive for the whole drain (the pool is taken once, not ~5 times
  // per round); every phase below is a barrier-separated Team stage.
  Team::drive([&](Team& team) {
    while (assigned < n && engine.pop_round(team, props) != kNoBucket) {
      // Min-reduce proposals per vertex (the CRCW priority write), in
      // three barrier-separated phases: min key, then min via at that
      // key, then settle. Keys are distinct reals with probability 1;
      // ties break toward the smaller via-vertex, so the winner — and
      // with it the whole clustering — is independent of thread count and
      // schedule. Proposals for vertices settled in earlier rounds ride
      // along dead; each phase skips them with one relaxed load. The
      // sequential-round form performs the same passes with plain writes.
      const bool seq_round = props.size() <= seq_threshold;
      std::uint64_t live = 0;
      std::size_t settled_now = 0;
      if (seq_round) {
        newly.clear();
        for (const EstProposal& p : props) {
          if (!alive(p)) continue;
          ++live;
          if (p.key < best_key[p.v].load(std::memory_order_relaxed)) {
            best_key[p.v].store(p.key, std::memory_order_relaxed);
          }
        }
        if (live == 0) continue;  // a fully-stale bucket is not a round
        ws.counts().add_round(/*on_sequential=*/true);
        for (const EstProposal& p : props) {
          if (alive(p) &&
              p.key == best_key[p.v].load(std::memory_order_relaxed) &&
              p.via < best_via[p.v].load(std::memory_order_relaxed)) {
            best_via[p.v].store(p.via, std::memory_order_relaxed);
          }
        }
        for (const EstProposal& p : props) {
          if (p.key == best_key[p.v].load(std::memory_order_relaxed) &&
              p.via == best_via[p.v].load(std::memory_order_relaxed)) {
            settle_seq(p);
          }
        }
        for (const EstProposal& p : props) {
          best_key[p.v].store(kInfWeight, std::memory_order_relaxed);
          best_via[p.v].store(kNoVertex, std::memory_order_relaxed);
        }
      } else {
        team.loop(0, props.size(), kStageGrain, [&](std::size_t i) {
          const EstProposal& p = props[i];
          if (!alive(p)) return;
          tally.add(1);
          atomic_write_min(&best_key[p.v], p.key);
        });
        live = tally.drain();
        if (live == 0) continue;  // a fully-stale bucket is not a round
        ws.counts().add_round(/*on_sequential=*/false);
        team.loop(0, props.size(), kStageGrain, [&](std::size_t i) {
          const EstProposal& p = props[i];
          if (alive(p) && p.key == best_key[p.v].load(std::memory_order_relaxed)) {
            atomic_write_min(&best_via[p.v], p.via);
          }
        });
        team.loop(0, props.size(), kStageGrain, [&](std::size_t i) {
          const EstProposal& p = props[i];
          if (p.key == best_key[p.v].load(std::memory_order_relaxed) &&
              p.via == best_via[p.v].load(std::memory_order_relaxed)) {
            settle(p);
          }
        });
        // Reset the scratch minima for next rounds (touched only).
        team.loop(0, props.size(), kStageGrain, [&](std::size_t i) {
          best_key[props[i].v].store(kInfWeight, std::memory_order_relaxed);
          best_via[props[i].v].store(kNoVertex, std::memory_order_relaxed);
        });
      }
      ++rounds;
      wd::add_round();
      wd::add_work(live);
      // Concatenate the per-worker winner lists with an exclusive scan.
      // A sequential round wrote `newly` directly and staged nothing.
      if (!seq_round) {
        std::vector<std::size_t>& offset = ws.offset_;
        for (std::size_t t = 0; t < workers; ++t) offset[t] = newly_local[t].size();
        settled_now = exclusive_scan_inplace(offset);
        newly.resize(settled_now);
        team.loop(0, workers, 1, [&](std::size_t t) {
          std::copy(newly_local[t].begin(), newly_local[t].end(),
                    newly.begin() + offset[t]);
          newly_local[t].clear();
        });
      } else {
        settled_now = newly.size();
      }
      assigned += static_cast<vid>(settled_now);

      // Expand: settled vertices propagate along their edges into
      // strictly later buckets (w >= 1). Scheduling is degree-aware and
      // adaptive: above the threshold the relaxer splits the round's edge
      // total into stolen ranges across the team (a hub vertex is
      // expanded by many workers); at or below it the whole expansion
      // runs on this thread with direct calendar pushes — no staging, no
      // flush. The proposal multiset is partition-independent and the
      // min-reduce above order-independent, so the output is identical.
      // One body, two emission routes: the sequential round places
      // straight into the calendar, the parallel round stages per worker.
      auto expand_with = [&](auto push) {
        return [&, push](std::size_t i, std::size_t lo, std::size_t hi) {
          const vid u = newly[i];
          tally.add(hi - lo);
          g.for_arcs(
              u, lo, hi,
              [&](vid ahead) { prefetch_read(&center[ahead]); },
              [&](eid e, vid v) {
                if (center[v].load(std::memory_order_relaxed) != kNoVertex) return;
                const weight_t w = g.weight(e);
                assert(w >= 1 && w == std::floor(w) &&
                       "est_cluster requires positive integer weights");
                const double k = key[u] + w;
                push(static_cast<std::uint64_t>(k) + cal_off,
                     EstProposal{v, u, k, hops[u] + w});
              });
        };
      };
      // Pull candidate scan for dense rounds: an open vertex scans its own
      // (symmetric, equal-mirror-weight) adjacency for frontier neighbours
      // and emits at most its lexicographic (key, via) minimum — exactly
      // the proposal the push multiset's min-reduce would have settled,
      // with k = key[u] + w the same double operation either way, so the
      // clustering is bit-identical. The suppressed proposals are strict
      // losers of that very reduce (a later-bucket loser finds v settled
      // at or before the winner's bucket and dies in the alive() filter).
      auto pull_expand = [&](vid v) -> std::size_t {
        if (center[v].load(std::memory_order_relaxed) != kNoVertex) return 0;
        const std::size_t deg = g.degree(v);
        double bk = kInfWeight;
        vid bu = kNoVertex;
        weight_t bw = 0;
        g.for_arcs(
            v, 0, deg,
            [&](vid ahead) { relaxer.prefetch_frontier_bit(ahead); },
            [&](eid e, vid u) {
              if (!relaxer.in_frontier(u)) return;
              const weight_t w = g.weight(e);
              const double k = key[u] + w;
              if (k < bk || (k == bk && u < bu)) {
                bk = k;
                bu = u;
                bw = hops[u] + w;
              }
            });
        tally.add(deg);
        if (bu != kNoVertex) {
          engine.push_from_worker(static_cast<std::uint64_t>(bk) + cal_off,
                                  EstProposal{v, bu, bk, bw});
        }
        return deg;
      };
      relaxer.relax(
          team, newly, g.num_vertices(), g.num_arcs(),
          [&](std::size_t i) { return static_cast<std::size_t>(g.degree(newly[i])); },
          expand_with([&](std::uint64_t b, EstProposal p) {
            engine.push(b, std::move(p));
          }),
          expand_with([&](std::uint64_t b, EstProposal p) {
            engine.push_from_worker(b, std::move(p));
          }),
          pull_expand);
      if (!g.has_flat_adjacency()) ++ws.counts().compressed;
      wd::add_work(tally.drain());
    }
  });

  std::vector<vid>& center_of = ws.center_of_;
  center_of.resize(n);  // finalize_labels reads the size as the vertex count
  parallel_for(0, n, [&](std::size_t v) {
    center_of[v] = center[v].load(std::memory_order_relaxed);
  });
  // Copy (not move) the settled arrays out so the workspace keeps its
  // capacity for the next call.
  c.parent.assign(parent.begin(), parent.begin() + n);
  c.dist_to_center.assign(hops.begin(), hops.begin() + n);
  c.rounds = rounds;
  finalize_labels(c, center_of);
  return c;
}

Clustering est_cluster_reference(const Graph& g, double beta, std::uint64_t seed) {
  require_positive_weights(g, "est_cluster_reference");
  if (!(beta > 0)) {
    throw std::invalid_argument("est_cluster_reference: beta must be positive");
  }
  const vid n = g.num_vertices();
  Clustering c;
  c.parent.assign(n, kNoVertex);
  c.dist_to_center.assign(n, 0);
  if (n == 0) return c;
  const std::vector<double> delta = est_shifts(n, beta, seed);
  double delta_max = 0;
  for (double d : delta) delta_max = std::max(delta_max, d);

  // Super-source Dijkstra: every vertex is a source with offset
  // s_v = delta_max - delta_v; the winning source is the cluster center.
  std::vector<double> key(n, kInfWeight);
  std::vector<vid> center_of(n, kNoVertex);
  std::vector<weight_t> dist_in_tree(n, 0);
  struct QItem {
    double key;
    vid v;
    vid center;
    vid via;
    weight_t d;
    bool operator>(const QItem& o) const {
      if (key != o.key) return key > o.key;
      return center > o.center;  // deterministic tie-break
    }
  };
  std::priority_queue<QItem, std::vector<QItem>, std::greater<>> pq;
  for (vid v = 0; v < n; ++v) pq.push({delta_max - delta[v], v, v, kNoVertex, 0});
  while (!pq.empty()) {
    QItem it = pq.top();
    pq.pop();
    if (center_of[it.v] != kNoVertex) continue;
    center_of[it.v] = it.center;
    key[it.v] = it.key;
    c.parent[it.v] = it.via;
    dist_in_tree[it.v] = it.d;
    for (eid e = g.begin(it.v); e < g.end(it.v); ++e) {
      const vid u = g.target(e);
      if (center_of[u] != kNoVertex) continue;
      pq.push({it.key + g.weight(e), u, it.center, it.v, it.d + g.weight(e)});
    }
  }
  c.dist_to_center = std::move(dist_in_tree);
  c.rounds = 0;  // sequential oracle: rounds not meaningful
  finalize_labels(c, center_of);
  return c;
}

}  // namespace parsh
