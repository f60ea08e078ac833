#include "sssp/delta_stepping.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "graph/validation.hpp"
#include "parallel/atomics.hpp"
#include "parallel/bucket_engine.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/primitives.hpp"
#include "parallel/team.hpp"
#include "parallel/work_depth.hpp"

namespace parsh {

DeltaSteppingResult delta_stepping(const Graph& g, vid source, weight_t delta) {
  SsspWorkspace ws;
  return delta_stepping(g, source, delta, ws);
}

DeltaSteppingResult delta_stepping(const Graph& g, vid source, weight_t delta,
                                   SsspWorkspace& ws) {
  const vid n = g.num_vertices();
  DeltaSteppingResult r;
  r.dist.assign(n, kInfWeight);
  r.parent.assign(n, kNoVertex);
  if (n == 0) return r;
  require_vertex(g, source, "delta_stepping");
  if (delta <= 0) {
    const double avg_deg =
        g.num_vertices() ? static_cast<double>(g.num_arcs()) / g.num_vertices() : 1.0;
    delta = std::max<weight_t>(1.0, g.max_weight() / std::max(1.0, avg_deg));
  }
  // Integer bucket width. Bucketing by truncation puts every key of a
  // popped bucket b in the EXACT real interval [b*udelta, (b+1)*udelta)
  // — floor(nd) in [b*ud, (b+1)*ud) implies nd in the same half-open
  // interval for any real nd — which is what lets the packed rounds
  // derive exact interval bounds from integer arithmetic (a real-valued
  // delta would round b*delta and could put a key below the packed base).
  const auto udelta = std::max<std::uint64_t>(1, static_cast<std::uint64_t>(delta));
  auto bucket_of = [&](weight_t d) { return static_cast<std::uint64_t>(d) / udelta; };

  ws.begin_run_(n);
  ws.ensure_reduce_(n);
  BucketEngine<SsspProposal>& engine = ws.proposal_engine_;
  engine.reset();

  std::vector<std::atomic<weight_t>>& dist = ws.dist_;
  std::vector<vid>& parent = ws.parent_;
  std::vector<std::atomic<std::uint64_t>>& stamp = ws.stamp_;
  std::vector<std::atomic<weight_t>>& best_key = ws.best_key_;
  std::vector<std::atomic<vid>>& best_via = ws.best_via_;
  std::vector<std::atomic<std::uint64_t>>& best_packed = ws.best_packed_;
  std::vector<std::vector<vid>>& newly_local = ws.newly_local_;
  std::vector<std::vector<vid>>& touched_local = ws.touched_local_;
  std::vector<vid>& newly = ws.newly_;
  std::vector<SsspProposal>& props = ws.props_;
  std::vector<vid>& settled = ws.improved_;   // per-bucket settled list
  std::vector<vid>& final_in_b = ws.frontier_;  // heavy-relax source list
  WorkerCounter& tally = ws.tally_;
  const std::size_t workers = newly_local.size();

  auto dist_of = [&](vid v) { return dist[v].load(std::memory_order_relaxed); };

  // The packed fast path needs every parent id representable in 24 bits
  // (kPackedNoVia is reserved for kNoVertex).
  const bool via_packs = !ws.three_phase() &&
                         static_cast<std::uint64_t>(n) <= kPackedNoVia;

  // A round below this many items (proposals for the reduce, frontier
  // edges for the relax) runs entirely on one worker: plain writes, no
  // atomics, direct calendar pushes, no barriers. The decision depends
  // only on the (deterministic) round contents, so the counters match at
  // every thread count; both paths compute the same (dist, parent)
  // argmin, so the output is bit-identical. The round policy sets the cut
  // (zero: every round through the team stages).
  FrontierRelaxer& relaxer = ws.relaxer();
  const std::size_t seq_threshold = relaxer.seq_threshold();
  // Per-stage chunk for the proposal-indexed phases below.
  constexpr std::size_t kStageGrain = 512;

  // Settle the round's per-vertex winner (p won the (dist, parent)
  // priority write for p.v). The stamp CAS admits one of possibly several
  // exact duplicates (parallel edges of equal weight carry identical
  // (v, via, dist)), so the settled state is schedule-independent either
  // way. Stale winners (v already at a smaller distance) fall through.
  auto settle = [&](const SsspProposal& p, std::uint64_t round_id) {
    std::uint64_t seen = stamp[p.v].load(std::memory_order_relaxed);
    if (seen == round_id) return;
    if (!stamp[p.v].compare_exchange_strong(seen, round_id,
                                            std::memory_order_relaxed)) {
      return;
    }
    const weight_t old = dist_of(p.v);
    if (p.dist >= old) return;
    dist[p.v].store(p.dist, std::memory_order_relaxed);
    parent[p.v] = p.via;
    const auto w = static_cast<std::size_t>(worker_id());
    detail::push_counted(newly_local[w], p.v, ws.scratch_allocs_);
    if (old == kInfWeight) {
      detail::push_counted(touched_local[w], p.v, ws.scratch_allocs_);
    }
  };
  // The sequential-round form: plain relaxed loads/stores (one worker
  // owns the whole round), winners straight into `newly`, first touches
  // straight into the touched list. Same settled state as the CAS form.
  auto settle_seq = [&](const SsspProposal& p, std::uint64_t round_id) {
    if (stamp[p.v].load(std::memory_order_relaxed) == round_id) return;
    stamp[p.v].store(round_id, std::memory_order_relaxed);
    const weight_t old = dist_of(p.v);
    if (p.dist >= old) return;
    dist[p.v].store(p.dist, std::memory_order_relaxed);
    parent[p.v] = p.via;
    detail::push_counted(newly, p.v, ws.scratch_allocs_);
    if (old == kInfWeight) {
      detail::push_counted(ws.touched_, p.v, ws.scratch_allocs_);
    }
  };

  engine.push(0, {source, kNoVertex, 0});

  // One persistent parallel region for the whole bucket loop; every
  // phase below is a barrier-separated Team stage.
  Team::drive([&](Team& team) {
    // Resolve the popped bucket's proposals (one synchronous round of the
    // CRCW priority write), settle the winners, and concatenate the
    // newly-improved vertices into `newly`. Two equivalent reduction
    // strategies, chosen per bucket:
    //  * packed fast path — the bucket's keys quantize order-exactly into
    //    40 bits, so (dist, parent) fuses into one 64-bit word and the
    //    reduce is a single atomic_write_min pass;
    //  * three-phase fallback — min dist, then min parent at that dist,
    //    then settle, barrier-separated.
    // Both compute the same argmin, so the output is bit-identical — and
    // each has a sequential-round form performing the same passes with
    // plain writes when the bucket is below the threshold.
    auto reduce_round = [&](bool packed, std::uint64_t base_bits) {
      std::uint64_t live = 0;
      const bool seq_round = props.size() <= seq_threshold;
      if (seq_round) {
        newly.clear();
        if (packed) {
          for (const SsspProposal& p : props) {
            if (p.dist >= dist_of(p.v)) continue;  // stale proposal
            ++live;
            const std::uint64_t word = pack_key_via(p.dist, base_bits, p.via);
            if (word < best_packed[p.v].load(std::memory_order_relaxed)) {
              best_packed[p.v].store(word, std::memory_order_relaxed);
            }
          }
          if (live != 0) {
            ws.counts().add_reduce(/*sequential=*/true, /*packed=*/true);
            const std::uint64_t round_id = ws.next_stamp_();
            for (const SsspProposal& p : props) {
              if (best_packed[p.v].load(std::memory_order_relaxed) ==
                  pack_key_via(p.dist, base_bits, p.via)) {
                settle_seq(p, round_id);
              }
            }
          }
          for (const SsspProposal& p : props) {
            best_packed[p.v].store(kPackedInf, std::memory_order_relaxed);
          }
        } else {
          for (const SsspProposal& p : props) {
            if (p.dist >= dist_of(p.v)) continue;  // stale proposal
            ++live;
            if (p.dist < best_key[p.v].load(std::memory_order_relaxed)) {
              best_key[p.v].store(p.dist, std::memory_order_relaxed);
            }
          }
          if (live != 0) {
            ws.counts().add_reduce(/*sequential=*/true, /*packed=*/false);
            for (const SsspProposal& p : props) {
              if (p.dist == best_key[p.v].load(std::memory_order_relaxed) &&
                  p.via < best_via[p.v].load(std::memory_order_relaxed)) {
                best_via[p.v].store(p.via, std::memory_order_relaxed);
              }
            }
            const std::uint64_t round_id = ws.next_stamp_();
            for (const SsspProposal& p : props) {
              if (p.dist == best_key[p.v].load(std::memory_order_relaxed) &&
                  p.via == best_via[p.v].load(std::memory_order_relaxed)) {
                settle_seq(p, round_id);
              }
            }
          }
          for (const SsspProposal& p : props) {
            best_key[p.v].store(kInfWeight, std::memory_order_relaxed);
            best_via[p.v].store(kNoVertex, std::memory_order_relaxed);
          }
        }
        wd::add_work(live);
        return;
      }
      if (packed) {
        team.loop(0, props.size(), kStageGrain, [&](std::size_t i) {
          const SsspProposal& p = props[i];
          if (p.dist >= dist_of(p.v)) return;  // stale proposal
          tally.add(1);
          atomic_write_min(&best_packed[p.v], pack_key_via(p.dist, base_bits, p.via));
        });
        live = tally.drain();
        if (live != 0) {
          ws.counts().add_reduce(/*sequential=*/false, /*packed=*/true);
          const std::uint64_t round_id = ws.next_stamp_();
          team.loop(0, props.size(), kStageGrain, [&](std::size_t i) {
            const SsspProposal& p = props[i];
            if (best_packed[p.v].load(std::memory_order_relaxed) ==
                pack_key_via(p.dist, base_bits, p.via)) {
              settle(p, round_id);
            }
          });
        }
        team.loop(0, props.size(), kStageGrain, [&](std::size_t i) {
          best_packed[props[i].v].store(kPackedInf, std::memory_order_relaxed);
        });
      } else {
        team.loop(0, props.size(), kStageGrain, [&](std::size_t i) {
          const SsspProposal& p = props[i];
          if (p.dist >= dist_of(p.v)) return;  // stale proposal
          tally.add(1);
          atomic_write_min(&best_key[p.v], p.dist);
        });
        live = tally.drain();
        if (live != 0) {
          ws.counts().add_reduce(/*sequential=*/false, /*packed=*/false);
          team.loop(0, props.size(), kStageGrain, [&](std::size_t i) {
            const SsspProposal& p = props[i];
            if (p.dist == best_key[p.v].load(std::memory_order_relaxed)) {
              atomic_write_min(&best_via[p.v], p.via);
            }
          });
          const std::uint64_t round_id = ws.next_stamp_();
          team.loop(0, props.size(), kStageGrain, [&](std::size_t i) {
            const SsspProposal& p = props[i];
            if (p.dist == best_key[p.v].load(std::memory_order_relaxed) &&
                p.via == best_via[p.v].load(std::memory_order_relaxed)) {
              settle(p, round_id);
            }
          });
        }
        // Reset the scratch minima (touched vertices only).
        team.loop(0, props.size(), kStageGrain, [&](std::size_t i) {
          best_key[props[i].v].store(kInfWeight, std::memory_order_relaxed);
          best_via[props[i].v].store(kNoVertex, std::memory_order_relaxed);
        });
      }
      wd::add_work(live);
      // Concatenate the per-worker winner lists with an exclusive scan,
      // and fold the first-touch lists into the workspace's touched set.
      std::vector<std::size_t>& offset = ws.offset_;
      for (std::size_t t = 0; t < workers; ++t) offset[t] = newly_local[t].size();
      const std::size_t settled_now = exclusive_scan_inplace(offset);
      if (settled_now > newly.capacity()) {
        ws.scratch_allocs_.fetch_add(1, std::memory_order_relaxed);
      }
      newly.resize(settled_now);
      team.loop(0, workers, 1, [&](std::size_t t) {
        std::copy(newly_local[t].begin(), newly_local[t].end(),
                  newly.begin() + offset[t]);
        newly_local[t].clear();
      });
      for (std::size_t t = 0; t < workers; ++t) {
        for (vid v : touched_local[t]) {
          detail::push_counted(ws.touched_, v, ws.scratch_allocs_);
        }
        touched_local[t].clear();
      }
    };

    // Relax the out-edges of `frontier` selected by `take`; improving
    // proposals enter the calendar at their new bucket. The push filter
    // reads distances that only change at settle barriers, so the
    // proposal multiset of every round is schedule-independent — which is
    // also what makes the adaptive degree-aware scheduling safe: the
    // relaxer either repartitions the same edge set into stolen ranges
    // across the team (hubs split across workers) or, below the
    // threshold, runs it on this thread with direct calendar pushes; the
    // per-bucket (dist, parent) min-reduce is order-independent, so the
    // output and the relaxation counter are bit-identical across all of
    // it and across thread counts.
    auto relax_edges = [&](const std::vector<vid>& frontier, std::uint64_t b,
                           auto take) {
      // One body, two emission routes: the sequential round places
      // straight into the calendar, the parallel round stages per worker.
      auto scan_with = [&](auto push) {
        return [&, push](std::size_t i, std::size_t lo, std::size_t hi) {
          const vid u = frontier[i];
          const weight_t du = dist_of(u);
          std::uint64_t count = 0;
          g.for_arcs(
              u, lo, hi,
              [&](vid ahead) { prefetch_read(&dist[ahead]); },
              [&](eid e, vid v) {
                const weight_t w = g.weight(e);
                if (!take(w)) return;
                const weight_t nd = du + w;
                ++count;
                if (nd < dist_of(v)) {
                  push(bucket_of(nd), SsspProposal{v, u, nd});
                }
              });
          tally.add(count);
        };
      };
      // Pull candidate scan. A vertex already at or below the bucket's
      // real lower bound cannot be improved by this round (every frontier
      // distance is >= b*udelta and weights are positive, so any proposal
      // exceeds the floor); everything else scans its own (symmetric,
      // equal-mirror-weight) adjacency and emits at most its lexicographic
      // (dist, via) minimum over frontier neighbours — exactly the winner
      // the push multiset's reduce would have settled, with nd = dist(u)+w
      // the same double operation, so the result is bit-identical. The
      // suppressed proposals are strict losers of that very reduce.
      // Relaxation accounting differs by design: push counts take-passing
      // edges, pull counts emitted winners — both schedule-deterministic,
      // but cross-direction comparisons must use distances, not counters.
      const weight_t floor_dist = static_cast<weight_t>(b * udelta);
      auto pull_scan = [&](vid v) -> std::size_t {
        const weight_t dv = dist_of(v);
        if (dv <= floor_dist) return 0;
        const std::size_t deg = g.degree(v);
        weight_t bd = dv;
        vid bu = kNoVertex;
        g.for_arcs(
            v, 0, deg,
            [&](vid ahead) { relaxer.prefetch_frontier_bit(ahead); },
            [&](eid e, vid u) {
              const weight_t w = g.weight(e);
              if (!take(w)) return;
              if (!relaxer.in_frontier(u)) return;
              const weight_t nd = dist_of(u) + w;
              if (nd < bd || (nd == bd && bu != kNoVertex && u < bu)) {
                bd = nd;
                bu = u;
              }
            });
        if (bu != kNoVertex) {
          engine.push_from_worker(bucket_of(bd), SsspProposal{v, bu, bd});
          tally.add(1);
        }
        return deg;
      };
      relaxer.relax(
          team, frontier, g.num_vertices(), g.num_arcs(),
          [&](std::size_t i) { return static_cast<std::size_t>(g.degree(frontier[i])); },
          scan_with([&](std::uint64_t bb, SsspProposal p) { engine.push(bb, p); }),
          scan_with([&](std::uint64_t bb, SsspProposal p) {
            engine.push_from_worker(bb, p);
          }),
          pull_scan);
      if (!g.has_flat_adjacency()) ++ws.counts().compressed;
      const std::uint64_t relaxed = tally.drain();
      r.relaxations += relaxed;
      wd::add_work(relaxed);
    };

    std::uint64_t b;
    while ((b = engine.min_key(team)) != kNoBucket) {
      settled.clear();
      // Packed eligibility for this bucket: exact interval bounds from
      // the integer bucket arithmetic (see bucket_of above).
      const double lo = static_cast<double>(b * udelta);
      const double hi = static_cast<double>((b + 1) * udelta);
      const bool packed = via_packs && packed_interval_fits(lo, hi);
      const std::uint64_t base_bits = packed ? double_order_bits(lo) : 0;
      // Light relaxations (w <= delta) may re-enter this bucket; iterate
      // until it is drained.
      while (engine.min_key(team) == b) {
        engine.pop_round(team, props);
        ++r.phases;
        wd::add_round();
        reduce_round(packed, base_bits);
        for (vid v : newly) detail::push_counted(settled, v, ws.scratch_allocs_);
        relax_edges(newly, b, [&](weight_t w) { return w <= delta; });
      }
      // Heavy relaxations (w > delta) go to strictly later buckets; done
      // once per settled vertex.
      std::sort(settled.begin(), settled.end());
      settled.erase(std::unique(settled.begin(), settled.end()), settled.end());
      final_in_b.clear();
      for (vid v : settled) {
        if (bucket_of(dist_of(v)) == b) {
          detail::push_counted(final_in_b, v, ws.scratch_allocs_);
        }
      }
      relax_edges(final_in_b, b, [&](weight_t w) { return w > delta; });
    }
  });
  settled.clear();
  final_in_b.clear();

  // Copy the settled state out through the touched list (the workspace
  // keeps its buffers and the dist-infinity invariant machinery intact).
  const std::vector<vid>& touched = ws.touched_;
  parallel_for_grain(0, touched.size(), 512, [&](std::size_t i) {
    const vid v = touched[i];
    r.dist[v] = dist_of(v);
    r.parent[v] = parent[v];
  });
  return r;
}

}  // namespace parsh
