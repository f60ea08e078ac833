// Randomized differential harness for the dynamic (epoch-swapped)
// serving layer, pinning its central claim: an incrementally maintained
// engine is indistinguishable from one rebuilt from scratch.
//
// The harness maintains three views of the same evolving graph:
//   * an edge-map oracle (std::map, the delta semantics written longhand),
//   * an organic DynamicApproxShortestPaths (incremental rebuilds),
//   * a forced-full twin (every apply rebuilds every scale).
// Each round draws a seed-deterministic delta batch — inserts, removals,
// reweights, duplicates, self loops, removals of absent edges — applies
// it everywhere, and checks (a) the CSR's edge list equals the oracle
// exactly, (b) organic and forced-full answer sampled queries
// bit-identically (estimate, rounds, relaxations, scale), and
// periodically (c) a from-scratch ApproxShortestPaths over the current
// graph agrees too. The whole run is hashed into a digest and repeated at
// 1 and 4 worker threads: equal digests pin thread-count determinism of
// the rebuild path end to end.
//
// Every round is wrapped in SCOPED_TRACE carrying (topology, seed,
// round), so a failure message is a replayable repro recipe on its own.
//
// The *Swap*/*Lifetime* tests are intentionally small and named for the
// TSan lane filter (.github/workflows/ci.yml): the full 200-round harness
// is a release-build job, the concurrency and snapshot-lifetime shapes
// race-check under TSan.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "graph/delta.hpp"
#include "graph/generators.hpp"
#include "graph/pcsr.hpp"
#include "parallel/parallel_for.hpp"
#include "random/rng.hpp"
#include "sssp/dynamic_approx.hpp"
#include "thread_scope.hpp"

namespace parsh {
namespace {

DynamicApproxShortestPaths::Params harness_params() {
  DynamicApproxShortestPaths::Params p;
  p.epsilon = 0.25;
  p.hopset.k_hops = 12;  // small hop budget keeps a rebuild ~1ms at n=100
  return p;
}

// ---- the oracle: delta semantics written longhand ---------------------------

using EdgeMap = std::map<std::pair<vid, vid>, weight_t>;

std::pair<vid, vid> canon(vid u, vid v) {
  return u < v ? std::pair(u, v) : std::pair(v, u);
}

/// Mirror the documented apply_delta semantics on a plain map: removals
/// before inserts, duplicate inserts keep the minimum weight, self loops
/// and absent removals are no-ops.
void oracle_apply(EdgeMap& edges, const GraphDelta& d) {
  for (const Edge& e : d.remove) {
    if (e.u == e.v) continue;
    edges.erase(canon(e.u, e.v));
  }
  EdgeMap pending;
  for (const Edge& e : d.insert) {
    if (e.u == e.v) continue;
    const auto key = canon(e.u, e.v);
    const auto it = pending.find(key);
    if (it == pending.end() || e.w < it->second) pending[key] = e.w;
  }
  for (const auto& [key, w] : pending) edges[key] = w;
}

EdgeMap edge_map_of(const Graph& g) {
  EdgeMap out;
  for (const Edge& e : g.undirected_edges()) out[canon(e.u, e.v)] = e.w;
  return out;
}

// ---- seed-deterministic batch generation ------------------------------------

/// One round's delta: a mix of inserts (fresh pairs, existing pairs at a
/// new weight, restated weights, in-batch duplicates), removals (present
/// and absent), and the odd self loop. Deterministic in (rng, round).
GraphDelta random_delta(const Rng& rng, std::uint64_t round, vid n,
                        const EdgeMap& current) {
  const Rng r = rng.split(round);
  GraphDelta d;
  std::vector<std::pair<vid, vid>> present(current.size());
  std::size_t i = 0;
  for (const auto& [key, w] : current) present[i++] = key;

  const std::uint64_t ops = 4 + r.uniform_int(0, 8);
  for (std::uint64_t k = 0; k < ops; ++k) {
    const std::uint64_t kind = r.uniform_int(10 * k + 1, 100);
    const vid u = static_cast<vid>(r.uniform_int(10 * k + 2, n));
    const vid v = static_cast<vid>(r.uniform_int(10 * k + 3, n));
    const auto w = static_cast<weight_t>(1 + r.uniform_int(10 * k + 4, 9));
    if (kind < 45) {
      d.insert.push_back({u, v, w});  // fresh insert / reweight / self loop
    } else if (kind < 55 && !present.empty()) {
      // Reweight (or restate) a currently-present edge.
      const auto [a, b] = present[r.uniform_int(10 * k + 5, present.size())];
      d.insert.push_back({a, b, w});
    } else if (kind < 60) {
      d.insert.push_back({u, v, w});
      d.insert.push_back({u, v, static_cast<weight_t>(1 + (w > 4 ? w - 3 : w))});
    } else if (kind < 90 && !present.empty()) {
      const auto [a, b] = present[r.uniform_int(10 * k + 6, present.size())];
      d.remove.push_back({a, b, 1});
    } else {
      d.remove.push_back({u, v, 1});  // probably absent
    }
  }
  return d;
}

// ---- the differential harness -----------------------------------------------

void hash_mix(std::uint64_t& h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
}

std::uint64_t bits_of(double d) {
  std::uint64_t out;
  static_assert(sizeof(out) == sizeof(d));
  std::memcpy(&out, &d, sizeof(out));
  return out;
}

struct HarnessOutcome {
  std::uint64_t digest = 0;
  bool saw_partial_rebuild = false;  ///< some organic apply left scales clean
  bool saw_partial_clusters = false;  ///< dirty_clusters < total_clusters once
  std::uint64_t rounds_run = 0;
};

/// Run `rounds` rounds of the differential harness over `start`. Every
/// check fires inside; out->digest folds in every sampled answer so two
/// runs can be compared bit-for-bit across thread counts. (Out-param
/// because ASSERT_* needs a void-returning function.)
void run_harness(const char* topology, const Graph& start, std::uint64_t seed,
                 std::uint64_t rounds, HarnessOutcome* result) {
  const Rng rng = Rng(seed).split(0xd1f);
  const vid n = start.num_vertices();
  DynamicApproxShortestPaths organic(start, harness_params());
  DynamicApproxShortestPaths forced(start, harness_params());
  forced.set_force_full_rebuild(true);
  EdgeMap oracle = edge_map_of(start);

  HarnessOutcome& out = *result;
  out = HarnessOutcome{};
  SsspWorkspace ws_a, ws_b, ws_c;
  for (std::uint64_t round = 0; round < rounds; ++round) {
    SCOPED_TRACE(std::string("topology=") + topology + " seed=" +
                 std::to_string(seed) + " round=" + std::to_string(round) +
                 " (replay: run_harness(\"" + topology + "\", g, seed, round+1))");
    const GraphDelta d = random_delta(rng, round, n, oracle);
    oracle_apply(oracle, d);
    const auto ra = organic.apply(d);
    const auto rb = forced.apply(d);

    // Delta bookkeeping is identical on both paths…
    ASSERT_EQ(ra.epoch, rb.epoch);
    ASSERT_EQ(ra.inserted, rb.inserted);
    ASSERT_EQ(ra.removed, rb.removed);
    ASSERT_EQ(ra.reweighted, rb.reweighted);
    ASSERT_EQ(ra.noops, rb.noops);
    // …and the forced twin really did rebuild everything.
    ASSERT_TRUE(rb.hopset.full_rebuild);
    ASSERT_EQ(rb.hopset.dirty_scales, rb.hopset.total_scales);
    if (!ra.hopset.full_rebuild) {
      if (ra.hopset.dirty_scales < ra.hopset.total_scales) {
        out.saw_partial_rebuild = true;
      }
      if (ra.hopset.dirty_clusters < ra.hopset.total_clusters) {
        out.saw_partial_clusters = true;
      }
    }

    const auto snap_a = organic.snapshot();
    const auto snap_b = forced.snapshot();

    // (a) The CSR agrees with the longhand oracle, edge for edge.
    ASSERT_EQ(edge_map_of(snap_a->graph), oracle);
    ASSERT_EQ(edge_map_of(snap_b->graph), oracle);

    // (b) Organic and forced-full engines answer bit-identically.
    const Rng qr = rng.split(0x51u + round);
    for (int q = 0; q < 6; ++q) {
      const vid s = static_cast<vid>(qr.uniform_int(2 * q, n));
      const vid t = static_cast<vid>(qr.uniform_int(2 * q + 1, n));
      const auto qa = snap_a->engine.query(s, t, ws_a);
      const auto qb = snap_b->engine.query(s, t, ws_b);
      ASSERT_EQ(bits_of(qa.estimate), bits_of(qb.estimate)) << s << "->" << t;
      ASSERT_EQ(qa.rounds, qb.rounds);
      ASSERT_EQ(qa.relaxations, qb.relaxations);
      ASSERT_EQ(qa.scale_used, qb.scale_used);
      hash_mix(out.digest, bits_of(qa.estimate));
      hash_mix(out.digest, qa.rounds);
      hash_mix(out.digest, qa.relaxations);
      hash_mix(out.digest, qa.scale_used);
    }

    // (c) Periodically, a from-scratch engine over the current graph
    // agrees with the incrementally maintained one.
    if ((round + 1) % 50 == 0) {
      const ApproxShortestPaths fresh(snap_a->graph, organic.params());
      for (int q = 0; q < 4; ++q) {
        const vid s = static_cast<vid>(qr.uniform_int(100 + 2 * q, n));
        const vid t = static_cast<vid>(qr.uniform_int(101 + 2 * q, n));
        const auto qa = snap_a->engine.query(s, t, ws_a);
        const auto qf = fresh.query(s, t, ws_c);
        ASSERT_EQ(bits_of(qa.estimate), bits_of(qf.estimate)) << s << "->" << t;
        ASSERT_EQ(qa.rounds, qf.rounds);
        ASSERT_EQ(qa.relaxations, qf.relaxations);
      }
    }
    ++out.rounds_run;
  }
}

struct Topology {
  const char* name;
  Graph (*make)(std::uint64_t seed);
};

Graph make_rmat_topology(std::uint64_t seed) {
  return with_uniform_weights(ensure_connected(make_rmat_heavy(100, 300, seed)), 1,
                              9, seed + 17);
}
Graph make_hub_topology(std::uint64_t seed) {
  return with_uniform_weights(make_hubs(100, 3, seed), 1, 9, seed + 17);
}
Graph make_grid_topology(std::uint64_t seed) {
  return with_uniform_weights(make_grid(10, 10), 1, 9, seed + 17);
}

class DynamicDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DynamicDifferential, TwoHundredRoundsPerTopologyAcrossThreadCounts) {
  constexpr std::uint64_t kRounds = 200;
  const Topology topologies[] = {{"rmat", make_rmat_topology},
                                 {"hub", make_hub_topology},
                                 {"grid", make_grid_topology}};
  const std::uint64_t seed = GetParam();
  for (const Topology& topo : topologies) {
    const Graph g = topo.make(seed);
    HarnessOutcome one, many;
    at_threads(1, [&] {
      run_harness(topo.name, g, seed, kRounds, &one);
      return 0;
    });
    ASSERT_EQ(one.rounds_run, kRounds) << topo.name;
    at_threads(4, [&] {
      run_harness(topo.name, g, seed, kRounds, &many);
      return 0;
    });
    ASSERT_EQ(many.rounds_run, kRounds) << topo.name;
    // The digest folds in every sampled answer of every round: equality
    // means the whole 200-round history is bit-identical across thread
    // counts.
    EXPECT_EQ(one.digest, many.digest) << topo.name << " seed " << seed;
    // The incremental path genuinely skipped work somewhere — otherwise
    // this harness only proves full rebuilds agree with full rebuilds.
    EXPECT_TRUE(one.saw_partial_rebuild) << topo.name;
    EXPECT_TRUE(one.saw_partial_clusters) << topo.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DynamicDifferential,
                         ::testing::Values<std::uint64_t>(1, 2));

// ---- focused shapes (also the TSan targets) ---------------------------------

TEST(DynamicSwap, RejectedBatchLeavesNoTrace) {
  const Graph g = make_grid_topology(3);
  DynamicApproxShortestPaths dyn(g, harness_params());
  SsspWorkspace ws;
  const auto before = dyn.snapshot()->engine.query(0, 99, ws);

  GraphDelta bad;
  bad.insert.push_back({0, 5, 2.0});
  bad.insert.push_back({1, 100, 1.0});  // endpoint out of range
  EXPECT_THROW((void)dyn.apply(bad), std::invalid_argument);
  EXPECT_EQ(dyn.epoch(), 0u);
  EXPECT_EQ(dyn.updates_started(), 0u);
  const auto snap = dyn.snapshot();
  EXPECT_EQ(snap->epoch, 0u);
  const auto after = snap->engine.query(0, 99, ws);
  EXPECT_EQ(bits_of(before.estimate), bits_of(after.estimate));

  GraphDelta nonpos;
  nonpos.insert.push_back({0, 5, 0.0});
  EXPECT_THROW((void)dyn.apply(nonpos), std::invalid_argument);
  EXPECT_EQ(dyn.epoch(), 0u);
}

TEST(DynamicSwap, HookFiresAfterBuildBeforePublish) {
  const Graph g = make_grid_topology(4);
  DynamicApproxShortestPaths dyn(g, harness_params());
  std::uint64_t hook_fired = 0;
  dyn.set_swap_hook([&] {
    ++hook_fired;
    // The new snapshot exists but is not yet published: readers still see
    // the previous epoch, and a started update is already counted.
    EXPECT_EQ(dyn.epoch(), hook_fired - 1);
    EXPECT_EQ(dyn.updates_started(), hook_fired);
    EXPECT_TRUE(dyn.rebuild_in_progress());
    EXPECT_EQ(dyn.snapshot()->epoch, hook_fired - 1);
  });
  GraphDelta d;
  d.insert.push_back({0, 57, 2.0});
  (void)dyn.apply(d);
  d.insert[0].w = 3.0;
  (void)dyn.apply(d);
  EXPECT_EQ(hook_fired, 2u);
  EXPECT_EQ(dyn.epoch(), 2u);
  EXPECT_FALSE(dyn.rebuild_in_progress());
}

TEST(DynamicSwap, ConcurrentQueriesAcrossSwapsAreSelfConsistent) {
  // Readers hammer snapshot() + query while the writer applies a stream
  // of updates. Each reader checks its answers are internally consistent
  // with the snapshot it pinned (same epoch before and after the query,
  // on the pointer it holds). This is the TSan shape for the swap: the
  // mutex-guarded shared_ptr publish is the only synchronization.
  const Graph g = make_grid_topology(5);
  DynamicApproxShortestPaths dyn(g, harness_params());
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> queries_done{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      SsspWorkspace ws;
      const Rng rng = Rng(900 + r);
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto snap = dyn.snapshot();
        const std::uint64_t epoch_before = snap->epoch;
        const vid s = static_cast<vid>(rng.uniform_int(2 * i, 100));
        const vid t = static_cast<vid>(rng.uniform_int(2 * i + 1, 100));
        const auto q = snap->engine.query(s, t, ws);
        EXPECT_GE(q.estimate, 0);
        EXPECT_EQ(snap->epoch, epoch_before);  // the pinned snapshot is frozen
        queries_done.fetch_add(1, std::memory_order_relaxed);
        ++i;
      }
    });
  }
  const Rng rng = Rng(901);
  for (std::uint64_t round = 0; round < 12; ++round) {
    GraphDelta d;
    const vid u = static_cast<vid>(rng.uniform_int(2 * round, 100));
    const vid v = static_cast<vid>(rng.uniform_int(2 * round + 1, 100));
    if (u != v) d.insert.push_back({u, v, static_cast<weight_t>(1 + round % 7)});
    d.remove.push_back({static_cast<vid>(round % 100),
                        static_cast<vid>((round * 37) % 100), 1});
    (void)dyn.apply(d);
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_EQ(dyn.epoch(), 12u);
  EXPECT_GT(queries_done.load(), 0u);
}

TEST(DynamicSwap, StalenessAccounting) {
  const Graph g = make_grid_topology(6);
  DynamicApproxShortestPaths dyn(g, harness_params());
  EXPECT_FALSE(dyn.note_batch_served(0));  // nothing newer exists
  GraphDelta d;
  d.insert.push_back({0, 31, 2.0});
  (void)dyn.apply(d);
  EXPECT_TRUE(dyn.note_batch_served(0));   // served pre-update epoch: stale
  EXPECT_FALSE(dyn.note_batch_served(1));  // current epoch: fresh
  EXPECT_EQ(dyn.batches_served(), 3u);
  EXPECT_EQ(dyn.stale_batches(), 1u);
}

TEST(DynamicLifetime, SnapshotOutlivesSwapAndUnlink) {
  // The snapshot-lifetime rule, end to end on mmap-backed storage: load a
  // .pcsr, serve from it, unlink the file, swap epochs twice — a snapshot
  // pinned before all of that must keep answering, because its Graph's
  // storage handles keep the mapping alive. (This is the latent hazard
  // the server's one-snapshot-per-batch rule exists for.)
  const std::string path = std::string(::testing::TempDir()) + "parsh_dyn_unlink.pcsr";
  const Graph g0 = make_rmat_topology(7);
  write_pcsr_file(path, g0);
  const Graph mapped = load_pcsr_file(path);  // ArrayHandle views of the mapping

  DynamicApproxShortestPaths dyn(mapped, harness_params());
  SsspWorkspace ws;
  const auto pinned = dyn.snapshot();
  const auto before = pinned->engine.query(0, 77, ws);

  ASSERT_EQ(std::remove(path.c_str()), 0);  // unlink while mapped
  GraphDelta d;
  d.insert.push_back({0, 42, 1.0});
  (void)dyn.apply(d);
  d.remove.push_back({0, 42, 1.0});
  d.insert.clear();
  (void)dyn.apply(d);
  EXPECT_EQ(dyn.epoch(), 2u);

  // The old snapshot still reads through the unlinked mapping.
  const auto after = pinned->engine.query(0, 77, ws);
  EXPECT_EQ(bits_of(before.estimate), bits_of(after.estimate));
  EXPECT_EQ(before.rounds, after.rounds);
  ASSERT_EQ(edge_map_of(pinned->graph), edge_map_of(g0));

  // And the current epoch answers the round-tripped graph (a remove of
  // the inserted edge restores the start state, but on fresh storage).
  ASSERT_EQ(edge_map_of(dyn.snapshot()->graph), edge_map_of(g0));
}

TEST(DynamicLifetime, CompressedGraphsStayCompressedAcrossEpochs) {
  const Graph flat = make_rmat_topology(8);
  DynamicApproxShortestPaths dyn(flat.compress_adjacency(), harness_params());
  ASSERT_TRUE(dyn.snapshot()->graph.compressed());
  GraphDelta d;
  d.insert.push_back({1, 60, 2.0});
  (void)dyn.apply(d);
  EXPECT_TRUE(dyn.snapshot()->graph.compressed());

  // Flat and compressed serving answer bit-identically, before and after.
  DynamicApproxShortestPaths dyn_flat(flat, harness_params());
  (void)dyn_flat.apply(d);
  SsspWorkspace wa, wb;
  for (const auto& [s, t] : std::vector<std::pair<vid, vid>>{{0, 9}, {3, 88}}) {
    const auto qa = dyn.snapshot()->engine.query(s, t, wa);
    const auto qb = dyn_flat.snapshot()->engine.query(s, t, wb);
    EXPECT_EQ(bits_of(qa.estimate), bits_of(qb.estimate)) << s << "->" << t;
    EXPECT_EQ(qa.rounds, qb.rounds);
    EXPECT_EQ(qa.relaxations, qb.relaxations);
  }
}

}  // namespace
}  // namespace parsh
