// EST-SCALE — thread-scaling sweep for the EST-clustering round engine.
//
// The tentpole claim of the bucketed-frontier rewrite is that est_cluster's
// per-round work (priority writes, winner settlement, frontier expansion,
// staging compaction) parallelizes. This bench runs est_cluster over a
// thread sweep on RMAT / grid / road workloads, reports wall time and the
// PRAM counters, and appends every row to BENCH_est_cluster.json so the
// perf trajectory across PRs is trackable. The sequential super-source
// Dijkstra oracle is timed alongside as the no-engine reference point.
//
// The default sweep is sized so rounds actually run across the team
// (>= 200k vertices, >= 1M edges on rmat): small graphs drain almost
// entirely through inline rounds, which run on the driver alone, and
// measure nothing but their overhead. `--scale` shrinks/grows the whole
// sweep (CI smoke runs use --scale 0.025); each row also records the
// per-round frontier-edge histogram (p50/p90/max), the driver-alone/team
// round split (sequential_rounds/team_rounds) and the push/pull direction
// split, so the inline cut and the direction thresholds stay tunable from
// recorded data. First-thread
// rows add push_seconds — the same workload with a push RoundPolicy,
// timed against an equally warm workspace — so the direction
// heuristic's 1-thread win is a recorded metric, not a claim.
//
//   ./bench_est_cluster_scaling --scale 1 --threads 1,2,4,8 --reps 3
#include "bench_common.hpp"

#include <algorithm>
#include <sstream>

namespace {

/// Percentile of a sorted vector (nearest-rank); 0 for empty input.
std::size_t percentile(const std::vector<std::size_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  const auto rank = static_cast<std::size_t>(p * static_cast<double>(sorted.size() - 1));
  return sorted[rank];
}

}  // namespace

int main(int argc, char** argv) {
  using namespace parsh;
  using namespace parsh::bench;
  Cli cli(argc, argv);
  const double scale = cli.get_double("scale", 1.0);
  // ~1.2M edges on rmat at scale 1; --n overrides the scaled default.
  const vid n = static_cast<vid>(cli.get_int("n", scaled_n(200000, scale)));
  const std::uint64_t seed = cli.get_seed("seed", 1);
  const int reps = static_cast<int>(cli.get_int("reps", 3));
  const double beta = cli.get_double("beta", 0.4);
  // --graph <file> replaces the generated sweep with one on-disk graph
  // (.pcsr / .gr / edge list; see load_graph_file).
  const std::string graph_path = cli.get("graph", "");

  std::vector<int> threads;
  {
    std::stringstream ss(cli.get("threads", "1,2,4,8"));
    for (std::string tok; std::getline(ss, tok, ',');) {
      try {
        const int t = std::stoi(tok);
        if (t < 1) throw std::invalid_argument(tok);
        threads.push_back(t);
      } catch (const std::exception&) {
        std::fprintf(stderr, "bad --threads entry '%s' (want positive ints, e.g. 1,2,4)\n",
                     tok.c_str());
        return 2;
      }
    }
    if (threads.empty()) threads.push_back(1);
  }

  JsonReport report("est_cluster");
  Table table({"workload", "n", "m", "threads", "time(s)", "push(s)", "speedup",
               "oracle(s)", "work", "rounds", "seq/team", "pull-r/edges",
               "fe-p50/p90/max", "clusters"});
  // "hub" and "rmat-heavy" are the skewed frontiers the degree-aware
  // work-stealing rounds target: without edge-range splitting their hub
  // expansions serialize behind one worker.
  std::vector<std::string> workloads = {"rmat", "grid", "road", "rmat-heavy", "hub"};
  if (!graph_path.empty()) workloads = {graph_path};
  for (const std::string& wl : workloads) {
    const Graph g = graph_path.empty() ? workload(wl, n, seed)
                                       : load_graph_file(graph_path);
    print_header("EST-SCALE: est_cluster thread scaling", g, wl.c_str());
    // Sequential reference point: the super-source Dijkstra oracle. It
    // indexes arcs directly (target()/weight()), which needs flat
    // adjacency, so a compressed input gets a one-time flat twin here;
    // the timed engine runs below keep decoding the compressed graph.
    const Graph oracle_g = g.has_flat_adjacency() ? g : g.decompress_adjacency();
    double oracle_s = 1e300;
    for (int r = 0; r < reps; ++r) {
      oracle_s =
          std::min(oracle_s, timed([&] { est_cluster_reference(oracle_g, beta, seed); }).seconds);
    }
    // One untimed instrumented run per workload: the per-round
    // frontier-edge histogram and the sequential/team round split are
    // deterministic in the input and thread-count-invariant, so a single
    // measurement outside the timing sweep covers every row.
    EstClusterWorkspace ws;
    std::vector<std::size_t> round_edges;
    ws.record_round_edges(&round_edges);
    est_cluster(g, beta, seed, ws);
    ws.record_round_edges(nullptr);
    // Push-pinned companion workspace, warmed the same way: both timing
    // loops below run against warm workspaces, so the organic-vs-push gap
    // measures the direction heuristic, not allocation noise.
    EstClusterWorkspace push_ws;
    push_ws.set_round_policy({.direction = RoundPolicy::Direction::kPush});
    est_cluster(g, beta, seed, push_ws);
    std::sort(round_edges.begin(), round_edges.end());
    const std::size_t fe_p50 = percentile(round_edges, 0.50);
    const std::size_t fe_p90 = percentile(round_edges, 0.90);
    const std::size_t fe_max = round_edges.empty() ? 0 : round_edges.back();
    char seq_team[48];
    std::snprintf(seq_team, sizeof(seq_team), "%llu/%llu",
                  static_cast<unsigned long long>(ws.sequential_rounds()),
                  static_cast<unsigned long long>(ws.team_rounds()));
    char fe_hist[64];
    std::snprintf(fe_hist, sizeof(fe_hist), "%zu/%zu/%zu", fe_p50, fe_p90, fe_max);
    // Direction split of the instrumented run: the hysteresis decisions
    // read only round totals and m, so these are thread-count-invariant
    // like the histogram above.
    const std::uint64_t pull_rounds = ws.pull_rounds();
    const std::uint64_t pull_edges = ws.pull_edges_scanned();
    char pull_split[48];
    std::snprintf(pull_split, sizeof(pull_split), "%llu/%llu",
                  static_cast<unsigned long long>(pull_rounds),
                  static_cast<unsigned long long>(pull_edges));
    double t1 = 0;  // 1-thread engine time, denominator of the speedup column
    for (int t : threads) {
      set_num_workers(t);
      Clustering c;
      Run best;
      best.seconds = 1e300;
      for (int r = 0; r < reps; ++r) {
        const Run run = timed([&] { c = est_cluster(g, beta, seed, ws); });
        if (run.seconds < best.seconds) best = run;
      }
      if (t == threads.front()) t1 = best.seconds;
      // On the first (1-thread) row, also time the push-pinned workspace:
      // the organic-vs-push gap is the direction heuristic's measured win,
      // independent of thread count (the pull scan's edge savings are
      // per-worker, not a parallelism effect).
      double push_s = 0;
      if (t == threads.front()) {
        push_s = 1e300;
        for (int r = 0; r < reps; ++r) {
          push_s = std::min(
              push_s, timed([&] { est_cluster(g, beta, seed, push_ws); }).seconds);
        }
      }
      table.row()
          .cell(wl)
          .cell(static_cast<std::size_t>(g.num_vertices()))
          .cell(static_cast<std::size_t>(g.num_edges()))
          .cell(t)
          .cell(best.seconds, 4)
          .cell(push_s, 4)
          .cell(t1 / best.seconds, 2)
          .cell(oracle_s, 4)
          .cell(best.counters.work)
          .cell(best.counters.rounds)
          .cell(seq_team)
          .cell(pull_split)
          .cell(fe_hist)
          .cell(static_cast<std::size_t>(c.num_clusters));
      auto& json_row = report.row()
          .field("bench", "est_cluster_scaling")
          .field("workload", wl)
          .field("n", static_cast<std::uint64_t>(g.num_vertices()))
          .field("m", static_cast<std::uint64_t>(g.num_edges()))
          .field("threads", t)
          .field("beta", beta)
          .field("scale", scale)
          .field("seconds", best.seconds)
          .field("speedup_vs_1t", t1 / best.seconds)
          .field("oracle_seconds", oracle_s)
          .field("work", best.counters.work)
          .field("rounds", best.counters.rounds)
          .field("sequential_rounds", ws.sequential_rounds())
          .field("team_rounds", ws.team_rounds())
          .field("pull_rounds", pull_rounds)
          .field("pull_edges_scanned", pull_edges)
          .field("frontier_edges_p50", static_cast<std::uint64_t>(fe_p50))
          .field("frontier_edges_p90", static_cast<std::uint64_t>(fe_p90))
          .field("frontier_edges_max", static_cast<std::uint64_t>(fe_max))
          .field("clusters", static_cast<std::uint64_t>(c.num_clusters));
      // Only first-thread rows carry the push-pinned reference time;
      // diff_bench.py tolerates the field's absence elsewhere.
      if (t == threads.front()) json_row.field("push_seconds", push_s);
    }
  }
  table.print();
  const std::string path = report.save();
  if (path.empty()) return 1;
  std::printf("\nwrote %s\n", path.c_str());
  return 0;
}
