// Round-scheduling state shared by the frontier workspaces.
//
// EstClusterWorkspace and SsspWorkspace drive the same kind of loop: one
// synchronous round at a time, each round's min-reduce on the sequential
// fast path or the persistent team (parallel/team.hpp), each expansion
// through a FrontierRelaxer. RoundScheduler owns what those loops share:
// the relaxer (which holds the RoundPolicy), and the per-round counters
// the equivalence tests and benches read. Both workspaces derive from it,
// so the policy setter and every counter getter exist once. Its public
// surface is exactly those; the relaxer and the counters themselves are
// protected, reachable only from the drivers each workspace befriends.
//
// The counters are cumulative across runs and deterministic in (inputs,
// policy): every decision they record depends on round contents only,
// never on the thread count or schedule.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "parallel/bucket_engine.hpp"

namespace parsh {

/// The per-round counters a drain loop bumps. Only RoundScheduler holds
/// one, behind its protected counts(); the drivers hand it to their
/// (non-friend) round helpers by reference.
struct RoundCounts {
  std::uint64_t sequential = 0;  // rounds on the sequential fast path
  std::uint64_t team = 0;        // rounds through the team stages
  std::uint64_t compressed = 0;  // rounds decoded from compressed adjacency

  /// One round (an est_cluster reduce, or a Bellman-Ford relax round).
  void add_round(bool on_sequential) { ++(on_sequential ? sequential : team); }
};

class RoundScheduler {
 public:
  /// The scheduling policy for every later run (RoundPolicy{} is the
  /// production schedule, with PARSH_FORCE_PULL seeding its direction).
  void set_round_policy(const RoundPolicy& policy) { relaxer_.set_policy(policy); }

  /// Rounds run entirely on one worker via the sequential fast path /
  /// through the team stages. The Dial search of weighted BFS is
  /// sequential per search and counts toward neither.
  [[nodiscard]] std::uint64_t sequential_rounds() const { return counts_.sequential; }
  [[nodiscard]] std::uint64_t team_rounds() const { return counts_.team; }
  /// Rounds whose adjacency was decoded from the delta-varint compressed
  /// representation (zero on flat graphs): the observable for the
  /// compressed-vs-flat equivalence tests — outputs are bit-identical,
  /// this counter proves the compressed decode actually ran.
  [[nodiscard]] std::uint64_t compressed_rounds() const { return counts_.compressed; }
  /// Expansions scheduled as stolen edge ranges / whole vertices / pull
  /// (bitmap) rounds, and the edges the pull candidate scans examined.
  [[nodiscard]] std::uint64_t edge_grain_rounds() const {
    return relaxer_.edge_grain_rounds();
  }
  [[nodiscard]] std::uint64_t vertex_grain_rounds() const {
    return relaxer_.vertex_grain_rounds();
  }
  [[nodiscard]] std::uint64_t pull_rounds() const { return relaxer_.pull_rounds(); }
  [[nodiscard]] std::uint64_t pull_edges_scanned() const {
    return relaxer_.pull_edges_scanned();
  }
  /// Heap-allocation events in the relaxer's prefix-sum scratch (warm
  /// runs on frontiers no larger than already seen add none).
  [[nodiscard]] std::uint64_t relax_alloc_events() const { return relaxer_.alloc_events(); }

  /// Bench hook: while `sink` is non-null, every expansion records its
  /// round's frontier edge total (see FrontierRelaxer::record_round_edges).
  void record_round_edges(std::vector<std::size_t>* sink) {
    relaxer_.record_round_edges(sink);
  }

 protected:
  // Driver side: the drain loops in cluster/ and sssp/, which are friends
  // of the deriving workspaces.
  [[nodiscard]] FrontierRelaxer& relaxer() { return relaxer_; }
  [[nodiscard]] RoundCounts& counts() { return counts_; }

 private:
  FrontierRelaxer relaxer_;
  RoundCounts counts_;
};

}  // namespace parsh
