// Bucketed parallel frontier engine: a delta-stepping-style circular
// calendar over integer keys.
//
// Every round-synchronous algorithm in this library shares one control
// shape: items carry an integer "time" key, the least pending key is
// processed as one synchronous round, and the round's expansion emits items
// into the same or strictly later keys. EST clustering (proposals keyed by
// floor(start + dist)), level-synchronous BFS (levels) and the Dial search
// of weighted BFS are all instances.
// This engine owns that shape once so the consumers stay thin:
//
//  * a circular calendar of `span` open buckets (key modulo span), plus an
//    ordered overflow store for keys beyond the window — memory stays
//    proportional to the items pending, not to the key range, which matters
//    after Klein-Subramanian weight rounding blows up the range;
//  * per-worker staging buffers so expansions running under parallel_for
//    emit with plain push_backs instead of locks (push_from_worker); the
//    buffers are compacted into the calendar with an exclusive-scan concat
//    at round boundaries (flush), never a serial per-item append race;
//  * one pop_round == one synchronous round, counted for the work/depth
//    instrumentation story; flush/min_key/pop_round take an optional
//    TeamLike so their internal parallel move runs as a stage of the
//    caller's persistent team (parallel/team.hpp) instead of a fork-join;
//  * a degree-aware FrontierRelaxer that schedules one round's edge
//    relaxations adaptively: bounded EDGE ranges dynamically claimed by
//    the team's workers (a skewed frontier — one hub vertex carrying most
//    of the round's edges — still spreads across all workers), a
//    whole-vertex stage for mid-size rounds, and a sequential fast path
//    (one worker, plain writes, direct pushes) below
//    kSequentialRoundEdges.
//
// Keys must never fall behind the engine's current base (the key of the
// last popped round): all consumers emit at key + w with w >= 0.
//
// Reuse / allocation guarantees (the contract the workspace layers build
// on; see docs/ARCHITECTURE.md):
//  * reset() empties the engine but releases NO buffer capacity — calendar
//    slots keep their per-slot high-water capacity, staging buffers and
//    the merge scratch keep theirs, and the relaxer keeps its prefix-sum
//    scratch. A warm run whose per-bucket demand nowhere exceeds a
//    previous run's performs zero heap allocations inside the engine.
//  * alloc_events() counts every heap allocation the engine ever makes
//    (staging/slot/merge growth, overflow-store node inserts), cumulative
//    across reset(). "Warm reuse" is exactly "this counter stopped
//    moving" — the property the *Warm* tests pin on 1M-edge RMAT graphs.
//  * The only per-run allocations that survive warm reuse are overflow
//    map nodes, for runs whose key spread exceeds the calendar span.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <utility>
#include <vector>

#include "parallel/parallel_for.hpp"
#include "parallel/primitives.hpp"
#include "util/types.hpp"

namespace parsh {

/// Sentinel returned by min_key / pop_round when the engine is drained.
inline constexpr std::uint64_t kNoBucket = ~std::uint64_t{0};

namespace detail {

/// Index of the first frontier vertex whose edge range intersects the
/// chunk starting at global edge offset `e0`, given the exclusive degree
/// prefix sums `prefix` (size `frontier + 1`). Requires e0 < prefix.back().
std::size_t chunk_first_vertex(const std::vector<std::size_t>& prefix,
                               std::size_t frontier, std::size_t e0);

/// Occupancy bookkeeping for the circular calendar window: which slot each
/// in-window key maps to, how many items each slot holds, and where the
/// least nonempty slot lives. Non-template (items live in BucketEngine) so
/// the cursor/rebase logic compiles once and is unit-testable on its own.
class CalendarIndex {
 public:
  explicit CalendarIndex(std::size_t span);

  [[nodiscard]] std::size_t span() const { return counts_.size(); }
  [[nodiscard]] std::uint64_t base_key() const { return base_; }
  [[nodiscard]] bool window_empty() const { return in_window_items_ == 0; }

  /// True iff `key` lands in the open window [base, base + span).
  [[nodiscard]] bool in_window(std::uint64_t key) const {
    return key >= base_ && key - base_ < span();
  }

  /// Calendar slot of an in-window key.
  [[nodiscard]] std::size_t slot_of(std::uint64_t key) const {
    assert(in_window(key));
    return (cursor_ + static_cast<std::size_t>(key - base_)) % span();
  }

  /// Record `count` items placed in `key`'s slot (key must be in window).
  void note_push(std::uint64_t key, std::size_t count = 1);

  /// Key of the least nonempty in-window bucket, or kNoBucket if the
  /// window is empty. Not const: maintains the rotating next-nonempty
  /// hint, so repeated calls resume where the previous scan stopped
  /// instead of rescanning all `span` slots from the cursor every round.
  [[nodiscard]] std::uint64_t min_in_window();

  /// Empty `key`'s slot and advance the window so `key` becomes the base
  /// (earlier, empty slots rotate to the far end). Returns the number of
  /// items that were pending in the slot.
  std::size_t take(std::uint64_t key);

  /// Rotate an empty window forward so `key` becomes the base. Used when
  /// the calendar drains and the engine refills it from overflow.
  void rebase(std::uint64_t key);

  /// Return to the initial state (base 0, all slots empty). Used by
  /// BucketEngine::reset() so one engine serves many runs.
  void reset();

 private:
  std::uint64_t base_ = 0;           // key of the slot under the cursor
  std::size_t cursor_ = 0;           // slot index of base_
  std::size_t in_window_items_ = 0;  // total items across all slots
  std::vector<std::size_t> counts_;  // items per slot
  std::size_t next_hint_ = 0;        // offsets below this are known empty
};

}  // namespace detail

/// The engine proper. `Item` is the per-frontier payload (a vertex id, an
/// EST proposal, ...); it must be cheaply movable.
template <typename Item>
class BucketEngine {
 public:
  struct Options {
    /// Open calendar slots. Keys >= base + span overflow into an ordered
    /// side store and migrate into the window when it drains; a span a
    /// little beyond the common edge weight keeps overflow off the hot
    /// path without paying for the full key range.
    std::size_t span = 64;
  };

  explicit BucketEngine(Options opt = {})
      : index_(opt.span),
        calendar_(index_.span()),
        staging_(static_cast<std::size_t>(num_workers())),
        offset_scratch_(staging_.size()) {}

  /// Push from sequential context (seeding, single-threaded consumers).
  void push(std::uint64_t key, Item item) { place_(key, std::move(item)); }

  /// Push from inside a parallel expansion: lands in the calling worker's
  /// staging buffer; visible after the next flush()/min_key()/pop_round().
  void push_from_worker(std::uint64_t key, Item item) {
    std::vector<Staged>& buf = staging_[static_cast<std::size_t>(worker_id())];
    if (buf.size() == buf.capacity()) note_alloc_();
    buf.emplace_back(key, std::move(item));
  }

  /// Empty the engine without releasing any buffer capacity: slots,
  /// staging buffers and merge scratch keep their allocations, the window
  /// returns to base 0. One engine instance can then serve a whole
  /// sequence of runs (the iterated quotient-graph drivers) with warm runs
  /// doing no heap allocation at all — tracked by alloc_events().
  void reset() {
    for (std::vector<Item>& slot : calendar_) slot.clear();
    for (std::vector<Staged>& buf : staging_) buf.clear();
    overflow_.clear();
    index_.reset();
    // The worker count may have been raised (omp_set_num_threads) since
    // construction; push_from_worker indexes staging_ by worker_id(), so
    // grow the per-worker state to match before the next run.
    const auto workers = static_cast<std::size_t>(num_workers());
    if (workers > staging_.size()) {
      staging_.resize(workers);
      offset_scratch_.resize(workers);
    }
  }

  /// Rotate the (empty) window so `key` becomes its first bucket. Call
  /// right after reset() when the consumer knows its keys start near
  /// `key`, so the initial frontier does not straddle the window end.
  void start_at(std::uint64_t key) {
    assert(index_.window_empty() && overflow_.empty() &&
           "start_at requires an empty engine");
    index_.rebase(key);
  }

  /// Heap-allocation events observed so far: staging/slot/merge-scratch
  /// capacity growth and overflow-store inserts. Cumulative across
  /// reset(); warm reuse is exactly "this counter stopped moving".
  [[nodiscard]] std::uint64_t alloc_events() const {
    return alloc_events_.load(std::memory_order_relaxed);
  }


  /// Compact the per-worker staging buffers into the calendar: an
  /// exclusive scan over buffer sizes + parallel move into one contiguous
  /// block, then a single ordered placement pass (no comparisons, no map
  /// lookups for in-window keys). The fork-join form; inside a persistent
  /// team pass the team so the move stage runs across it.
  void flush() {
    flush_moved_([&](std::size_t workers, auto&& move_one) {
      parallel_for_grain(0, workers, 1, move_one);
    });
  }

  /// flush() with the multi-producer move running as one stage of
  /// `team` (a parsh::Team or anything with its loop() signature).
  template <typename TeamLike>
  void flush(TeamLike& team) {
    flush_moved_([&](std::size_t workers, auto&& move_one) {
      team.loop(0, workers, 1, move_one);
    });
  }

  /// Key of the least pending bucket (staged pushes included), or
  /// kNoBucket when the engine is fully drained.
  std::uint64_t min_key() {
    flush();
    return min_key_flushed_();
  }

  /// min_key() with the staging flush staged on `team`.
  template <typename TeamLike>
  std::uint64_t min_key(TeamLike& team) {
    flush(team);
    return min_key_flushed_();
  }

  /// Pop the least pending bucket into `out` (replacing its contents);
  /// returns the bucket's key, or kNoBucket when drained. One pop is one
  /// synchronous round.
  std::uint64_t pop_round(std::vector<Item>& out) {
    flush();
    return pop_flushed_(out);
  }

  /// pop_round() with the staging flush staged on `team`.
  template <typename TeamLike>
  std::uint64_t pop_round(TeamLike& team, std::vector<Item>& out) {
    flush(team);
    return pop_flushed_(out);
  }

  /// Synchronous rounds popped so far.
  [[nodiscard]] std::uint64_t rounds() const { return rounds_; }

  /// Open calendar slots (the configured span).
  [[nodiscard]] std::size_t span() const { return index_.span(); }

  /// Total items ever pushed (staged + placed); a work proxy for benches.
  [[nodiscard]] std::uint64_t pushed() const { return pushed_; }

 private:
  using Staged = std::pair<std::uint64_t, Item>;

  /// The flush body, parameterized over how the multi-producer move loop
  /// is scheduled (fork-join parallel_for_grain vs a persistent-team
  /// stage — same iterations either way).
  template <typename MoveLoop>
  void flush_moved_(MoveLoop&& move_loop) {
    const std::size_t workers = staging_.size();
    std::size_t nonempty = 0;
    std::size_t last = 0;
    std::vector<std::size_t>& offset = offset_scratch_;
    for (std::size_t t = 0; t < workers; ++t) {
      offset[t] = staging_[t].size();
      if (offset[t] != 0) {
        ++nonempty;
        last = t;
      }
    }
    if (nonempty == 0) return;
    if (nonempty == 1) {
      // Single producer (sequential run, or one worker did all the
      // emitting): place straight from its buffer, skipping the concat.
      for (Staged& s : staging_[last]) place_(s.first, std::move(s.second));
      staging_[last].clear();
      return;
    }
    const std::size_t total = exclusive_scan_inplace(offset);
    if (total > merge_scratch_.capacity()) note_alloc_();
    merge_scratch_.resize(total);
    move_loop(workers, [&](std::size_t t) {
      std::size_t at = offset[t];
      for (Staged& s : staging_[t]) merge_scratch_[at++] = std::move(s);
      staging_[t].clear();
    });
    for (Staged& s : merge_scratch_) place_(s.first, std::move(s.second));
    merge_scratch_.clear();
  }

  /// min_key after the staging buffers were flushed.
  std::uint64_t min_key_flushed_() {
    drain_overflow_into_window_();
    // After the drain every overflow key is >= base + span, i.e. beyond
    // any in-window key, so the two stores are consulted in order.
    if (!index_.window_empty()) return index_.min_in_window();
    if (!overflow_.empty()) return overflow_.begin()->first;
    return kNoBucket;
  }

  /// pop_round after the staging buffers were flushed.
  std::uint64_t pop_flushed_(std::vector<Item>& out) {
    const std::uint64_t key = min_key_flushed_();
    if (key == kNoBucket) {
      out.clear();
      return kNoBucket;
    }
    if (!index_.in_window(key)) refill_from_overflow_(key);
    std::vector<Item>& slot = calendar_[index_.slot_of(key)];
    // Move the items, keep the buffer: each slot's capacity stays put as
    // a per-slot high-water mark, so a warm run whose per-bucket demand
    // never exceeds a previous run's reallocates nothing (buffer-stealing
    // would shuffle capacities between slots and regrow them every run).
    if (slot.size() > out.capacity()) note_alloc_();
    out.resize(slot.size());
    std::move(slot.begin(), slot.end(), out.begin());
    slot.clear();
    index_.take(key);
    ++rounds_;
    return key;
  }

  void place_(std::uint64_t key, Item item) {
    ++pushed_;
    if (!index_.in_window(key)) {
      if (key < index_.base_key()) {
        // Consumer contract violation (emitting into the past); clamp so
        // the item is still processed rather than silently lost.
        assert(false && "BucketEngine: key below current base");
        key = index_.base_key();
      } else {
        auto [it, inserted] = overflow_.try_emplace(key);
        if (inserted || it->second.size() == it->second.capacity()) note_alloc_();
        it->second.push_back(std::move(item));
        return;
      }
    }
    std::vector<Item>& slot = calendar_[index_.slot_of(key)];
    if (slot.size() == slot.capacity()) note_alloc_();
    slot.push_back(std::move(item));
    index_.note_push(key);
  }

  /// Items that overflowed an earlier window position fall inside the
  /// window once it advances past their key; fold them into the calendar
  /// so bucket order stays monotone (an overflow key must never be served
  /// after a larger in-window key).
  void drain_overflow_into_window_() {
    auto it = overflow_.begin();
    while (it != overflow_.end() && index_.in_window(it->first)) {
      const std::size_t migrated = it->second.size();
      std::vector<Item>& slot = calendar_[index_.slot_of(it->first)];
      if (slot.capacity() == 0) {
        // Never grown before: adopt the overflow node's buffer outright.
        slot = std::move(it->second);
      } else {
        // Keep the slot's established capacity (it is this slot's demand
        // high-water mark); append instead of replacing the buffer.
        for (Item& x : it->second) {
          if (slot.size() == slot.capacity()) note_alloc_();
          slot.push_back(std::move(x));
        }
      }
      index_.note_push(it->first, migrated);
      it = overflow_.erase(it);
    }
  }

  /// The window drained but overflow has pending keys: rotate the window
  /// to start at the least overflow key and migrate every now-in-window
  /// overflow bucket into the calendar.
  void refill_from_overflow_(std::uint64_t key) {
    index_.rebase(key);
    drain_overflow_into_window_();
  }

  /// Record one heap-allocation event. Staging growth happens inside
  /// parallel expansions, so the counter is a relaxed atomic; events are
  /// rare (amortized growth), so contention is immaterial.
  void note_alloc_() { alloc_events_.fetch_add(1, std::memory_order_relaxed); }

  detail::CalendarIndex index_;
  std::vector<std::vector<Item>> calendar_;  // circular, index_.span() slots
  std::map<std::uint64_t, std::vector<Item>> overflow_;
  std::vector<std::vector<Staged>> staging_;  // one buffer per worker
  std::vector<std::size_t> offset_scratch_;   // flush(): per-worker sizes/offsets
  std::vector<Staged> merge_scratch_;         // flush(): multi-producer concat
  std::uint64_t rounds_ = 0;
  std::uint64_t pushed_ = 0;
  std::atomic<std::uint64_t> alloc_events_{0};
};

/// How the round-synchronous drivers schedule their rounds. The
/// default-constructed policy is the production schedule; every other
/// value exists so the equivalence tests can pin one mechanism against
/// another. Output is bit-identical under every policy (the determinism
/// contract); only the work counters and the schedule move.
struct RoundPolicy {
  /// How a round's (key, via) min-reduce resolves.
  enum class Reduce : std::uint8_t {
    kAuto,        ///< packed 64-bit word when the round's keys fit, else
                  ///< the three-phase reduce
    kThreePhase,  ///< always the three-phase reduce
  };
  /// How a round's work is spread over the team.
  enum class Rounds : std::uint8_t {
    kAdaptive,     ///< sequential fast path at or below
                   ///< FrontierRelaxer::kSequentialRoundEdges items,
                   ///< team stages above
    kAllParallel,  ///< every round through the team stages
    kVertexGrain,  ///< kAllParallel, with every expansion as whole-vertex
                   ///< stages: no stolen edge ranges and no pull
  };
  /// Which way a direction-capable expansion runs.
  enum class Direction : std::uint8_t {
    kAuto,  ///< the edge-fraction hysteresis (FrontierRelaxer)
    kPush,
    kPull,
  };

  Reduce reduce = Reduce::kAuto;
  Rounds rounds = Rounds::kAdaptive;
  Direction direction = env_direction();

  /// The default direction: kPull when PARSH_FORCE_PULL is set to
  /// anything but "" or "0" (CI's pull-forced ctest lane, so the dense
  /// path runs even on test graphs too small to trip the heuristic),
  /// kAuto otherwise. A policy that names its direction overrides it.
  static Direction env_direction() {
    const char* e = std::getenv("PARSH_FORCE_PULL");
    return e != nullptr && e[0] != '\0' && e[0] != '0' ? Direction::kPull
                                                         : Direction::kAuto;
  }
};

/// Adaptive degree-aware work distribution for one round's edge
/// relaxations, with direction-optimized (push/pull) dense rounds.
///
/// The synchronous-round consumers all share one expansion shape: for each
/// frontier vertex, visit its adjacency and emit proposals. Handing whole
/// vertices to workers breaks down on skewed frontiers — on a power-law
/// graph one hub vertex can carry most of the round's edges, serializing
/// the round behind a single worker. relax() instead splits the round's
/// total edge work into bounded ranges of ~kEdgeGrain edges (an exclusive
/// prefix sum over the frontier degrees locates each range's vertices) and
/// runs them as one dynamically-claimed stage of the caller's Team — each
/// worker takes the next unclaimed range as it goes idle, so a hub's
/// adjacency is relaxed by many workers at once. Rounds whose edge total
/// is at most seq_threshold() instead run entirely on the
/// driver thread through a dedicated sequential body (plain writes,
/// direct calendar pushes — the adaptive sequential round fast path; see
/// docs/ARCHITECTURE.md "Round scheduling").
///
/// Direction optimization (Beamer-style push/pull switching): the
/// frontier-aware overload of relax() additionally compares the round's
/// frontier edge total against a configurable fraction of m (and a
/// profitability floor of n/2 — see kPullFloorDivisor). Above both the
/// round runs PULL: the frontier is materialized as a dense bitmap and
/// every *candidate* vertex scans its own (symmetric) adjacency for
/// frontier neighbours, computing the winning proposal locally and
/// emitting at most one item through the normal staging path — exactly
/// the rounds where the frontier covers most of the graph, cutting both
/// edge examinations (BFS stops at the first frontier hit) and proposal
/// traffic (one emission per candidate instead of one per edge).
/// Hysteresis (enter high, exit lower) keeps the direction from
/// thrashing across consecutive similar-sized rounds; the decision
/// depends only on the (deterministic) round totals, never the schedule.
///
/// Determinism contract: relax() only changes HOW the per-edge body calls
/// are scheduled, never the resulting argmin — every frontier edge is
/// visited exactly once on the push paths, and the pull body emits a
/// proposal multiset whose per-vertex (key, via) minima are identical to
/// the push multiset's (the suppressed proposals are strict losers of the
/// very reduction that resolves them; see docs/ARCHITECTURE.md "Round
/// scheduling"). The path choice depends only on (frontier, degrees,
/// policy, m, direction state), never on the schedule. All consumers
/// resolve concurrent writes with the order-independent CRCW min-reduces
/// in parallel/atomics.hpp (their sequential bodies computing the same
/// argmin with plain writes), so output is bit-identical across
/// sequential / vertex-grain / edge-grain / pull scheduling and across
/// thread counts (pinned by tests/test_work_stealing.cpp,
/// tests/test_direction_optimizing.cpp and the TeamRounds suite, via
/// RoundPolicy).
///
/// Reuse: the prefix-sum scratch and the frontier bitmap are grown
/// monotonically and never shrunk (warm calls allocate nothing);
/// alloc_events() counts scratch growth exactly like BucketEngine's.
/// Not thread-safe across concurrent relax() calls: one relaxer per call
/// chain, owned by the workspaces alongside their engines.
class FrontierRelaxer {
 public:
  /// Target edges per stolen range. Small enough that a 10^5-degree hub
  /// splits across every worker, large enough that the per-range queue
  /// traffic (one dynamic-schedule dequeue) stays amortized.
  static constexpr std::size_t kEdgeGrain = 2048;
  /// Frontier chunk handed to a worker on the whole-vertex path (the
  /// pre-existing grain of the consumers' expansion loops).
  static constexpr std::size_t kVertexGrain = 64;
  /// Default adaptive threshold: a round whose frontier edge total is at
  /// most this runs entirely on one worker (the sequential fast path —
  /// plain writes, direct calendar pushes). Equal to kEdgeGrain: below
  /// one stolen range the parallel path could not split the work anyway,
  /// so the fast path only removes overhead, never parallelism.
  static constexpr std::size_t kSequentialRoundEdges = kEdgeGrain;

  /// Direction-switch thresholds, as divisors of m: enter pull when a
  /// round's frontier edge total reaches m / kPullEnterDivisor, and stay
  /// in pull mode until it drops below m / kPullExitDivisor (hysteresis:
  /// the exit bound is lower than the entry bound, so a frontier
  /// oscillating around the entry threshold does not thrash direction).
  static constexpr std::uint64_t kPullEnterDivisor = 20;
  static constexpr std::uint64_t kPullExitDivisor = 64;
  /// Profitability floor for pull, as a divisor of n: a pull round pays a
  /// Theta(n) candidate sweep no matter how small the frontier, so both
  /// the enter and stay conditions additionally require the round's edge
  /// total to reach n / kPullFloorDivisor (the same shape as the
  /// vertex-count terms in Ligra's/GAPBS's direction conditions). Dense
  /// frontiers on sparse graphs — e.g. a settled star's rim pointing back
  /// at its hub, where the edge total clears m/20 but a candidate sweep
  /// over all n costs more than pushing the stale edges — stay push.
  static constexpr std::uint64_t kPullFloorDivisor = 2;
  /// Frontier chunk per dynamically-claimed iteration of the bitmap
  /// set/clear stages.
  static constexpr std::size_t kBitGrain = 2048;

  /// What relax() decided for one round: the frontier's total edge count
  /// (from the degree prefix scan), whether the round ran on the
  /// sequential fast path, and whether it ran pull.
  struct RoundPlan {
    std::size_t edges = 0;
    bool sequential = false;
    bool pull = false;
  };

  /// The scheduling policy for every later relax(): its `rounds` and
  /// `direction` fields (the reduce is the consumers' business).
  void set_policy(const RoundPolicy& policy) { policy_ = policy; }
  [[nodiscard]] const RoundPolicy& policy() const { return policy_; }

  /// Rounds of at most this many items run on the sequential fast path:
  /// kSequentialRoundEdges under the adaptive policy, 0 (never) otherwise.
  /// The consumers apply the same cut to their own per-round reduces.
  [[nodiscard]] std::size_t seq_threshold() const {
    return policy_.rounds == RoundPolicy::Rounds::kAdaptive ? kSequentialRoundEdges
                                                            : 0;
  }

  /// Reset the direction hysteresis for a fresh run (drivers call this
  /// once per run so one run's dense tail never bleeds pull mode into the
  /// next run's sparse head).
  void begin_run() { pull_mode_ = false; }

  /// Tuning/test seam for the hysteresis divisors: enter pull at edge
  /// total >= m / enter_div, leave below m / exit_div. exit_div >=
  /// enter_div keeps the exit bound at or below the entry bound.
  void set_pull_divisors(std::uint64_t enter_div, std::uint64_t exit_div) {
    assert(enter_div != 0 && exit_div >= enter_div);
    pull_enter_div_ = enter_div;
    pull_exit_div_ = exit_div;
  }

  /// Rounds scheduled as stolen edge ranges / as whole vertices / as pull
  /// (bitmap) rounds (cumulative; diagnostics and tests). Sequential
  /// fast-path rounds are counted by the consumer (RoundScheduler), from
  /// RoundPlan::sequential.
  [[nodiscard]] std::uint64_t edge_grain_rounds() const { return edge_grain_rounds_; }
  [[nodiscard]] std::uint64_t vertex_grain_rounds() const { return vertex_grain_rounds_; }
  [[nodiscard]] std::uint64_t pull_rounds() const { return pull_rounds_; }
  /// Edges examined by pull-round candidate scans (cumulative; the
  /// direction heuristic's payoff is this growing slower than the pushed
  /// frontier edge totals it replaced).
  [[nodiscard]] std::uint64_t pull_edges_scanned() const { return pull_edges_scanned_; }

  /// True iff `u` is in the current pull round's frontier bitmap. Valid
  /// only inside a pull body.
  [[nodiscard]] bool in_frontier(vid u) const {
    return (bitmap_[u >> 6].load(std::memory_order_relaxed) >> (u & 63)) & 1u;
  }
  /// Best-effort prefetch of u's bitmap word (pull inner loops peek a few
  /// edges ahead so the random bitmap reads overlap the CSR stream).
  void prefetch_frontier_bit(vid u) const { prefetch_read(&bitmap_[u >> 6]); }

  /// Heap-allocation events in the prefix/scan scratch so far (cumulative;
  /// a warm round over a frontier no larger than already seen adds none).
  [[nodiscard]] std::uint64_t alloc_events() const { return alloc_events_; }

  /// Bench hook: while `sink` is non-null, every relax() appends its
  /// round's frontier edge total (the per-round histogram the scaling
  /// bench records so the adaptive threshold stays tunable from data).
  void record_round_edges(std::vector<std::size_t>* sink) { round_edges_sink_ = sink; }

  /// Visit every out-edge of a frontier of `frontier` vertices:
  /// `degree_of(i)` is frontier vertex i's edge count, and each body must
  /// process frontier vertex i's local edge offsets [lo, hi) — consumers
  /// map them onto the CSR as g.begin(u) + lo. Ranges never split an edge
  /// and cover each edge exactly once.
  ///
  /// The round is scheduled adaptively, all choices depending only on
  /// (frontier, degrees, policy) — never on the schedule — so the plan and
  /// the counters are deterministic:
  ///  * edge total <= seq_threshold(): `seq_body` runs for every frontier
  ///    vertex on the calling thread. It may use plain (non-atomic)
  ///    writes and direct engine pushes — no other thread touches shared
  ///    state during the round.
  ///  * otherwise `par_body` runs inside `team` stages (one stolen-range
  ///    stage above kEdgeGrain, a whole-vertex stage below or under
  ///    RoundPolicy::Rounds::kVertexGrain) and must only write through
  ///    atomics / per-worker state.
  /// Both bodies must perform the same per-edge effect; every consumer
  /// funnels concurrent effects through order-independent CRCW reduces,
  /// so which body ran is unobservable in the output (the determinism
  /// contract, docs/ARCHITECTURE.md).
  ///
  /// Call from the driver thread, between rounds.
  template <typename TeamLike, typename Deg, typename SeqBody, typename ParBody>
  RoundPlan relax(TeamLike& team, std::size_t frontier, Deg&& degree_of,
                  SeqBody&& seq_body, ParBody&& par_body) {
    if (frontier == 0) return {0, false};
    if (policy_.rounds == RoundPolicy::Rounds::kVertexGrain) {
      // Plain degree pass for the total (the scan does not run here),
      // then the parallel whole-vertex schedule.
      std::size_t total = 0;
      for (std::size_t i = 0; i < frontier; ++i) {
        total += static_cast<std::size_t>(degree_of(i));
      }
      record_(total);
      ++vertex_grain_rounds_;
      team.loop(0, frontier, kVertexGrain, [&](std::size_t i) {
        par_body(i, std::size_t{0}, static_cast<std::size_t>(degree_of(i)));
      });
      return {total, false};
    }
    const std::size_t total = scan_degrees_(team, frontier, degree_of);
    record_(total);
    return push_round_(team, frontier, total, seq_body, par_body);
  }

  /// Direction-aware relax(): the same contract as above, plus the pull
  /// alternative. `frontier` holds the round's vertex ids (the bitmap is
  /// built from them), `num_vertices`/`num_arcs` describe the graph the
  /// round runs on, and `pull_body(v)` is the candidate scan: examine v's
  /// (symmetric) adjacency, compute v's winning proposal over frontier
  /// neighbours (`in_frontier(u)` tests membership) with the SAME argmin
  /// tie-breaks the push reduce applies, emit it through push_from_worker,
  /// and return the number of edges it examined. It runs inside team
  /// stages and must only write through atomics / per-worker state.
  ///
  /// Direction is decided from the (deterministic) edge total before the
  /// sequential fast path, so a dense round never falls into the
  /// sequential push body.
  template <typename TeamLike, typename Deg, typename SeqBody, typename ParBody,
            typename PullBody>
  RoundPlan relax(TeamLike& team, const std::vector<vid>& frontier,
                  std::size_t num_vertices, std::uint64_t num_arcs, Deg&& degree_of,
                  SeqBody&& seq_body, ParBody&& par_body, PullBody&& pull_body) {
    if (frontier.empty()) return {0, false, false};
    if (policy_.rounds == RoundPolicy::Rounds::kVertexGrain) {
      // The vertex-grain policy pins the push scheduler outright.
      return relax(team, frontier.size(), degree_of, seq_body, par_body);
    }
    const std::size_t total = scan_degrees_(team, frontier.size(), degree_of);
    record_(total);
    if (decide_direction_(total, num_vertices, num_arcs)) {
      ++pull_rounds_;
      run_pull_(team, frontier, num_vertices, pull_body);
      return {total, false, true};
    }
    return push_round_(team, frontier.size(), total, seq_body, par_body);
  }

 private:
  /// The push scheduling tail shared by both relax() overloads: prefix_
  /// already holds the frontier's degree scan and `total` its sum.
  template <typename TeamLike, typename SeqBody, typename ParBody>
  RoundPlan push_round_(TeamLike& team, std::size_t frontier, std::size_t total,
                        SeqBody& seq_body, ParBody& par_body) {
    // A zero threshold (every non-adaptive policy) disables the fast path
    // outright — even for empty rounds.
    const std::size_t seq_threshold = this->seq_threshold();
    if (seq_threshold != 0 && total <= seq_threshold) {
      // The adaptive sequential fast path: one worker, no staging, no
      // atomics needed by the body.
      for (std::size_t i = 0; i < frontier; ++i) {
        const std::size_t deg = prefix_[i + 1] - prefix_[i];
        if (deg != 0) seq_body(i, std::size_t{0}, deg);
      }
      return {total, true};
    }
    if (total <= kEdgeGrain) {
      // One range's worth of edges: the split cannot help, and the
      // whole-vertex path skips the chunk queue.
      ++vertex_grain_rounds_;
      team.loop(0, frontier, kVertexGrain, [&](std::size_t i) {
        par_body(i, std::size_t{0}, prefix_[i + 1] - prefix_[i]);
      });
      return {total, false};
    }
    ++edge_grain_rounds_;
    const std::size_t chunks = (total + kEdgeGrain - 1) / kEdgeGrain;
    team.loop(0, chunks, 1, [&](std::size_t c) {
      const std::size_t e0 = c * kEdgeGrain;
      const std::size_t e1 = std::min(total, e0 + kEdgeGrain);
      std::size_t i = detail::chunk_first_vertex(prefix_, frontier, e0);
      for (; i < frontier && prefix_[i] < e1; ++i) {
        const std::size_t lo = e0 > prefix_[i] ? e0 - prefix_[i] : 0;
        const std::size_t hi = std::min(e1, prefix_[i + 1]) - prefix_[i];
        if (lo < hi) par_body(i, lo, hi);
      }
    });
    return {total, false};
  }

 private:
  void record_(std::size_t total) {
    if (round_edges_sink_ != nullptr) round_edges_sink_->push_back(total);
  }

  /// Fill prefix_ with the exclusive prefix sums of the frontier degrees
  /// (prefix_[frontier] = total, returned). A blocked two-pass scan over
  /// reused scratch: unlike exclusive_scan_inplace, a warm call allocates
  /// nothing. Block loops are team stages (grain 1: each iteration is a
  /// whole kBlock-element block, heavy enough to stage even for a handful
  /// of blocks).
  template <typename TeamLike, typename Deg>
  std::size_t scan_degrees_(TeamLike& team, std::size_t frontier, Deg& degree_of) {
    if (frontier + 1 > prefix_.capacity()) ++alloc_events_;
    prefix_.resize(frontier + 1);
    constexpr std::size_t kBlock = 4096;
    const std::size_t nb = (frontier + kBlock - 1) / kBlock;
    if (nb > block_sum_.capacity()) ++alloc_events_;
    block_sum_.resize(nb);
    team.loop(0, nb, 1, [&](std::size_t b) {
      const std::size_t lo = b * kBlock;
      const std::size_t hi = std::min(frontier, lo + kBlock);
      std::size_t acc = 0;
      for (std::size_t i = lo; i < hi; ++i) {
        prefix_[i] = degree_of(i);
        acc += prefix_[i];
      }
      block_sum_[b] = acc;
    });
    std::size_t running = 0;
    for (std::size_t b = 0; b < nb; ++b) {
      const std::size_t next = running + block_sum_[b];
      block_sum_[b] = running;
      running = next;
    }
    team.loop(0, nb, 1, [&](std::size_t b) {
      const std::size_t lo = b * kBlock;
      const std::size_t hi = std::min(frontier, lo + kBlock);
      std::size_t acc = block_sum_[b];
      for (std::size_t i = lo; i < hi; ++i) {
        const std::size_t next = acc + prefix_[i];
        prefix_[i] = acc;
        acc = next;
      }
    });
    prefix_[frontier] = running;
    return running;
  }

  /// Hysteresis state machine for the push/pull decision, then the
  /// policy's override. The state advances on EVERY direction-capable round
  /// (a forced direction only masks the outcome), so switching the policy
  /// back to kAuto mid-run leaves the same state an unforced run would
  /// have — and the inputs (round edge totals, m) are schedule-independent,
  /// so the decision is bit-stable across thread counts.
  bool decide_direction_(std::size_t total, std::size_t num_vertices,
                         std::uint64_t num_arcs) {
    // The n/kPullFloorDivisor term gates both conditions identically: it
    // is a hard profitability floor (below it the candidate sweep cannot
    // pay for itself), not part of the hysteresis band.
    const std::uint64_t floor =
        static_cast<std::uint64_t>(num_vertices) / kPullFloorDivisor;
    const std::uint64_t enter = std::max<std::uint64_t>(
        std::max<std::uint64_t>(1, num_arcs / pull_enter_div_), floor);
    const std::uint64_t exit = std::max<std::uint64_t>(
        std::max<std::uint64_t>(1, num_arcs / pull_exit_div_), floor);
    if (num_arcs == 0) {
      pull_mode_ = false;
    } else if (!pull_mode_) {
      pull_mode_ = total >= enter;
    } else {
      pull_mode_ = total >= exit;
    }
    switch (policy_.direction) {
      case RoundPolicy::Direction::kPush: return false;
      case RoundPolicy::Direction::kPull: return true;
      case RoundPolicy::Direction::kAuto: break;
    }
    return pull_mode_;
  }

  /// One pull round: set the frontier bitmap, run the candidate scan over
  /// all vertices, clear the bitmap (touching only the set words, so the
  /// clear costs O(frontier), not O(n)). All three loops are team stages —
  /// never nested parallel_for — so the round works identically inside a
  /// persistent team and inline.
  template <typename TeamLike, typename PullBody>
  void run_pull_(TeamLike& team, const std::vector<vid>& frontier,
                 std::size_t num_vertices, PullBody& pull_body) {
    const std::size_t words = (num_vertices + 63) / 64;
    if (words > bitmap_.size()) {
      // atomic<uint64_t> is not movable: growth is a fresh vector (counted
      // like every other scratch growth), zeroed in parallel. Monotone, so
      // warm rounds on a same-size graph allocate nothing.
      ++alloc_events_;
      bitmap_ = std::vector<std::atomic<std::uint64_t>>(words);
      team.loop(0, words, std::size_t{4096},
                [&](std::size_t w) { bitmap_[w].store(0, std::memory_order_relaxed); });
    }
    const auto workers = static_cast<std::size_t>(num_workers());
    if (workers > pull_tally_workers_) {
      // Worker count raised since the tally was sized (it slots per
      // worker at construction); rebuild it to match.
      pull_tally_ = WorkerCounter();
      pull_tally_workers_ = workers;
    }
    team.loop(0, frontier.size(), kBitGrain, [&](std::size_t i) {
      const vid u = frontier[i];
      bitmap_[u >> 6].fetch_or(std::uint64_t{1} << (u & 63),
                               std::memory_order_relaxed);
    });
    team.loop(0, num_vertices, kVertexGrain, [&](std::size_t v) {
      pull_tally_.add(pull_body(static_cast<vid>(v)));
    });
    team.loop(0, frontier.size(), kBitGrain, [&](std::size_t i) {
      bitmap_[frontier[i] >> 6].store(0, std::memory_order_relaxed);
    });
    pull_edges_scanned_ += pull_tally_.drain();
  }

  std::vector<std::size_t> prefix_;     // exclusive degree prefix sums
  std::vector<std::size_t> block_sum_;  // scan scratch
  std::vector<std::atomic<std::uint64_t>> bitmap_;  // pull-round frontier bits
  WorkerCounter pull_tally_;            // per-worker pull edge-scan counts
  std::size_t pull_tally_workers_ = static_cast<std::size_t>(num_workers());
  std::vector<std::size_t>* round_edges_sink_ = nullptr;  // bench histogram
  std::uint64_t edge_grain_rounds_ = 0;
  std::uint64_t vertex_grain_rounds_ = 0;
  std::uint64_t pull_rounds_ = 0;
  std::uint64_t pull_edges_scanned_ = 0;
  std::uint64_t pull_enter_div_ = kPullEnterDivisor;
  std::uint64_t pull_exit_div_ = kPullExitDivisor;
  std::uint64_t alloc_events_ = 0;
  RoundPolicy policy_;
  bool pull_mode_ = false;
};

}  // namespace parsh
