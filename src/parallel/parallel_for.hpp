// Shared-memory loop parallelism. The PRAM algorithms in this library are
// expressed as synchronous rounds of flat data-parallel loops; this header
// provides the loop primitives, each a one-stage Team::drive on the
// worker pool (parallel/team.hpp). At width 1, or when the pool is held by
// another driver, they are a plain loop on the calling thread (the
// semantics are identical: iterations must be independent).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "parallel/team.hpp"

namespace parsh {

/// Per-worker uint64 accumulator for tallies taken inside parallel loops
/// (work counters, winner counts). One cache-line-padded slot per worker,
/// so the hot-path add never contends or false-shares; drain() sums and
/// resets from sequential context.
class WorkerCounter {
 public:
  WorkerCounter() : slots_(static_cast<std::size_t>(num_workers())) {}

  /// Add from inside a parallel region (race-free per worker).
  void add(std::uint64_t v) { slots_[static_cast<std::size_t>(worker_id())].v += v; }

  /// Sum all slots and reset them. Call between parallel regions only.
  std::uint64_t drain() {
    std::uint64_t total = 0;
    for (Slot& s : slots_) {
      total += s.v;
      s.v = 0;
    }
    return total;
  }

 private:
  struct alignas(64) Slot {
    std::uint64_t v = 0;
  };
  std::vector<Slot> slots_;
};

/// Below this iteration count, parallel_for runs sequentially: waking
/// workers for tiny loops costs more than it saves.
inline constexpr std::size_t kParallelGrain = 2048;

/// parallel_for with an explicit grain size: `grain` is the dynamic chunk
/// handed to each worker, and a loop of one chunk runs sequentially.
/// grain=1 parallelizes even tiny loops whose iterations are individually
/// heavy (per-center BFS, per-worker buffer moves).
template <typename F>
void parallel_for_grain(std::size_t begin, std::size_t end, std::size_t grain, F f) {
  if (end > begin && end - begin > grain && num_workers() > 1) {
    if (!detail::t_in_team) {
      Team::drive([&](Team& team) { team.loop(begin, end, grain, f); });
      return;
    }
    detail::note_nested_sequential();
  }
  for (std::size_t i = begin; i < end; ++i) f(i);
}

/// Apply `f(i)` for every i in [begin, end). Iterations must not depend on
/// each other. Loops of kParallelGrain or more go parallel as one
/// contiguous block per worker (Team::loop_blocks).
template <typename F>
void parallel_for(std::size_t begin, std::size_t end, F f) {
  if (end > begin && end - begin >= kParallelGrain && num_workers() > 1) {
    if (!detail::t_in_team) {
      Team::drive([&](Team& team) { team.loop_blocks(begin, end, f); });
      return;
    }
    detail::note_nested_sequential();
  }
  for (std::size_t i = begin; i < end; ++i) f(i);
}

}  // namespace parsh
