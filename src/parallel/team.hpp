// Persistent-team round execution.
//
// The round-synchronous drivers (est_cluster's proposal loop,
// level-synchronous BFS, hop-limited Bellman-Ford) used to execute every
// per-round phase — priority-write min-reduce, winner settlement, frontier
// expansion, staging flush — as its own OpenMP `parallel for`. That is one
// fork + one join per phase, ~5 per round, hundreds of rounds per run: at
// small round sizes the fork/join overhead dominates and multi-threaded
// runs LOSE to one thread (the `speedup_vs_1t < 1` rows in
// BENCH_est_cluster.json before this change).
//
// Team replaces that with ONE parallel region for the whole drain loop:
//
//   Team::drive([&](Team& team) {
//     while (...) {            // sequential control flow, thread 0 only
//       team.loop(0, n, grain, body);   // one barrier-separated stage
//       ...                    // pop / scan / sort between stages
//     }
//   });
//
// Thread 0 runs the driver's sequential control flow; the other region
// threads park in a serve loop and execute stages the driver publishes.
// A stage is a dynamically-chunked for-loop (workers claim `grain`-sized
// chunks from a shared cursor — the same work-stealing a
// `schedule(dynamic, chunk)` loop gets), followed by a completion barrier:
// loop() returns only after every chunk ran, so stages are exactly the
// barrier-separated phases of a fork-join-per-phase formulation, minus the
// per-phase thread fork/join.
//
// Synchronization is three std::atomics (stage sequence, chunk cursor,
// completion count) with acquire/release pairing — every write a stage
// body makes happens-before the driver's code after loop(), and every
// driver write before loop() happens-before the bodies. Idle workers spin
// briefly and then futex-park (std::atomic::wait), so an oversubscribed
// machine degrades to roughly sequential speed instead of thrashing.
//
// Modes, both producing bit-identical consumer output (the consumers only
// run order-independent CRCW reduces / first-writer claims inside stages):
//  * kPersistent — OpenMP present, >1 worker available (or forced with
//    force_width), not already inside a parallel region: the real thing
//    described above.
//  * kSequential — one worker, OpenMP absent, or already nested inside a
//    parallel region (a pool fan-out, the hopset recursion): the driver
//    runs inline and loop() degenerates to a plain sequential loop — the
//    outer layer owns the parallelism.
//
// Nested parallel_for calls from inside the region silently serialize
// (OpenMP nesting is off); that is detected by nested_sequential_calls()
// in parallel_for.hpp — drivers must route every phase through
// Team::loop, and the determinism tests arm assert_on_nested_sequential
// to keep it that way.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <thread>

#include "parallel/parallel_for.hpp"

namespace parsh {

class Team {
 public:
  Team() = default;
  Team(const Team&) = delete;
  Team& operator=(const Team&) = delete;

  /// How loop() schedules its iterations.
  enum class Mode {
    kSequential,  ///< plain loop on the calling thread (1 worker, nested
                  ///< inside an outer parallel region, or more workers
                  ///< configured than processors exist)
    kPersistent,  ///< stages served by the parked worker team
  };

  /// Run `driver(team)` with a persistent worker team when the runtime
  /// can provide one (OpenMP, >1 thread, not already inside a parallel
  /// region); otherwise inline.
  ///
  /// The team is sized min(omp_get_max_threads(), omp_get_num_procs()):
  /// a barrier-synchronized compute team never benefits from more workers
  /// than processors, and oversubscribing one (OMP_NUM_THREADS above the
  /// affinity mask) turns every stage barrier into context-switch churn.
  /// The cap changes scheduling only — consumer output is thread-count-
  /// invariant by the determinism contract.
  template <typename Driver>
  static void drive(Driver&& driver) {
    Team team;
#ifdef PARSH_HAVE_OPENMP
    const int forced = forced_width_ref_();
    int cap = forced > 0 ? forced : detail::fork_width();
    // Never wider than num_workers(): every consumer sizes its per-worker
    // scratch (engine staging, winner lists, WorkerCounter slots) by
    // omp_get_max_threads(), and the num_threads clause below would
    // otherwise override it.
    if (cap > omp_get_max_threads()) cap = omp_get_max_threads();
    if (cap > 1 && !omp_in_parallel()) {
      std::exception_ptr error;
#pragma omp parallel num_threads(cap)
      {
        if (omp_get_thread_num() == 0) {
          // The region may have been granted fewer threads than asked.
          team.nthreads_ = omp_get_num_threads();
          team.mode_ = team.nthreads_ > 1 ? Mode::kPersistent : Mode::kSequential;
          try {
            driver(team);
          } catch (...) {
            error = std::current_exception();
          }
          team.shutdown_();
        } else {
          team.serve_();
        }
      }
      if (error) std::rethrow_exception(error);
      return;
    }
#endif
    driver(team);
  }

  /// True when a real worker team is parked behind this object (stages
  /// will run across threads). False when the driver runs inline.
  [[nodiscard]] bool persistent() const { return mode_ == Mode::kPersistent; }

  /// Test hook: force the persistent team width (0 = automatic,
  /// min(omp_get_max_threads(), omp_get_num_procs())). Lets the stage
  /// machinery be exercised with real workers even on machines with
  /// fewer processors than the test wants threads (the unit and TSan
  /// suites pin 4). Always clamped to omp_get_max_threads(), which sizes
  /// every consumer's per-worker scratch — callers that want a wide team
  /// must raise the OpenMP thread count too (at_threads in the tests).
  /// Scheduling only — output is width-invariant.
  static void force_width(int width) { forced_width_ref_() = width; }

  /// Threads in the team (1 in the inline modes).
  [[nodiscard]] int size() const { return nthreads_ > 1 ? nthreads_ : 1; }

  /// One barrier-separated stage: apply `f(i)` for i in [begin, end),
  /// iterations independent, distributed over the team in `grain`-sized
  /// dynamically-claimed chunks. Returns after ALL iterations completed
  /// (their writes visible to the caller). Call from the driver thread
  /// only; `grain` is also the cutoff below which the stage runs inline
  /// on the driver (waking workers for a handful of items costs more than
  /// the items). Outside a persistent team this is a plain loop.
  template <typename F>
  void loop(std::size_t begin, std::size_t end, std::size_t grain, F f) {
    if (end <= begin) return;
    if (grain == 0) grain = 1;
    if (mode_ == Mode::kSequential) {
      // One worker (or nested inside an outer parallel region, or the
      // configured thread count exceeds the machine): a plain loop, with
      // no fork the runtime would have to serialize anyway.
      for (std::size_t i = begin; i < end; ++i) f(i);
      return;
    }
    if (end - begin <= grain) {
      for (std::size_t i = begin; i < end; ++i) f(i);
      return;
    }
    stage_fn_ = [](void* ctx, std::size_t lo, std::size_t hi) {
      F& body = *static_cast<F*>(ctx);
      for (std::size_t i = lo; i < hi; ++i) body(i);
    };
    stage_ctx_ = &f;
    stage_end_ = end;
    stage_grain_ = grain;
    cursor_.store(begin, std::memory_order_relaxed);
    done_.store(0, std::memory_order_relaxed);
    seq_.fetch_add(1, std::memory_order_release);  // publish the stage
    seq_.notify_all();                             // wake parked workers
    run_stage_();                                  // the driver works too
    // Completion barrier: spin (the stages are short and the driver is
    // usually last to finish its own chunks), yielding so an
    // oversubscribed machine still makes progress.
    const int expected = nthreads_ - 1;
    for (int spins = 0; done_.load(std::memory_order_acquire) != expected;) {
      if (++spins >= kSpinsBeforeYield) {
        spins = 0;
        std::this_thread::yield();
      } else {
        cpu_relax_();
      }
    }
  }

 private:
  /// Spins before the driver's completion wait / a worker's stage wait
  /// backs off (yield / futex-park respectively).
  static constexpr int kSpinsBeforeYield = 256;

  static int& forced_width_ref_() {
    static int width = 0;
    return width;
  }

  static void cpu_relax_() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#else
    std::this_thread::yield();
#endif
  }

  /// Claim and run chunks of the published stage until the cursor passes
  /// the end. Runs on every team thread, driver included.
  void run_stage_() {
    const auto fn = stage_fn_;
    void* const ctx = stage_ctx_;
    const std::size_t end = stage_end_;
    const std::size_t grain = stage_grain_;
    for (;;) {
      const std::size_t lo = cursor_.fetch_add(grain, std::memory_order_relaxed);
      if (lo >= end) return;
      const std::size_t hi = lo + grain < end ? lo + grain : end;
      fn(ctx, lo, hi);
    }
  }

  /// Worker loop: wait for a stage (or shutdown), run it, report done.
  void serve_() {
    std::uint64_t seen = 0;
    for (;;) {
      const std::uint64_t cur = seq_.load(std::memory_order_acquire);
      if (cur == seen) {
        if (stop_.load(std::memory_order_acquire)) return;
        // Brief spin (a new stage usually follows within the sequential
        // part of one round), then futex-park until seq_ moves.
        bool changed = false;
        for (int i = 0; i < kSpinsBeforeYield; ++i) {
          if (seq_.load(std::memory_order_acquire) != seen ||
              stop_.load(std::memory_order_acquire)) {
            changed = true;
            break;
          }
          cpu_relax_();
        }
        if (!changed) seq_.wait(seen, std::memory_order_acquire);
        continue;
      }
      seen = cur;
      if (stop_.load(std::memory_order_acquire)) return;
      run_stage_();
      done_.fetch_add(1, std::memory_order_release);
    }
  }

  /// Driver side, after the drain loop: release the workers. The stop
  /// flag is published by the same release-increment of seq_ the workers
  /// acquire, so a woken worker always observes it.
  void shutdown_() {
    if (nthreads_ <= 1) return;
    stop_.store(true, std::memory_order_release);
    seq_.fetch_add(1, std::memory_order_release);
    seq_.notify_all();
  }

  int nthreads_ = 1;
  Mode mode_ = Mode::kSequential;
  std::atomic<std::uint64_t> seq_{0};   // stage sequence number
  std::atomic<bool> stop_{false};       // drain loop finished
  std::atomic<std::size_t> cursor_{0};  // next unclaimed iteration
  std::atomic<int> done_{0};            // workers finished with the stage
  // Current stage (plain fields: published via seq_'s release increment).
  void (*stage_fn_)(void*, std::size_t, std::size_t) = nullptr;
  void* stage_ctx_ = nullptr;
  std::size_t stage_end_ = 0;
  std::size_t stage_grain_ = 1;
};

}  // namespace parsh
