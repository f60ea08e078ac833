// The worker pool and persistent-team round execution.
//
// The PRAM algorithms in this library are synchronous rounds of flat
// data-parallel loops. One process-wide pool of std::threads runs them:
// started lazily the first time a width above 1 is used, parked on a
// futex between stages, joined at process exit. Team is the handle a
// driver holds while it owns the pool:
//
//   Team::drive([&](Team& team) {
//     while (...) {            // sequential control flow, calling thread
//       team.loop(0, n, grain, body);   // one barrier-separated stage
//       ...                    // pop / scan / sort between stages
//     }
//   });
//
// The driver runs on the calling thread (worker 0); the pool threads
// (workers 1 .. width-1) execute the stages it publishes. A stage is a
// dynamically-chunked for-loop: every thread claims `grain`-sized chunks
// from a shared cursor, and loop() returns only after every chunk ran,
// so stages are exactly the barrier-separated phases of a round
// (loop_blocks is the static form: one contiguous block per worker). A
// whole drain loop is one drive, with no thread fork or join per phase;
// parallel_for (parallel_for.hpp) is a one-stage drive.
//
// Synchronization is three std::atomics (stage sequence, chunk cursor,
// completion count) with acquire/release pairing: every write a stage
// body makes happens-before the driver's code after loop(), and every
// driver write before loop() happens-before the bodies. Idle workers spin
// briefly and then futex-park (std::atomic::wait), so an oversubscribed
// machine degrades to roughly sequential speed instead of thrashing.
//
// Width and ownership:
//  * num_workers() is read from OMP_NUM_THREADS when set, else the
//    affinity CPU count; set_num_workers() changes it for later calls.
//  * One driver owns the pool at a time. A drive that finds it held, that
//    runs at width 1, or that is reached from inside a stage or another
//    drive runs inline: the driver on the calling thread and loop() a
//    plain loop. So concurrent drivers (server workers) share one budget
//    of num_workers() threads, and a width-1 call starts no thread and
//    touches no pool atomic.
//  * Consumers only run order-independent CRCW reduces / first-writer
//    claims inside stages, so output is identical in both modes.
//
// A parallel loop reached from inside a stage or a drive runs
// sequentially (the outer layer owns the parallelism). That is counted by
// nested_sequential_calls(), because it is also how a forgotten
// conversion to Team::loop silently serializes a hot loop; the
// determinism tests arm assert_on_nested_sequential to keep it that way.
#pragma once

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <thread>
#include <utility>
#include <vector>

namespace parsh {

namespace detail {
inline std::atomic<std::uint64_t> g_nested_sequential{0};
inline std::atomic<bool> g_nested_sequential_abort{false};
inline thread_local int t_worker_id = 0;
/// True on a pool thread, and on a driver while it owns the pool.
inline thread_local bool t_in_team = false;

inline void note_nested_sequential() {
  g_nested_sequential.fetch_add(1, std::memory_order_relaxed);
  if (g_nested_sequential_abort.load(std::memory_order_relaxed)) {
    std::fprintf(stderr,
                 "parsh: parallel loop reached from inside a parallel region "
                 "(silent sequential fallback) while "
                 "assert_on_nested_sequential is armed\n");
    std::abort();
  }
}

/// Upper bound on the width, so a stray OMP_NUM_THREADS cannot ask the
/// pool for thousands of threads.
inline constexpr int kMaxWorkers = 256;

inline std::atomic<int>& width_ref() {
  static std::atomic<int> width{[] {
    int w = 0;
    if (const char* env = std::getenv("OMP_NUM_THREADS")) w = std::atoi(env);
    if (w <= 0) {
      cpu_set_t set;
      w = sched_getaffinity(0, sizeof set, &set) == 0
              ? CPU_COUNT(&set)
              : static_cast<int>(std::thread::hardware_concurrency());
    }
    return std::clamp(w, 1, kMaxWorkers);
  }()};
  return width;
}
}  // namespace detail

/// Times a parallel loop large enough to go parallel ran sequentially
/// only because it was reached from inside a stage or a drive.
/// Cumulative and process-global (relaxed; a diagnostic counter).
inline std::uint64_t nested_sequential_calls() {
  return detail::g_nested_sequential.load(std::memory_order_relaxed);
}

/// Abort (with a message) on the next nested-sequential fallback. Test
/// hook: arm it around a region that must have no unconverted loops.
inline void assert_on_nested_sequential(bool on) {
  detail::g_nested_sequential_abort.store(on, std::memory_order_relaxed);
}

/// Width of later parallel loops and drives: OMP_NUM_THREADS when set,
/// else the affinity CPU count, until set_num_workers() changes it.
inline int num_workers() { return detail::width_ref().load(std::memory_order_relaxed); }

/// Set the width of later parallel loops and drives (clamped to
/// [1, 256]). Call between drives: consumers size their per-worker
/// scratch by num_workers() and regrow it before their next run.
inline void set_num_workers(int width) {
  detail::width_ref().store(std::clamp(width, 1, detail::kMaxWorkers),
                            std::memory_order_relaxed);
}

/// Index of the calling worker in [0, num_workers()): 0 outside stages
/// and on a driver; inside a stage body it identifies the executing pool
/// thread, so per-worker scratch indexed by it is race-free.
inline int worker_id() { return detail::t_worker_id; }

namespace detail {

/// The process-wide pool. All members but the atomics are touched by the
/// owner only, or by a worker between a stage's publish and its done_
/// increment (which the owner waits for).
class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  bool try_acquire() { return !owned_.exchange(true, std::memory_order_acquire); }
  void release() { owned_.store(false, std::memory_order_release); }

  /// Owner only: make the pool exactly `width` - 1 threads. Threads
  /// above the width exit on an empty stage and are joined.
  void resize(int width) {
    const auto keep = static_cast<std::size_t>(width - 1);
    width_ = width;
    if (threads_.size() > keep) {
      run_stage(nullptr, nullptr, 0, 0, 1, false);
      for (std::size_t i = keep; i < threads_.size(); ++i) threads_[i].join();
      threads_.resize(keep);
    }
    while (threads_.size() < keep) {
      threads_.emplace_back(&Pool::serve_, this, static_cast<int>(threads_.size() + 1),
                            seq_.load(std::memory_order_relaxed));
    }
  }

  /// Owner only: publish one stage, work on it, and return after every
  /// pool thread below the width finished it. The stage's `grain`-sized
  /// chunks are claimed dynamically, or with `blocks` chunk t is run by
  /// worker t. Rethrows the first exception a body threw.
  void run_stage(void (*fn)(void*, std::size_t, std::size_t), void* ctx, std::size_t begin,
                 std::size_t end, std::size_t grain, bool blocks) {
    const auto workers = static_cast<std::size_t>(width_ - 1);
    stage_fn_ = fn;
    stage_ctx_ = ctx;
    stage_begin_ = begin;
    stage_end_ = end;
    stage_grain_ = grain;
    stage_blocks_ = blocks;
    cursor_.store(begin, std::memory_order_relaxed);
    done_.store(0, std::memory_order_relaxed);
    seq_.fetch_add(1, std::memory_order_release);  // publish the stage
    seq_.notify_all();                             // wake parked workers
    work_(0);                                      // the driver works too
    // Completion barrier: spin (the stages are short and the driver is
    // usually last to finish its own chunks), yielding so an
    // oversubscribed machine still makes progress.
    for (int spins = 0; done_.load(std::memory_order_acquire) != workers;) {
      if (++spins >= kSpinsBeforeYield) {
        spins = 0;
        std::this_thread::yield();
      } else {
        cpu_relax_();
      }
    }
    if (failed_.load(std::memory_order_relaxed)) {
      failed_.store(false, std::memory_order_relaxed);
      std::rethrow_exception(std::exchange(error_, nullptr));
    }
  }

 private:
  /// Spins before the driver's completion wait / a worker's stage wait
  /// backs off (yield / futex-park respectively).
  static constexpr int kSpinsBeforeYield = 256;

  Pool() = default;
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;
  /// Joined at process exit, once a drive still running on another
  /// thread has finished. Ownership is kept, so a parallel loop run from
  /// a later static destructor stays inline.
  ~Pool() {
    while (!try_acquire()) std::this_thread::yield();
    resize(1);
  }

  static void cpu_relax_() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#else
    std::this_thread::yield();
#endif
  }

  /// Run worker `id`'s block, or claim and run chunks until the cursor
  /// passes the end. A throwing body stops the stage; the owner rethrows.
  void work_(std::size_t id) {
    const auto fn = stage_fn_;
    void* const ctx = stage_ctx_;
    const std::size_t end = stage_end_;
    const std::size_t grain = stage_grain_;
    try {
      if (stage_blocks_) {
        const std::size_t lo = stage_begin_ + id * grain;
        if (lo < end) fn(ctx, lo, std::min(lo + grain, end));
        return;
      }
      for (;;) {
        const std::size_t lo = cursor_.fetch_add(grain, std::memory_order_relaxed);
        if (lo >= end) return;
        fn(ctx, lo, std::min(lo + grain, end));
      }
    } catch (...) {
      if (!failed_.exchange(true, std::memory_order_relaxed)) error_ = std::current_exception();
      cursor_.store(end, std::memory_order_relaxed);
    }
  }

  /// Pool thread: wait for a stage, run it, report done; exit when a
  /// stage shrinks the pool below this thread.
  void serve_(int id, std::uint64_t seen) {
    t_worker_id = id;
    t_in_team = true;
    for (;;) {
      // Brief spin (a new stage usually follows within the sequential
      // part of one round), then futex-park until seq_ moves.
      for (int i = 0; seq_.load(std::memory_order_acquire) == seen; ++i) {
        if (i < kSpinsBeforeYield) {
          cpu_relax_();
        } else {
          seq_.wait(seen, std::memory_order_acquire);
        }
      }
      seen = seq_.load(std::memory_order_acquire);
      if (id >= width_) return;
      work_(static_cast<std::size_t>(id));
      done_.fetch_add(1, std::memory_order_release);
    }
  }

  std::atomic<bool> owned_{false};
  std::atomic<std::uint64_t> seq_{0};   // stage sequence number
  std::atomic<std::size_t> cursor_{0};  // next unclaimed iteration
  std::atomic<std::size_t> done_{0};    // pool threads finished with the stage
  std::atomic<bool> failed_{false};     // a body threw in this stage
  std::exception_ptr error_;
  int width_ = 1;
  // Current stage (published via seq_'s release increment).
  void (*stage_fn_)(void*, std::size_t, std::size_t) = nullptr;
  void* stage_ctx_ = nullptr;
  std::size_t stage_begin_ = 0;
  std::size_t stage_end_ = 0;
  std::size_t stage_grain_ = 1;
  bool stage_blocks_ = false;
  std::vector<std::thread> threads_;  // workers 1 .. width_ - 1
};

}  // namespace detail

class Team {
 public:
  Team(const Team&) = delete;
  Team& operator=(const Team&) = delete;

  /// Run `driver(team)` on the calling thread, with the pool num_workers()
  /// wide behind `team` when this call can own it; otherwise inline.
  /// The driver's exceptions propagate after the pool is released.
  template <typename Driver>
  static void drive(Driver&& driver) {
    const int width = num_workers();
    if (width > 1 && !detail::t_in_team) {
      detail::Pool& pool = detail::Pool::instance();
      if (pool.try_acquire()) {
        struct Owner {
          detail::Pool& pool;
          ~Owner() {
            detail::t_in_team = false;
            pool.release();
          }
        } const owner{pool};
        pool.resize(width);
        detail::t_in_team = true;
        Team team(&pool, width);
        driver(team);
        return;
      }
    }
    Team team(nullptr, 1);
    driver(team);
  }

  /// True when the pool is behind this object (stages run across
  /// threads). False when the driver runs inline.
  [[nodiscard]] bool persistent() const { return pool_ != nullptr; }

  /// Threads serving the stages (1 inline).
  [[nodiscard]] int size() const { return width_; }

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
    if (pool_ == nullptr || end - begin <= grain) {
      for (std::size_t i = begin; i < end; ++i) f(i);
      return;
    }
    pool_->run_stage(run_chunk_<F>, &f, begin, end, grain, false);
  }

  /// One stage split into size() contiguous blocks, block t run by worker
  /// t (a static schedule): per-worker scratch filled inside it, such as
  /// engine staging, gets the same share on every run whatever order the
  /// workers wake in. Outside a persistent team this is a plain loop.
  template <typename F>
  void loop_blocks(std::size_t begin, std::size_t end, F f) {
    if (end <= begin) return;
    if (pool_ == nullptr) {
      for (std::size_t i = begin; i < end; ++i) f(i);
      return;
    }
    const auto block = (end - begin + static_cast<std::size_t>(width_) - 1) /
                       static_cast<std::size_t>(width_);
    pool_->run_stage(run_chunk_<F>, &f, begin, end, block, true);
  }

 private:
  Team(detail::Pool* pool, int width) : pool_(pool), width_(width) {}

  template <typename F>
  static void run_chunk_(void* ctx, std::size_t lo, std::size_t hi) {
    F& body = *static_cast<F*>(ctx);
    for (std::size_t i = lo; i < hi; ++i) body(i);
  }

  detail::Pool* const pool_;
  const int width_;
};

}  // namespace parsh
