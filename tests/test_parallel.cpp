// Tests for the parallel primitives substrate (scan, pack, reduce, sort,
// atomics, parallel_for) against sequential references.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "parallel/atomics.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/primitives.hpp"
#include "parallel/sort.hpp"
#include "parallel/team.hpp"
#include "parallel/work_depth.hpp"
#include "random/rng.hpp"
#include "thread_scope.hpp"

namespace parsh {
namespace {

class PrimitivesSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PrimitivesSizes, ExclusiveScanMatchesReference) {
  const std::size_t n = GetParam();
  Rng rng(42);
  std::vector<std::uint64_t> v(n), ref(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = rng.uniform_int(i, 1000);
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    ref[i] = acc;
    acc += v[i];
  }
  auto got = v;
  const std::uint64_t total = exclusive_scan_inplace(got);
  EXPECT_EQ(total, acc);
  EXPECT_EQ(got, ref);
}

TEST_P(PrimitivesSizes, ReduceSumMatchesAccumulate) {
  const std::size_t n = GetParam();
  Rng rng(7);
  std::vector<std::uint64_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = rng.uniform_int(i, 1 << 20);
  const auto expect = std::accumulate(v.begin(), v.end(), std::uint64_t{0});
  const auto got =
      parallel_reduce_sum<std::uint64_t>(n, [&](std::size_t i) { return v[i]; });
  EXPECT_EQ(got, expect);
}

TEST_P(PrimitivesSizes, ReduceMaxMatchesMaxElement) {
  const std::size_t n = GetParam();
  Rng rng(9);
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = rng.uniform(i);
  const double expect = n == 0 ? -1.0 : *std::max_element(v.begin(), v.end());
  const double got =
      parallel_reduce_max<double>(n, [&](std::size_t i) { return v[i]; }, -1.0);
  EXPECT_DOUBLE_EQ(got, expect);
}

TEST_P(PrimitivesSizes, PackIndicesKeepsExactlyMatchingOnesInOrder) {
  const std::size_t n = GetParam();
  auto pred = [](std::size_t i) { return i % 3 == 1; };
  const auto got = pack_indices(n, pred);
  std::vector<std::size_t> expect;
  for (std::size_t i = 0; i < n; ++i) {
    if (pred(i)) expect.push_back(i);
  }
  EXPECT_EQ(got, expect);
}

TEST_P(PrimitivesSizes, PackValuesTransformsSurvivors) {
  const std::size_t n = GetParam();
  auto pred = [](std::size_t i) { return i % 2 == 0; };
  const auto got =
      pack_values<std::size_t>(n, pred, [](std::size_t i) { return i * i; });
  std::vector<std::size_t> expect;
  for (std::size_t i = 0; i < n; ++i) {
    if (pred(i)) expect.push_back(i * i);
  }
  EXPECT_EQ(got, expect);
}

TEST_P(PrimitivesSizes, ParallelCountMatchesCountIf) {
  const std::size_t n = GetParam();
  auto pred = [](std::size_t i) { return (i * 2654435761u) % 5 == 0; };
  std::size_t expect = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (pred(i)) ++expect;
  }
  EXPECT_EQ(parallel_count(n, pred), expect);
}

TEST_P(PrimitivesSizes, ParallelSortSortsLikeStdSort) {
  const std::size_t n = GetParam();
  Rng rng(1234);
  std::vector<std::uint64_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = rng.bits(i);
  auto expect = v;
  std::sort(expect.begin(), expect.end());
  auto wide = v;
  parallel_sort(v);
  EXPECT_EQ(v, expect);
  // At width 4 the blocks and merges are stages of one drive: no call
  // falls back as nested.
  const std::uint64_t nested = nested_sequential_calls();
  at_threads(4, [&] { parallel_sort(wide); });
  EXPECT_EQ(wide, expect);
  EXPECT_EQ(nested_sequential_calls(), nested);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PrimitivesSizes,
                         ::testing::Values(0, 1, 2, 5, 100, 4096, 4097, 50000));

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  const std::size_t n = 10000;
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  parallel_for(0, n, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelFor, EmptyAndReversedRangesDoNothing) {
  bool ran = false;
  parallel_for(5, 5, [&](std::size_t) { ran = true; });
  parallel_for(7, 3, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(Atomics, WriteMinOnlyLowers) {
  std::atomic<int> x{10};
  EXPECT_TRUE(atomic_write_min(&x, 5));
  EXPECT_EQ(x.load(), 5);
  EXPECT_FALSE(atomic_write_min(&x, 7));
  EXPECT_EQ(x.load(), 5);
  EXPECT_FALSE(atomic_write_min(&x, 5));  // equal: no strict improvement
}

TEST(Atomics, WriteMinUnderContentionFindsGlobalMin) {
  std::atomic<std::uint64_t> x{~0ULL};
  Rng rng(5);
  const std::size_t n = 100000;
  std::uint64_t expect = ~0ULL;
  std::vector<std::uint64_t> vals(n);
  for (std::size_t i = 0; i < n; ++i) {
    vals[i] = rng.bits(i);
    expect = std::min(expect, vals[i]);
  }
  parallel_for(0, n, [&](std::size_t i) { atomic_write_min(&x, vals[i]); });
  EXPECT_EQ(x.load(), expect);
}

TEST(WorkDepth, CountersAccumulateAndRegionsSnapshot) {
  wd::reset();
  wd::add_work(10);
  wd::add_round();
  wd::Region region;
  wd::add_work(5);
  wd::add_round(2);
  const auto d = region.delta();
  EXPECT_EQ(d.work, 5u);
  EXPECT_EQ(d.rounds, 2u);
  const auto total = wd::snapshot();
  EXPECT_EQ(total.work, 15u);
  EXPECT_EQ(total.rounds, 3u);
  wd::reset();
  const auto zero = wd::snapshot();
  EXPECT_EQ(zero.work, 0u);
  EXPECT_EQ(zero.rounds, 0u);
}

TEST(ParallelSort, CustomComparatorDescending) {
  std::vector<int> v{3, 1, 4, 1, 5, 9, 2, 6};
  parallel_sort(v, std::greater<int>{});
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end(), std::greater<int>{}));
  // Widths with an odd block count leave a run without a partner in
  // some merge stage.
  Rng rng(77);
  std::vector<std::uint64_t> big(200000);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = rng.bits(i) % 1000;
  auto expect = big;
  std::sort(expect.begin(), expect.end(), std::greater<>{});
  const std::uint64_t nested = nested_sequential_calls();
  for (const int width : {2, 3, 4, 5}) {
    auto got = big;
    at_threads(width, [&] { parallel_sort(got, std::greater<>{}); });
    EXPECT_EQ(got, expect) << width;
  }
  EXPECT_EQ(nested_sequential_calls(), nested);
}

/// Runs every drive on a real 4-wide persistent team (even on hosts with
/// fewer processors) so the stage publish/claim/barrier machinery is
/// actually raced. The width is restored afterwards.
class TeamMachinery : public ::testing::Test {
 protected:
  void SetUp() override {
    threads_before_ = num_workers();
    set_num_workers(4);
  }
  void TearDown() override { set_num_workers(threads_before_); }

 private:
  int threads_before_ = 1;
};

TEST_F(TeamMachinery, StagesCoverEveryIterationExactlyOnce) {
  // Many short stages through one persistent region: every index of every
  // stage must be executed exactly once, and all writes must be visible
  // to the driver between stages (the completion barrier).
  constexpr std::size_t kItems = 10000;
  constexpr int kStages = 50;
  std::vector<std::atomic<int>> hits(kItems);
  for (auto& h : hits) h.store(0, std::memory_order_relaxed);
  Team::drive([&](Team& team) {
    for (int s = 0; s < kStages; ++s) {
      team.loop(0, kItems, 64, [&](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      });
      // Barrier check: after loop() returns, every item reads s + 1.
      EXPECT_EQ(hits[0].load(std::memory_order_relaxed), s + 1);
      EXPECT_EQ(hits[kItems - 1].load(std::memory_order_relaxed), s + 1);
    }
  });
  for (std::size_t i = 0; i < kItems; ++i) {
    ASSERT_EQ(hits[i].load(std::memory_order_relaxed), kStages) << i;
  }
}

TEST_F(TeamMachinery, TinyStagesRunInlineAndEmptyStagesAreNoops) {
  Team::drive([&](Team& team) {
    int sum = 0;
    // Below the grain the stage runs inline on the driver: a plain
    // non-atomic accumulator is safe.
    team.loop(0, 10, 64, [&](std::size_t i) { sum += static_cast<int>(i); });
    EXPECT_EQ(sum, 45);
    team.loop(5, 5, 64, [&](std::size_t) { ADD_FAILURE() << "empty stage ran"; });
  });
}

TEST_F(TeamMachinery, NestedDriveMatchesPersistent) {
  constexpr std::size_t kItems = 5000;
  std::vector<std::uint64_t> expected(kItems);
  for (std::size_t i = 0; i < kItems; ++i) expected[i] = i * i;
  std::vector<std::uint64_t> team(kItems, 0);
  Team::drive([&](Team& t) {
    t.loop(0, kItems, 32, [&](std::size_t i) { team[i] = i * i; });
  });
  EXPECT_EQ(team, expected);
  // Nested inside an outer drive, an inner drive degrades to inline
  // sequential loops (the outer layer owns the parallelism) — same
  // iterations, no deadlock.
  std::vector<std::uint64_t> nested(kItems, 0);
  Team::drive([&](Team&) {
    Team::drive([&](Team& inner) {
      EXPECT_FALSE(inner.persistent());
      inner.loop(0, kItems, 32, [&](std::size_t i) { nested[i] = i * i; });
    });
  });
  EXPECT_EQ(nested, expected);
}

TEST_F(TeamMachinery, NestedParallelForInsideTeamIsCounted) {
  const std::uint64_t before = nested_sequential_calls();
  // A big parallel_for reached from inside the persistent team silently
  // serializes — the counter must record it (the seam the drivers'
  // Team::loop conversions must never fall through).
  Team::drive([&](Team& team) {
    team.loop(0, 1, 1, [&](std::size_t) {
      parallel_for(0, 4 * kParallelGrain, [](std::size_t) {});
    });
  });
  EXPECT_GT(nested_sequential_calls(), before);
}

TEST_F(TeamMachinery, PoolFollowsTheWidthAndWorkerIdsStayBelowIt) {
  // The pool grows and shrinks with the width between drives; every stage
  // body sees a worker_id() below the width it was driven at.
  for (const int width : {4, 2, 3, 4, 1, 4}) {
    set_num_workers(width);
    std::atomic<int> max_id{0};
    Team::drive([&](Team& team) {
      EXPECT_EQ(team.persistent(), width > 1);
      EXPECT_EQ(team.size(), width);
      team.loop(0, 20000, 16, [&](std::size_t) {
        int seen = max_id.load(std::memory_order_relaxed);
        while (worker_id() > seen && !max_id.compare_exchange_weak(seen, worker_id())) {
        }
      });
    });
    EXPECT_LT(max_id.load(), width);
  }
}

TEST_F(TeamMachinery, LoopBlocksRunsBlockTOnWorkerT) {
  // The static schedule parallel_for relies on: one contiguous block per
  // worker, so per-worker staging gets the same share on every run.
  constexpr std::size_t kItems = 4003;  // blocks of 1001, the last short
  std::vector<int> ran_on(kItems, -1);
  Team::drive([&](Team& team) {
    ASSERT_TRUE(team.persistent());
    for (int rep = 0; rep < 20; ++rep) {
      team.loop_blocks(0, kItems, [&](std::size_t i) { ran_on[i] = worker_id(); });
      for (std::size_t i = 0; i < kItems; ++i) {
        ASSERT_EQ(ran_on[i], static_cast<int>(i / 1001)) << i;
      }
    }
  });
}

TEST_F(TeamMachinery, ThrowsPropagateAndReleaseThePool) {
  // From the driver, and from a stage body on whichever thread claims
  // the failing index: the exception leaves Team::drive, and the owner
  // flag is released, so the next drive still gets the whole pool.
  EXPECT_THROW(Team::drive([&](Team& team) {
                 EXPECT_TRUE(team.persistent());
                 team.loop(0, 1000, 10, [](std::size_t) {});
                 throw std::runtime_error("driver failed");
               }),
               std::runtime_error);
  EXPECT_THROW(Team::drive([&](Team& team) {
                 team.loop(0, 10000, 1, [](std::size_t i) {
                   if (i == 7777) throw std::runtime_error("body failed");
                 });
               }),
               std::runtime_error);
  constexpr std::size_t kItems = 10000;
  std::vector<std::atomic<int>> hits(kItems);
  for (auto& h : hits) h.store(0, std::memory_order_relaxed);
  Team::drive([&](Team& team) {
    EXPECT_TRUE(team.persistent());
    EXPECT_EQ(team.size(), 4);
    team.loop(0, kItems, 64, [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
  });
  for (std::size_t i = 0; i < kItems; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST_F(TeamMachinery, ConcurrentDriversShareOnePool) {
  // Two threads drive and run parallel_for at once: one of them owns the
  // pool at a time, the other runs inline, and both outputs are exact.
  constexpr std::size_t kItems = 20000;
  constexpr int kReps = 30;
  std::atomic<int> persistent_now{0};
  std::atomic<int> persistent_max{0};
  auto job = [&](std::vector<std::uint64_t>& out) {
    for (int rep = 0; rep < kReps; ++rep) {
      Team::drive([&](Team& team) {
        if (team.persistent()) {
          const int now = persistent_now.fetch_add(1) + 1;
          int seen = persistent_max.load();
          while (now > seen && !persistent_max.compare_exchange_weak(seen, now)) {
          }
        }
        team.loop(0, kItems, 64, [&](std::size_t i) { out[i] += i; });
        if (team.persistent()) persistent_now.fetch_sub(1);
      });
      parallel_for(0, kItems, [&](std::size_t i) { out[i] += 1; });
    }
  };
  std::vector<std::uint64_t> a(kItems, 0);
  std::vector<std::uint64_t> b(kItems, 0);
  std::thread ta(job, std::ref(a));
  std::thread tb(job, std::ref(b));
  ta.join();
  tb.join();
  EXPECT_LE(persistent_max.load(), 1);
  for (std::size_t i = 0; i < kItems; ++i) {
    ASSERT_EQ(a[i], kReps * (i + 1)) << i;
    ASSERT_EQ(b[i], kReps * (i + 1)) << i;
  }
}

TEST(ParallelSort, AlreadySortedAndAllEqualInputs) {
  std::vector<int> sorted(1000);
  std::iota(sorted.begin(), sorted.end(), 0);
  auto expect = sorted;
  parallel_sort(sorted);
  EXPECT_EQ(sorted, expect);
  std::vector<int> equal(1000, 7);
  parallel_sort(equal);
  EXPECT_TRUE(std::all_of(equal.begin(), equal.end(), [](int x) { return x == 7; }));
}

}  // namespace
}  // namespace parsh
