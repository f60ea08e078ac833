// Tests for the shared bucketed frontier engine: calendar ordering,
// same-bucket re-entry, overflow migration (including the case where an
// overflowed key falls inside the window after it advances), per-worker
// staging compacted by pop_round's flush stage, and the CalendarIndex
// bookkeeping it is built on.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "parallel/bucket_engine.hpp"
#include "parallel/team.hpp"

namespace parsh {
namespace {

TEST(CalendarIndex, TracksOccupancyAndMinimum) {
  detail::CalendarIndex idx(8);
  EXPECT_TRUE(idx.window_empty());
  EXPECT_EQ(idx.min_in_window(), kNoBucket);
  idx.note_push(3);
  idx.note_push(5, 2);
  EXPECT_FALSE(idx.window_empty());
  EXPECT_EQ(idx.min_in_window(), 3u);
  EXPECT_EQ(idx.take(3), 1u);
  EXPECT_EQ(idx.base_key(), 3u);
  EXPECT_EQ(idx.min_in_window(), 5u);
  EXPECT_EQ(idx.take(5), 2u);
  EXPECT_TRUE(idx.window_empty());
}

TEST(CalendarIndex, WindowSlidesCircularly) {
  detail::CalendarIndex idx(4);
  idx.note_push(2);
  idx.take(2);  // base = 2, window [2, 6)
  EXPECT_TRUE(idx.in_window(5));
  EXPECT_FALSE(idx.in_window(6));
  EXPECT_FALSE(idx.in_window(1));
  idx.note_push(5);
  EXPECT_EQ(idx.min_in_window(), 5u);
}

TEST(CalendarIndex, RebaseAfterDrain) {
  detail::CalendarIndex idx(4);
  idx.note_push(0);
  idx.take(0);
  idx.rebase(100);
  EXPECT_EQ(idx.base_key(), 100u);
  EXPECT_TRUE(idx.in_window(103));
  idx.note_push(103);
  EXPECT_EQ(idx.min_in_window(), 103u);
}

TEST(CalendarIndex, MinInWindowHintSkipsKnownEmptyPrefix) {
  // The rotating next-nonempty hint must stay EXACT through every
  // mutation: pushes below it lower it, take() shifts it with the base,
  // rebase() resets it to "all empty". Wrong in either direction it
  // would either rescan O(span) or skip a nonempty slot.
  detail::CalendarIndex idx(64);
  idx.note_push(50);
  EXPECT_EQ(idx.min_in_window(), 50u);  // caches hint at offset 50
  idx.note_push(7);                     // push BELOW the cached hint
  EXPECT_EQ(idx.min_in_window(), 7u);   // hint must have been invalidated
  EXPECT_EQ(idx.take(7), 1u);
  EXPECT_EQ(idx.min_in_window(), 50u);  // hint rebased by take, still exact
  idx.note_push(52, 2);
  EXPECT_EQ(idx.take(50), 1u);
  EXPECT_EQ(idx.min_in_window(), 52u);
  EXPECT_EQ(idx.take(52), 2u);
  EXPECT_EQ(idx.min_in_window(), kNoBucket);
  idx.rebase(1000);
  idx.note_push(1001);
  EXPECT_EQ(idx.min_in_window(), 1001u);
  // Repeated queries with no mutation in between resume from the hint.
  EXPECT_EQ(idx.min_in_window(), 1001u);
}

// The engine's consumers push from team stages or from the driver and pop
// between stages, inside one Team::drive; the cases below do the same.

TEST(BucketEngine, PopsBucketsInKeyOrder) {
  BucketEngine<int> eng({.span = 4});
  Team::drive([&](Team& team) {
    eng.push_from_worker(5, 50);
    eng.push_from_worker(1, 10);
    eng.push_from_worker(5, 51);
    eng.push_from_worker(3, 30);
    std::vector<int> out;
    EXPECT_EQ(eng.pop_round(team, out), 1u);
    EXPECT_EQ(out, std::vector<int>{10});
    EXPECT_EQ(eng.pop_round(team, out), 3u);
    EXPECT_EQ(out, std::vector<int>{30});
    EXPECT_EQ(eng.pop_round(team, out), 5u);
    EXPECT_EQ(out, (std::vector<int>{50, 51}));
    EXPECT_EQ(eng.pop_round(team, out), kNoBucket);
    EXPECT_TRUE(out.empty());
  });
}

TEST(BucketEngine, SameBucketReentryLikeDeltaStepping) {
  // A popped bucket may be refilled at the same key (light relaxations);
  // the next pop serves the same key again.
  BucketEngine<int> eng({.span = 4});
  Team::drive([&](Team& team) {
    eng.push_from_worker(2, 1);
    std::vector<int> out;
    EXPECT_EQ(eng.pop_round(team, out), 2u);
    eng.push_from_worker(2, 2);
    eng.push_from_worker(3, 3);
    EXPECT_EQ(eng.pop_round(team, out), 2u);
    EXPECT_EQ(out, std::vector<int>{2});
    EXPECT_EQ(eng.pop_round(team, out), 3u);
  });
}

TEST(BucketEngine, FarKeysOverflowAndComeBackInOrder) {
  BucketEngine<int> eng({.span = 2});
  std::vector<std::uint64_t> keys;
  Team::drive([&](Team& team) {
    eng.push_from_worker(0, 0);
    eng.push_from_worker(1000, 1);
    eng.push_from_worker(500000, 2);
    eng.push_from_worker(1001, 3);
    std::vector<int> out;
    std::uint64_t k;
    while ((k = eng.pop_round(team, out)) != kNoBucket) keys.push_back(k);
  });
  EXPECT_EQ(keys, (std::vector<std::uint64_t>{0, 1000, 1001, 500000}));
}

TEST(BucketEngine, OverflowKeyOvertakenByWindowIsStillServedInOrder) {
  // Regression: an item overflows while the window sits at an earlier
  // position; once pops advance the window over its key the item must be
  // served (and before any larger in-window key), not orphaned.
  BucketEngine<int> eng({.span = 4});
  Team::drive([&](Team& team) {
    eng.push_from_worker(0, 0);
    eng.push_from_worker(6, 60);  // beyond [0, 4): overflows
    std::vector<int> out;
    EXPECT_EQ(eng.pop_round(team, out), 0u);
    eng.push_from_worker(3, 30);
    EXPECT_EQ(eng.pop_round(team, out), 3u);  // window now [3, 7): 6 falls inside
    eng.push_from_worker(5, 50);              // in-window, below the overflowed 6
    EXPECT_EQ(eng.pop_round(team, out), 5u);
    EXPECT_EQ(out, std::vector<int>{50});
    EXPECT_EQ(eng.pop_round(team, out), 6u);
    EXPECT_EQ(out, std::vector<int>{60});
    EXPECT_EQ(eng.pop_round(team, out), kNoBucket);
  });
}

TEST(BucketEngine, WorkerStagingIsCompactedAtRoundBoundaries) {
  BucketEngine<std::size_t> eng({.span = 8});
  Team::drive([&](Team& team) {
    team.loop(0, 10000, 64, [&](std::size_t i) {
      eng.push_from_worker(1 + (i % 3), i);
    });
    std::vector<std::size_t> out;
    std::size_t total = 0;
    EXPECT_EQ(eng.pop_round(team, out), 1u);
    total += out.size();
    for (std::size_t v : out) EXPECT_EQ(v % 3, 0u);
    EXPECT_EQ(eng.pop_round(team, out), 2u);
    total += out.size();
    EXPECT_EQ(eng.pop_round(team, out), 3u);
    total += out.size();
    EXPECT_EQ(eng.pop_round(team, out), kNoBucket);
    EXPECT_EQ(total, 10000u);
  });
}

TEST(BucketEngine, InterleavedPushPopKeepsMonotoneKeys) {
  // Dial-style usage: every emission lands at pop key + weight, weights in
  // [1, 9]; popped keys must be non-decreasing and every item served.
  BucketEngine<int> eng({.span = 4});  // span smaller than max weight
  int served = 0;
  Team::drive([&](Team& team) {
    eng.push_from_worker(0, 0);
    std::uint64_t last = 0;
    std::vector<int> out;
    std::uint64_t k;
    while ((k = eng.pop_round(team, out)) != kNoBucket) {
      EXPECT_GE(k, last);
      last = k;
      for (int item : out) {
        ++served;
        if (item < 200) {
          eng.push_from_worker(k + 1 + (item * 7) % 9, item + 1);
          eng.push_from_worker(k + 1 + (item * 3) % 9, item + 201);
        }
      }
    }
  });
  EXPECT_GT(served, 200);
}

TEST(BucketEngine, ResetEmptiesButKeepsServing) {
  BucketEngine<int> eng({.span = 4});
  std::vector<int> out;
  Team::drive([&](Team& team) {
    eng.push_from_worker(9, 90);
    eng.push_from_worker(300, 1);  // overflow
    EXPECT_EQ(eng.pop_round(team, out), 9u);
  });
  eng.reset();
  Team::drive([&](Team& team) {
    EXPECT_EQ(eng.pop_round(team, out), kNoBucket);  // overflow cleared too
    // The window is back at base 0: small keys are accepted again.
    eng.push_from_worker(2, 20);
    eng.push_from_worker(0, 0);
    EXPECT_EQ(eng.pop_round(team, out), 0u);
    EXPECT_EQ(out, std::vector<int>{0});
    EXPECT_EQ(eng.pop_round(team, out), 2u);
    EXPECT_EQ(out, std::vector<int>{20});
  });
}

TEST(BucketEngine, StartAtRotatesEmptyWindow) {
  BucketEngine<int> eng({.span = 8});
  std::vector<int> out;
  eng.start_at(1000);
  Team::drive([&](Team& team) {
    eng.push_from_worker(1003, 3);
    eng.push_from_worker(1000, 0);
    EXPECT_EQ(eng.pop_round(team, out), 1000u);
    EXPECT_EQ(eng.pop_round(team, out), 1003u);
  });
  eng.reset();
  Team::drive([&](Team& team) {
    eng.push_from_worker(1, 1);  // reset returns the base to 0
    EXPECT_EQ(eng.pop_round(team, out), 1u);
  });
}

TEST(BucketEngine, WarmIdenticalRerunDoesNotAllocate) {
  // Drive the same push/pop schedule twice through one engine; the second
  // pass must reuse every buffer the first pass grew.
  BucketEngine<int> eng({.span = 8});
  std::vector<int> out;  // outlives the runs, like a workspace's props
  auto run = [&] {
    eng.reset();
    int served = 0;
    Team::drive([&](Team& team) {
      for (int i = 0; i < 500; ++i) {
        eng.push_from_worker(static_cast<std::uint64_t>(i % 6), i);
      }
      while (eng.pop_round(team, out) != kNoBucket) served += static_cast<int>(out.size());
    });
    return served;
  };
  EXPECT_EQ(run(), 500);
  const std::uint64_t warm = eng.alloc_events();
  EXPECT_GT(warm, 0u);
  EXPECT_EQ(run(), 500);
  EXPECT_EQ(eng.alloc_events(), warm);  // zero allocations when warm
  EXPECT_EQ(run(), 500);
  EXPECT_EQ(eng.alloc_events(), warm);
}

TEST(BucketEngine, PopRoundLeavesSlotCapacityInPlace) {
  // The per-slot high-water property behind the warm-run guarantee: a
  // smaller warm run whose buckets stay under the first run's per-bucket
  // demand allocates nothing, even with a different key profile.
  BucketEngine<int> eng({.span = 8});
  std::vector<int> out;
  auto run = [&](int items, int keys) {
    eng.reset();
    Team::drive([&](Team& team) {
      for (int i = 0; i < items; ++i) {
        eng.push_from_worker(static_cast<std::uint64_t>(i % keys), i);
      }
      while (eng.pop_round(team, out) != kNoBucket) {
      }
    });
  };
  run(400, 5);
  const std::uint64_t warm = eng.alloc_events();
  run(60, 3);
  EXPECT_EQ(eng.alloc_events(), warm);
}

}  // namespace
}  // namespace parsh
