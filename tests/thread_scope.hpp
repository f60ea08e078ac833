// Worker-count scopes shared by the determinism suites.
#pragma once

#include "parallel/parallel_for.hpp"
#include "parallel/team.hpp"

namespace parsh {

/// Run `f` with the OpenMP worker count forced to `threads` (no-op in the
/// sequential build, where every run is trivially identical).
template <typename F>
auto at_threads(int threads, F f) {
#ifdef PARSH_HAVE_OPENMP
  struct Restore {
    int before = omp_get_max_threads();
    ~Restore() { omp_set_num_threads(before); }
  } const restore;
  omp_set_num_threads(threads);
#else
  (void)threads;
#endif
  return f();
}

/// Run `f` on a persistent team exactly `width` workers wide:
/// Team::force_width plus as many OpenMP threads, both restored on exit.
/// The automatic width is capped at the processor count, so a plain
/// at_threads(4) on a smaller host would run every stage inline; this
/// makes the team's stages race for real on every host. Width 1 is a
/// plain one-thread run.
template <typename F>
auto at_width(int width, F f) {
  struct ForcedWidth {
    explicit ForcedWidth(int w) { Team::force_width(w); }
    ~ForcedWidth() { Team::force_width(0); }
    ForcedWidth(const ForcedWidth&) = delete;
    ForcedWidth& operator=(const ForcedWidth&) = delete;
  } const forced(width > 1 ? width : 0);
  return at_threads(width, f);
}

}  // namespace parsh
