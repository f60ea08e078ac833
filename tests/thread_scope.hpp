// Worker-count scope shared by the determinism suites.
#pragma once

#include "parallel/team.hpp"

namespace parsh {

/// Run `f` with the pool width set to `threads`, restored on exit. The
/// width is not capped at the processor count, so at_threads(4) races
/// the team's stages for real on every host; width 1 is a plain
/// one-thread run.
template <typename F>
auto at_threads(int threads, F f) {
  struct Restore {
    int before = num_workers();
    ~Restore() { set_num_workers(before); }
  } const restore;
  set_num_workers(threads);
  return f();
}

}  // namespace parsh
