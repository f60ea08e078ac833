// CAS-loop atomic combining operation (the CRCW PRAM "priority write").
// EST clustering resolves concurrent proposals for the same vertex with
// it, as the three-phase (key, via) min-reduce; label-propagation
// connectivity lowers component labels with it.
#pragma once

#include <atomic>

namespace parsh {

/// Atomically set *addr = min(*addr, value). Returns true iff this call
/// strictly lowered the stored value (i.e. the caller "won").
///
/// Memory-ordering semantics: all operations are memory_order_relaxed.
/// The CAS loop still makes the VALUE exact — after any set of concurrent
/// calls, *addr holds the minimum of its prior value and every written
/// value, because a CAS only succeeds against the currently stored word
/// and only replaces it with something smaller. What relaxed ordering
/// does NOT provide is inter-thread visibility of *other* locations; the
/// round-synchronous consumers never need it mid-round (each round's
/// phases are separated by team-stage barriers or parallel_for joins,
/// which publish every write before the next phase reads). Use this only
/// under that round-barrier discipline.
template <typename T>
bool atomic_write_min(std::atomic<T>* addr, T value) {
  T cur = addr->load(std::memory_order_relaxed);
  while (value < cur) {
    if (addr->compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

}  // namespace parsh
