// Lock-free server counters, snapshotted onto the wire StatsSnapshot.
//
// Counters are relaxed atomics: they are monotone tallies read for
// reporting, never for synchronization, so no ordering is needed and the
// hot serving paths pay one uncontended RMW per event.
#pragma once

#include <atomic>
#include <cstdint>

#include "server/protocol.hpp"

namespace parsh::server {

/// One relaxed atomic per COUNTER entry of PARSH_SERVER_STATS
/// (server/protocol.hpp), under the same name.
struct ServerMetrics {
#define PARSH_METRICS_COUNTER(name) std::atomic<std::uint64_t> name{0};
#define PARSH_METRICS_NONE(name)
  PARSH_SERVER_STATS(PARSH_METRICS_COUNTER, PARSH_METRICS_NONE)
#undef PARSH_METRICS_COUNTER
#undef PARSH_METRICS_NONE

  void bump(std::atomic<std::uint64_t>& c, std::uint64_t by = 1) {
    c.fetch_add(by, std::memory_order_relaxed);
  }

  /// Every counter's current value, plus the injector's tally.
  [[nodiscard]] StatsSnapshot snapshot(std::uint64_t injected) const {
    StatsSnapshot s;
#define PARSH_METRICS_LOAD(name) s.name = name.load(std::memory_order_relaxed);
#define PARSH_METRICS_INJECTED(name) s.name = injected;
    PARSH_SERVER_STATS(PARSH_METRICS_LOAD, PARSH_METRICS_INJECTED)
#undef PARSH_METRICS_LOAD
#undef PARSH_METRICS_INJECTED
    return s;
  }
};

}  // namespace parsh::server
