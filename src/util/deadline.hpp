// Cooperative cancellation budget for the query path and the serving
// layer.
//
// A Deadline is polled, never enforced: long-running loops (the
// hop-limited sweep's round loop, the s-t sweep's settle loop every 256
// vertices, ApproxShortestPaths' per-scale loop,
// query_batch's per-request loop, the server's admission and I/O paths)
// call expired() at their natural yield points and unwind with a partial,
// DEADLINE_EXCEEDED-flagged answer instead of blocking a worker. Three
// flavors share the type:
//
//  * never()        — the default; expired() is a flag test, no clock read,
//                     so pre-deadline callers pay nothing;
//  * after()/at()   — wall-clock deadlines (steady_clock), what the server
//                     derives from a request's deadline_ms;
//  * after_checks() — a deterministic test seam: expires after being
//                     polled exactly n times, independent of wall time, so
//                     "deadline hit between round k and k+1" is a
//                     reproducible fixture instead of a timing race.
//                     Copies share the countdown (a copied deadline is the
//                     same budget, not a fresh one).
//
// Check-based deadlines gate the cooperative poll sites only; blocking
// I/O waits (poll(2) in the transport) time out on the wall-clock kinds
// and fall back to a bounded re-poll interval on the check-based kind.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>

namespace parsh {

class Deadline {
 public:
  using clock = std::chrono::steady_clock;

  /// Never expires (the default).
  Deadline() = default;
  static Deadline never() { return Deadline(); }

  /// Expires `seconds` from now (non-positive: already expired).
  static Deadline after(double seconds) {
    Deadline d;
    d.has_time_ = true;
    d.at_ = clock::now() + std::chrono::duration_cast<clock::duration>(
                               std::chrono::duration<double>(seconds));
    return d;
  }

  /// Expires `ms` milliseconds from now.
  static Deadline after_ms(double ms) { return after(ms * 1e-3); }

  /// Expires at the given time point.
  static Deadline at(clock::time_point tp) {
    Deadline d;
    d.has_time_ = true;
    d.at_ = tp;
    return d;
  }

  /// Test seam: expires once expired() has been called n times (the
  /// (n+1)-th and later polls return true). Deterministic — no clock.
  static Deadline after_checks(std::uint64_t n) {
    Deadline d;
    d.checks_ = std::make_shared<std::atomic<std::uint64_t>>(n);
    return d;
  }

  [[nodiscard]] bool never_expires() const { return !has_time_ && !checks_; }

  /// Poll the budget. Monotone: once true, stays true.
  [[nodiscard]] bool expired() const {
    if (checks_) {
      // fetch_sub on an exhausted counter would wrap; decrement only
      // while positive (CAS loop — polls can race in parallel phases).
      std::uint64_t left = checks_->load(std::memory_order_relaxed);
      while (left > 0) {
        if (checks_->compare_exchange_weak(left, left - 1,
                                           std::memory_order_relaxed)) {
          return false;
        }
      }
      return true;
    }
    if (!has_time_) return false;
    return clock::now() >= at_;
  }

  /// Seconds until expiry: +inf when the deadline never expires or is
  /// check-based (callers bound their own waits there), else >= 0.
  [[nodiscard]] double remaining_seconds() const {
    if (!has_time_) return std::numeric_limits<double>::infinity();
    const auto left = std::chrono::duration<double>(at_ - clock::now()).count();
    return left > 0 ? left : 0.0;
  }

  /// Milliseconds until expiry clamped to [0, cap_ms] — the shape poll(2)
  /// wants. Never/check-based deadlines return cap_ms (bounded re-poll).
  [[nodiscard]] int remaining_ms_clamped(int cap_ms) const {
    if (!has_time_) return cap_ms;
    const double ms = remaining_seconds() * 1e3;
    if (ms <= 0) return 0;
    return ms >= static_cast<double>(cap_ms) ? cap_ms : static_cast<int>(ms) + 1;
  }

 private:
  clock::time_point at_{};
  std::shared_ptr<std::atomic<std::uint64_t>> checks_;
  bool has_time_ = false;
};

}  // namespace parsh
