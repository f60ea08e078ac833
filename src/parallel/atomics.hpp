// CAS-loop atomic combining operations (the CRCW PRAM "priority write").
// EST clustering and level-synchronous BFS resolve concurrent writes to the
// same vertex with these; EST clustering also uses the packed 64-bit
// (quantized key, via) priority word that lets a (key, via) lexicographic
// min-reduce run as a single atomic_write_min instead of three
// barrier-separated phases.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>

#include "util/types.hpp"

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
/// reduce phases are separated by parallel_for joins, whose barriers
/// publish every write before the next phase reads). Use these only under
/// that round-barrier discipline.
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

/// Atomically set *addr = max(*addr, value). Returns true iff this call
/// strictly raised the stored value.
template <typename T>
bool atomic_write_max(std::atomic<T>* addr, T value) {
  T cur = addr->load(std::memory_order_relaxed);
  while (value > cur) {
    if (addr->compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

/// Compare-and-swap convenience: set *addr = desired iff *addr == expected.
template <typename T>
bool atomic_cas(std::atomic<T>* addr, T expected, T desired) {
  return addr->compare_exchange_strong(expected, desired, std::memory_order_relaxed);
}

// ---- packed (quantized key, via) priority word ------------------------------
//
// A round-synchronous CRCW min-reduce over (key, via) pairs — key a
// non-negative double, via a vertex id, ties toward the smaller via — can be
// collapsed into ONE atomic_write_min per proposal when both halves fit one
// 64-bit word: high 40 bits the quantized key, low 24 bits the via. The
// quantization must be *exactly* order-isomorphic to double comparison or
// the packed winner could differ from the three-phase winner; we get that
// for free from IEEE-754: for non-negative finite doubles the raw bit
// pattern, read as an unsigned integer, is strictly monotone in the value.
// Within one engine round every key lies in [t, t+1) (t = the bucket key),
// so the ULP offset  bits(key) - bits(double(t))  is an injective, monotone
// image of the key. It fits 40 bits iff [t, t+1) holds at most 2^40
// representable doubles, i.e. once t >= 2^12 (spacing >= 2^-40) — exactly
// the regime Klein-Subramanian weight rounding pushes keys into. Rounds
// whose key range does not fit fall back to the three-phase reduce.

/// Bits of the packed word reserved for the via vertex id.
inline constexpr int kPackedViaBits = 24;
/// Largest packable real via id is kPackedNoVia - 1; kNoVertex maps to
/// kPackedNoVia so a self-start proposal still loses via-ties to any
/// relayed proposal, matching atomic_write_min on raw vids.
inline constexpr std::uint64_t kPackedNoVia = (std::uint64_t{1} << kPackedViaBits) - 1;
/// Quantized keys must stay below 2^40 so (qkey << 24 | via) fits 64 bits.
inline constexpr std::uint64_t kPackedKeyLimit = std::uint64_t{1} << 40;
/// "No proposal yet" — larger than every real packed word except the one
/// degenerate (max qkey, kPackedNoVia) self-start word, which is unique per
/// vertex per round and therefore harmless.
inline constexpr std::uint64_t kPackedInf = ~std::uint64_t{0};

/// Order-preserving unsigned image of a non-negative finite double.
inline std::uint64_t double_order_bits(double x) {
  return std::bit_cast<std::uint64_t>(x);
}

/// True iff every double in round `round_key`'s interval [t, t+1)
/// quantizes (as a ULP offset from t) into < 2^40 values, i.e. the packed
/// word can carry any key of the round: t >= 2^12 (spacing of doubles at
/// t is t * 2^-52). The t < 2^52 guard keeps double(t) exact and the
/// interval well-formed.
inline bool packed_round_fits(std::uint64_t round_key) {
  if (round_key >= (std::uint64_t{1} << 52)) return false;
  const double lo = static_cast<double>(round_key);
  return double_order_bits(lo + 1.0) - double_order_bits(lo) <= kPackedKeyLimit;
}

/// Pack (key, via) for a round whose base word is `base_bits` =
/// double_order_bits(double(round_key)). Requires packed_round_fits(round)
/// and via < kPackedNoVia (or via == kNoVertex).
///
/// Exact ordering semantics of atomic_write_min on the packed word: the
/// unsigned integer order of pack_key_via(k1, b, v1) vs
/// pack_key_via(k2, b, v2) (same round base b) equals the lexicographic
/// order of (k1, v1) vs (k2, v2) with doubles compared as reals and
/// kNoVertex ordered after every real via id. Three ingredients, each
/// exact — no rounding is involved anywhere:
///  * key major: the quantized key occupies the high 40 bits, so any key
///    difference dominates any via difference;
///  * key order: for non-negative finite doubles, bit_cast<uint64> is
///    strictly monotone in the value, so qkey = bits(key) - base_bits
///    preserves real order exactly (injective: distinct keys in the
///    round's interval get distinct qkeys, given packed_round_fits);
///  * via minor: equal keys produce equal high bits, leaving integer
///    order of the low 24 bits = via order, with kNoVertex mapped to the
///    all-ones kPackedNoVia (ordered last, losing ties to any real via —
///    matching atomic_write_min on raw vids in the three-phase path).
/// Hence one atomic_write_min per proposal computes exactly the
/// (key, via) lexicographic argmin the three-phase reduce computes, which
/// is why the two paths are bit-identical.
inline std::uint64_t pack_key_via(double key, std::uint64_t base_bits, vid via) {
  const std::uint64_t qkey = double_order_bits(key) - base_bits;
  const std::uint64_t packed_via = via == kNoVertex ? kPackedNoVia : via;
  return (qkey << kPackedViaBits) | packed_via;
}

}  // namespace parsh
