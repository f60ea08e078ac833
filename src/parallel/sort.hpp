// Parallel comparison sort (blocked merge sort). Used by the CSR builder
// (sorting edge lists) and by the weighted spanner's bucket grouping.
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

#include "parallel/team.hpp"

namespace parsh {

/// Sort `v` with comparator `cmp`, splitting the work across the pool:
/// one stage sorts one block per worker, then ceil(log2 width) stages
/// merge neighbouring runs in pairs. Not stable: elements that compare
/// equal may end in any order.
template <typename T, typename Cmp = std::less<T>>
void parallel_sort(std::vector<T>& v, Cmp cmp = Cmp{}) {
  if (v.size() < 8192 || num_workers() == 1) {
    std::sort(v.begin(), v.end(), cmp);
    return;
  }
  Team::drive([&](Team& team) {
    const auto blocks = static_cast<std::size_t>(team.size());
    const auto at = [&](std::vector<T>& x, std::size_t b) {
      return x.begin() + static_cast<std::ptrdiff_t>(v.size() * std::min(b, blocks) / blocks);
    };
    std::size_t stages = 0;
    while ((std::size_t{1} << stages) < blocks) ++stages;
    std::vector<T> buf(blocks > 1 ? v.size() : 0);
    // Sort the blocks in the buffer the merges alternate away from, so the
    // last merge stage writes into v.
    std::vector<T>* from = stages % 2 == 1 ? &buf : &v;
    std::vector<T>* to = stages % 2 == 1 ? &v : &buf;
    team.loop(0, blocks, 1, [&](std::size_t b) {
      if (from != &v) std::copy(at(v, b), at(v, b + 1), at(*from, b));
      std::sort(at(*from, b), at(*from, b + 1), cmp);
    });
    for (std::size_t run = 1; run < blocks; run *= 2, std::swap(from, to)) {
      team.loop(0, (blocks + 2 * run - 1) / (2 * run), 1, [&](std::size_t p) {
        const std::size_t lo = 2 * p * run;
        std::merge(at(*from, lo), at(*from, lo + run), at(*from, lo + run),
                   at(*from, lo + 2 * run), at(*to, lo), cmp);
      });
    }
  });
}

}  // namespace parsh
