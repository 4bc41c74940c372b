// Result type shared by all matching algorithms.
#pragma once

#include <cstdint>
#include <vector>

#include "core/cut.h"
#include "pram/stats.h"
#include "pram/sweep.h"
#include "support/types.h"

namespace llmp::core {

struct MatchResult {
  /// in_matching[v] == 1 ⇔ pointer <v, suc(v)> is in the matching.
  std::vector<std::uint8_t> in_matching;
  std::size_t edges = 0;  ///< number of chosen pointers

  pram::Stats cost;              ///< total PRAM cost of the run
  pram::PhaseBreakdown phases;   ///< per-phase deltas (see stats.h)

  int relabel_rounds = 0;        ///< deterministic-coin-tossing rounds used
  int gather_rounds = 0;         ///< Match3/4 concatenation-jump rounds
  std::size_t table_cells = 0;   ///< Match3/4 lookup-table size (0 = none)
  std::size_t partition_sets = 0;  ///< matching sets before combining
  CutStats cut;                  ///< step-3/4 audit numbers

  /// Reset for reuse by the *_into entry points: clears counters and the
  /// phase list while keeping vector capacity, so warm calls through a
  /// pram::Context allocate nothing.
  void reset() {
    edges = 0;
    cost = {};
    phases.clear();
    relabel_rounds = 0;
    gather_rounds = 0;
    table_cells = 0;
    partition_sets = 0;
    cut = {};
  }
};

/// Compute the predecessor array as one PRAM step pair (init + scatter)
/// into a caller-sized buffer; writes are exclusive (each node has at most
/// one predecessor) — EREW.
template <class Exec>
void parallel_predecessors_into(Exec& exec, const list::LinkedList& list,
                                std::vector<index_t>& pred) {
  const std::size_t n = list.size();
  const auto& next = list.next_array();
  LLMP_CHECK(pred.size() == n);
  pram::range_step(exec, n, 1, [&](std::size_t lo, std::size_t hi, auto&& m) {
    for (std::size_t v = lo; v < hi; ++v) m.wr(pred, v, knil);
  });
  const std::size_t dist =
      static_cast<std::size_t>(pram::tuning().prefetch.distance);
  pram::range_step(exec, n, 1, [&](std::size_t lo, std::size_t hi, auto&& m) {
    for (std::size_t v = lo; v < hi; ++v) {
      if (dist != 0 && v + dist < hi) {
        const index_t pf = m.rd(next, v + dist);
        if (pf != knil) pram::prefetch_rw(pred.data() + pf);
      }
      const index_t s = m.rd(next, v);
      if (s != knil)
        m.wr(pred, static_cast<std::size_t>(s), static_cast<index_t>(v));
    }
  });
}

template <class Exec>
std::vector<index_t> parallel_predecessors(Exec& exec,
                                           const list::LinkedList& list) {
  std::vector<index_t> pred(list.size());
  parallel_predecessors_into(exec, list, pred);
  return pred;
}

}  // namespace llmp::core
