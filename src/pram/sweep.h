// One body per kernel: the range step.
//
// Fast executors (SeqExec, ParallelExec, and a Context over either) offer,
// beside the per-element `step`, a *sweep*: the same accounted PRAM step,
// but the body receives a contiguous index range [lo, hi) instead of one
// index, so a kernel runs one tight loop per chunk (prefetched, with no
// per-element dispatch). The verifying backends (pram::Machine,
// SymbolicExec) deliberately do NOT provide sweep: they only run
// per-element steps with tracked memory.
//
// range_step joins the two. A kernel writes its per-processor program once,
// as a range body
//
//   pram::range_step(exec, n, unit_cost,
//                    [&](std::size_t lo, std::size_t hi, auto&& m) {
//     for (std::size_t v = lo; v < hi; ++v) { ... m.rd(a, i), m.wr(b, j, x) }
//   });
//
// that touches shared memory only through m.rd / m.wr. Bodies that chase
// pointers bind their arrays as std::span locals at the top of the call
// (`const std::span<const index_t> nx = next;`, then `m.rd(nx, v)`): every
// accessor takes spans, and a local span cannot be aliased by the body's
// own uint8 stores the way a vector's begin pointer can. On a fast executor
// with tuning().fused set, that is one sweep whose chunks call
// body(lo, hi, DirectMem{}); everywhere else (Machine, SymbolicExec, and
// the fused = false legacy mode) it is one step that calls body(v, v + 1, m)
// with the executor's accessor. So the referee audits the exact body that
// ships. Prefetch hints inside a body stay behind the chunk-local guard
// `v + dist < hi`, which never holds at width 1 and never reads a cell that
// another chunk writes in the same step.
//
// Four kernels keep a separate fused body beside their per-element
// reference, because the two differ in data layout rather than by
// transcription, and branch on has_sweep_v themselves: relabel and
// relabel_rounds (SIMD crunch, uint8 label shadows, core/partition_fn.h),
// the concatenation rounds of gather_labels (SIMD shift-or,
// core/gather.h), and wyllie_ranking (interleaved {succ, rank} pairs,
// apps/list_ranking.h). tests/fused_backend_test.cpp holds them to the
// Machine referee bit for bit.
//
// sweep(n, u, ·) accounts exactly like step(n, u, ·) — same depth, time_p
// and work — so either dispatch yields bit-identical cost surfaces.
#pragma once

#include <cstddef>
#include <cstdint>

#include "pram/executor.h"
#include "pram/prefetch.h"
#include "pram/simd.h"
#include "pram/tune.h"

namespace llmp::pram {

/// Callable probe used to test for the sweep member (a named type rather
/// than a lambda so the trait works in any unevaluated context).
struct SweepProbe {
  void operator()(std::size_t, std::size_t) const {}
};

/// True when Exec offers the fused range-sweep primitive.
template <class Exec>
inline constexpr bool has_sweep_v = requires(Exec& e) {
  e.sweep(std::size_t{0}, std::uint64_t{0}, SweepProbe{});
};

/// One accounted PRAM step of n processors, each doing `unit_cost` ops,
/// whose program is the range body body(lo, hi, m): chunked with untracked
/// memory on fused fast executors, one processor per call with the
/// executor's accessor everywhere else (header comment).
template <class Exec, class Body>
void range_step(Exec& exec, std::size_t n, std::uint64_t unit_cost,
                const Body& body) {
  if constexpr (has_sweep_v<Exec>) {
    if (tuning().fused) {
      exec.sweep(n, unit_cost, [&body](std::size_t lo, std::size_t hi) {
        body(lo, hi, DirectMem{});
      });
      return;
    }
  }
  exec.step(n, unit_cost,
            [&body](std::size_t v, auto&& m) { body(v, v + 1, m); });
}

}  // namespace llmp::pram
