// Process-wide tuning for the fused fast paths.
//
// One mutable singleton gathers the runtime switches of the raw-speed
// layer so benches and the differential tests can flip them without
// rebuilding:
//
//   fused              run kernels as chunked sweeps (vs. one processor
//                      per step call)
//   prefetch.distance  look-ahead of the prefetching sweeps, 0 disables
//
// With `fused` off, a kernel written once through pram::range_step
// (sweep.h) runs its single body at width 1 through the per-element step,
// and the four kernels that keep a separate fused body (relabel,
// relabel_rounds, the gather concatenation rounds, wyllie_ranking) run
// their reference body. (The SIMD level has its own switch in simd.h — it
// additionally depends on what the CPU supports, and is the one knob with
// an environment override, LLMP_SIMD.) Every combination of these
// switches produces bit-identical results and bit-identical PRAM cost
// surfaces; the knobs only move wall-clock time. That invariant is what
// tests/fused_backend_test.cpp enforces against the pram::Machine referee.
//
// The struct is read at sweep entry, not per element; toggling it between
// runs is cheap and exact. It is not synchronized: flip it only while no
// sweeps are in flight (benches and tests do so from their main thread).
#pragma once

#include "pram/prefetch.h"

namespace llmp::pram {

struct SweepTuning {
  /// Chunked sweeps on executors that support them (has_sweep_v).
  bool fused = true;
  /// Software-prefetch policy for the pointer-chasing sweeps.
  PrefetchPolicy prefetch;
};

/// The process-wide tuning block (defaults: fused, prefetch distance 16).
inline SweepTuning& tuning() {
  static SweepTuning t;
  return t;
}

}  // namespace llmp::pram
