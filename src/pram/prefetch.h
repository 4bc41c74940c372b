// Software-prefetch policy seam.
//
// This header is the ONLY place in the tree allowed to spell
// __builtin_prefetch (enforced by llmp_lint's raw-intrinsic rule): every
// pointer-chasing sweep in core/ and apps/ hints the cache through these
// wrappers, so the policy — distance, on/off, future locality tuning —
// lives in one file instead of being scattered through the kernels.
//
// Prefetching matters exactly where the PRAM model says it shouldn't: the
// relabel / pointer-doubling sweeps read a[next[v]] for a random-ish next,
// so at list sizes past the last-level cache every element is a ~100ns
// miss. Issuing the load `distance` iterations early overlaps that miss
// with useful work; the sweet spot is memory-system dependent, hence the
// distance is a runtime field of pram::tuning() (0 disables) that benches
// and tests set directly.
#pragma once

namespace llmp::pram {

/// Tunable knobs for the prefetching sweeps. Carried inside SweepTuning
/// (tune.h); kernels receive the distance as a plain loop-hoisted value.
struct PrefetchPolicy {
  /// Elements of look-ahead in fused sweeps. 0 = no prefetching.
  int distance = 16;
};

/// Hint a future read of *p. Safe on any address; no-op off GCC/Clang.
inline void prefetch_ro(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/3);
#else
  (void)p;
#endif
}

/// Hint a future write of *p.
inline void prefetch_rw(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/1, /*locality=*/3);
#else
  (void)p;
#endif
}

}  // namespace llmp::pram
