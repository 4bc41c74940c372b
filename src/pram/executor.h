// Executor concept and its fast implementations.
//
// Every algorithm in core/ and apps/ is a template over an Executor E
// whose single primitive is one synchronous PRAM step:
//
//   exec.step(nprocs, [&](std::size_t v, auto&& m) { ... });
//   exec.step(nprocs, unit_cost, body);   // body does `unit_cost` ops/proc
//
// Inside the body, shared memory is touched only through the accessor:
//
//   T x = m.rd(vec, i);      // read vec[i]
//   m.wr(vec, i, value);     // write vec[i]
//
// Algorithms obey the double-buffer discipline: within one step, no cell
// is read after any processor wrote it. Under that discipline, executing
// the virtual processors in any order — sequentially, or chunked over real
// threads — is equivalent to the PRAM's lockstep read-phase/write-phase
// semantics, so the fast executors below apply writes immediately. The
// discipline itself (plus EREW/CREW legality) is *verified* by
// pram::Machine (machine.h), which runs the same algorithm templates with
// tracked memory.
//
// Executors implement the cost model of stats.h: step(n, u, ·) adds
// ceil(n/p)·u to time_p, n·u to work, and 1 to depth, where p is the
// processor budget given at construction — a model parameter, independent
// of how many host threads actually execute the body.
//
// Beside step, the fast executors offer the *fused sweep* (sweep.h):
// sweep(n, u, body) is one accounted step whose body receives a contiguous
// index range [lo, hi) — inline below the parallel threshold, one chunk
// per pool thread above it — so hot kernels loop with no per-element
// dispatch. sweep accounts exactly like step. Most kernels reach it
// through pram::range_step (sweep.h), which takes one range body written
// over the m.rd / m.wr accessor and runs it as a sweep with DirectMem
// here, or one processor per call on the tracked executors — so the body
// that ships is the body the referee audits. Only four kernels whose fast
// body differs in data layout call sweep directly (sweep.h lists them).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "pram/stats.h"
#include "pram/thread_pool.h"
#include "support/check.h"

namespace llmp::pram {

/// ParallelExec threshold value meaning "never dispatch to the pool".
inline constexpr std::size_t kNeverParallel = static_cast<std::size_t>(-1);

/// Untracked pass-through memory accessor used by the fast executors.
///
/// Like every accessor it takes a shared array as a std::vector, a
/// pram::ScratchVec, or a std::span bound to one. Range bodies bind spans
/// once per call: a local (pointer, length) pair that byte-sized stores
/// cannot alias, where a vector's begin pointer would have to be reloaded
/// after every uint8 write — on the pointer-chasing kernels that reload
/// sits on the critical path.
struct DirectMem {
  template <class T>
  std::remove_const_t<T> rd(std::span<T> a, std::size_t i) const {
    LLMP_DCHECK(i < a.size());
    return a[i];
  }
  template <class T>
  void wr(std::span<T> a, std::size_t i, T v) const {
    LLMP_DCHECK(i < a.size());
    a[i] = v;
  }

  template <class T>
  T rd(const std::vector<T>& a, std::size_t i) const {
    return rd(std::span<const T>(a), i);
  }
  template <class T>
  void wr(std::vector<T>& a, std::size_t i, T v) const {
    wr(std::span<T>(a), i, v);
  }

  /// Vector-like handles (pram::ScratchVec) route through their .vec().
  template <class V>
    requires requires(const V& h) { h.vec(); }
  auto rd(const V& a, std::size_t i) const {
    return rd(a.vec(), i);
  }
  template <class V, class T>
    requires requires(V& h) { h.vec(); }
  void wr(V& a, std::size_t i, T v) const {
    using U = typename std::remove_reference_t<decltype(a.vec())>::value_type;
    wr(a.vec(), i, static_cast<U>(v));
  }
};

/// Sequential executor: virtual processors run in index order on the
/// calling thread. The default for tests and for benches, whose metric is
/// the cost model, not the wall clock.
class SeqExec {
 public:
  /// `processors` is the PRAM processor budget p used for time_p.
  explicit SeqExec(std::size_t processors) : p_(processors) {
    LLMP_CHECK(processors >= 1);
  }

  template <class F>
  void step(std::size_t nprocs, std::uint64_t unit_cost, F&& body) {
    account(nprocs, unit_cost);
    DirectMem m;
    for (std::size_t v = 0; v < nprocs; ++v) body(v, m);
  }

  template <class F>
  void step(std::size_t nprocs, F&& body) {
    step(nprocs, 1, std::forward<F>(body));
  }

  /// Fused sweep: one accounted step, body(0, nprocs) on the caller.
  template <class F>
  void sweep(std::size_t nprocs, std::uint64_t unit_cost, F&& range_body) {
    account(nprocs, unit_cost);
    if (nprocs != 0) range_body(std::size_t{0}, nprocs);
  }

  std::size_t processors() const { return p_; }
  Stats& stats() { return stats_; }
  const Stats& stats() const { return stats_; }

 private:
  void account(std::size_t nprocs, std::uint64_t unit_cost) {
    stats_.depth += 1;
    stats_.time_p += ceil_div(nprocs, p_) * unit_cost;
    stats_.work += static_cast<std::uint64_t>(nprocs) * unit_cost;
  }

  std::size_t p_;
  Stats stats_;
};

/// Thread-pool executor: each step's virtual processors are chunked over
/// the pool. Correct for all llmp algorithms by the double-buffer
/// discipline (see header comment). The processor budget p for the cost
/// model is independent of the pool size.
class ParallelExec {
 public:
  /// The inline/pooled crossover of the default constructor: steps and
  /// sweeps with fewer than 2^17 processors run on the caller. One fixed
  /// constant, so every process makes the same choice (docs/PERF.md §6
  /// records the measurements behind the value).
  static constexpr std::size_t kParallelThreshold = std::size_t{1} << 17;

  ParallelExec(std::size_t processors, ThreadPool& pool)
      : ParallelExec(processors, pool, kParallelThreshold) {}

  /// Explicit threshold: steps/sweeps with nprocs below it run inline on
  /// the caller. Whatever the threshold, a pool with zero workers pins it
  /// to kNeverParallel, so the per-step decision is one comparison.
  ParallelExec(std::size_t processors, ThreadPool& pool,
               std::size_t threshold)
      : p_(processors),
        pool_(&pool),
        threshold_(pool.workers() == 0 ? kNeverParallel : threshold) {
    LLMP_CHECK(processors >= 1);
  }

  template <class F>
  void step(std::size_t nprocs, std::uint64_t unit_cost, F&& body) {
    account(nprocs, unit_cost);
    if (nprocs < threshold_) {
      DirectMem m;
      for (std::size_t v = 0; v < nprocs; ++v) body(v, m);
      return;
    }
    // Templated chunked dispatch: the pool inlines the body per chunk, no
    // per-index std::function hop (thread_pool.h).
    pool_->parallel_for(nprocs, [&body](std::size_t v) {
      DirectMem m;
      body(v, m);
    });
  }

  template <class F>
  void step(std::size_t nprocs, F&& body) {
    step(nprocs, 1, std::forward<F>(body));
  }

  /// Fused sweep: one accounted step; the body gets contiguous [lo, hi)
  /// ranges — the whole range inline below the threshold, one chunk per
  /// pool thread above it.
  template <class F>
  void sweep(std::size_t nprocs, std::uint64_t unit_cost, F&& range_body) {
    account(nprocs, unit_cost);
    if (nprocs == 0) return;
    if (nprocs < threshold_) {
      range_body(std::size_t{0}, nprocs);
      return;
    }
    pool_->parallel_for_slices(nprocs, range_body);
  }

  std::size_t processors() const { return p_; }
  Stats& stats() { return stats_; }
  const Stats& stats() const { return stats_; }

  /// The effective inline/pooled crossover (kNeverParallel = always
  /// inline, e.g. a pool with zero workers).
  std::size_t parallel_threshold() const { return threshold_; }

 private:
  void account(std::size_t nprocs, std::uint64_t unit_cost) {
    stats_.depth += 1;
    stats_.time_p += ceil_div(nprocs, p_) * unit_cost;
    stats_.work += static_cast<std::uint64_t>(nprocs) * unit_cost;
  }

  std::size_t p_;
  ThreadPool* pool_;
  std::size_t threshold_;
  Stats stats_;
};

}  // namespace llmp::pram
