// Trace-recording executor for the access-pattern prover.
//
// SymbolicExec implements the same Executor concept as SeqExec /
// Machine (executor.h), so every algorithm template in core/ and
// apps/ runs on it unchanged. Each rd/wr is applied to the real vector
// (the algorithm computes its genuine result, including all data-dependent
// control flow) and simultaneously appended to a Trace. The prover then
// analyzes the trace offline: replaying it reproduces pram::Machine's
// conflict detection verdict for the run, and classifying its footprints
// (footprint.h) upgrades per-run facts to symbolic for-all-n statements
// wherever the pattern is affine in the processor index.
//
// Arrays are identified by their data pointer at access time, exactly like
// pram::Machine keys its per-cell metadata — ids are assigned densely in
// first-touch order so traces are comparable across runs. The usual
// caveat applies: an allocator may reuse a freed buffer's address for a
// later vector, merging their ids. Ids only group accesses for reporting;
// conflict detection is per step, where pointers are stable (no llmp step
// body resizes a shared vector mid-step), so this never affects verdicts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "pram/stats.h"
#include "pram/trace.h"
#include "support/check.h"

namespace llmp::pram {

class SymbolicExec {
 public:
  explicit SymbolicExec(std::size_t processors) : p_(processors) {
    LLMP_CHECK(processors >= 1);
  }

  /// Memory accessor handed to step bodies; applies and records.
  class Mem {
   public:
    explicit Mem(SymbolicExec& e) : e_(&e) {}

    template <class T>
    std::remove_const_t<T> rd(std::span<T> a, std::size_t i) {
      LLMP_CHECK_MSG(i < a.size(), "SymbolicExec: read out of bounds");
      e_->record(a.data(), i, /*is_write=*/false, /*has_value=*/false, 0);
      return a[i];  // lint:allow(unchecked-index) — checked above
    }

    template <class T>
    void wr(std::span<T> a, std::size_t i, T v) {
      LLMP_CHECK_MSG(i < a.size(), "SymbolicExec: write out of bounds");
      bool hashed = false;
      std::uint64_t h = 0;
      if constexpr (std::is_trivially_copyable_v<T>) {
        h = fnv1a(&v, sizeof(T));
        hashed = true;
      }
      e_->record(a.data(), i, /*is_write=*/true, hashed, h);
      a[i] = v;  // lint:allow(unchecked-index) — checked above
    }

    /// Vectors record as spans over their storage (same cells, same key).
    template <class T>
    T rd(const std::vector<T>& a, std::size_t i) {
      return rd(std::span<const T>(a), i);
    }
    template <class T>
    void wr(std::vector<T>& a, std::size_t i, T v) {
      wr(std::span<T>(a), i, v);
    }

    /// Vector-like handles (pram::ScratchVec) route through their .vec().
    template <class V>
      requires requires(const V& h) { h.vec(); }
    auto rd(const V& a, std::size_t i) {
      return rd(a.vec(), i);
    }
    template <class V, class T>
      requires requires(V& h) { h.vec(); }
    void wr(V& a, std::size_t i, T v) {
      using U = typename std::remove_reference_t<decltype(a.vec())>::value_type;
      wr(a.vec(), i, static_cast<U>(v));
    }

   private:
    SymbolicExec* e_;
  };

  template <class F>
  void step(std::size_t nprocs, std::uint64_t unit_cost, F&& body) {
    stats_.depth += 1;
    stats_.time_p += ceil_div(nprocs, p_) * unit_cost;
    stats_.work += static_cast<std::uint64_t>(nprocs) * unit_cost;
    trace_.steps.emplace_back();
    trace_.steps.back().nprocs = nprocs;
    Mem m(*this);
    for (std::size_t v = 0; v < nprocs; ++v) {
      cur_proc_ = static_cast<std::uint32_t>(v);
      body(v, m);
    }
  }

  template <class F>
  void step(std::size_t nprocs, F&& body) {
    step(nprocs, 1, std::forward<F>(body));
  }

  std::size_t processors() const { return p_; }
  Stats& stats() { return stats_; }
  const Stats& stats() const { return stats_; }
  const Trace& trace() const { return trace_; }

  /// Moves the recorded trace out and resets recording state.
  Trace take_trace() {
    Trace t = std::move(trace_);
    trace_ = Trace{};
    ids_.clear();
    return t;
  }

 private:
  friend class Mem;

  static std::uint64_t fnv1a(const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    std::uint64_t h = 1469598103934665603ull;
    for (std::size_t i = 0; i < bytes; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
    return h;
  }

  void record(const void* base, std::size_t cell, bool is_write,
              bool has_value, std::uint64_t value_hash) {
    LLMP_CHECK_MSG(!trace_.steps.empty(),
                   "shared access outside any step body");
    auto [it, inserted] =
        ids_.emplace(base, static_cast<std::uint32_t>(ids_.size()));
    if (inserted) trace_.arrays = ids_.size();
    trace_.steps.back().accesses.push_back(Access{
        it->second, cur_proc_, static_cast<std::uint64_t>(cell), is_write,
        has_value, value_hash});
  }

  std::size_t p_;
  Stats stats_;
  Trace trace_;
  std::uint32_t cur_proc_ = 0;
  std::unordered_map<const void*, std::uint32_t> ids_;
};

}  // namespace llmp::pram
