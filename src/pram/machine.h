// Lockstep PRAM simulator with memory-conflict detection.
//
// pram::Machine implements the same Executor concept as SeqExec but routes
// every rd/wr through per-cell access tracking, so it can *prove* that an
// algorithm run obeys:
//
//   * the synchronous discipline — no processor reads a cell after any
//     processor wrote it within the same step (this is what makes the fast
//     executors' immediate writes equivalent to the PRAM's two-phase
//     read-then-write step), and
//   * the declared PRAM variant's access rules (Snir's taxonomy, which the
//     paper cites): EREW — at most one reader and one writer per cell per
//     step; CREW — at most one writer; CRCW Common — concurrent writers
//     must write equal values; CRCW Arbitrary — any; CRCW Priority — the
//     lowest-numbered processor's write survives regardless of execution
//     order.
//
// Violations throw pram::model_violation by default; tests use kRecord to
// assert on the exact violation kinds. Tracking costs O(1) amortized per
// access, with memory proportional to the arrays touched, so validation
// runs use moderate n (the benches use the untracked executors for cost
// curves at scale — both account identical Stats by construction).
#pragma once

#include <concepts>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "pram/stats.h"
#include "support/check.h"

namespace llmp::pram {

enum class Mode {
  kEREW,
  kCREW,
  kCRCWCommon,
  kCRCWArbitrary,
  kCRCWPriority,
};

std::string to_string(Mode mode);

class model_violation : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct Violation {
  enum class Kind {
    kReadAfterWrite,   // synchronous-discipline break (any mode)
    kConcurrentRead,   // EREW only
    kConcurrentWrite,  // EREW/CREW, or CRCW Common with differing values
    kReadWriteClash,   // EREW: same cell read and written by distinct procs
  };
  Kind kind;
  std::size_t cell;
  std::size_t step;
  std::size_t proc_a;
  std::size_t proc_b;
};

std::string to_string(Violation::Kind kind);

class Machine {
 public:
  enum class OnViolation { kThrow, kRecord };

  Machine(Mode mode, std::size_t processors,
          OnViolation policy = OnViolation::kThrow)
      : mode_(mode), p_(processors), policy_(policy) {
    LLMP_CHECK(processors >= 1);
  }

  /// Memory accessor handed to step bodies; tracks every access.
  class Mem {
   public:
    explicit Mem(Machine& m) : m_(&m) {}

    template <class T>
    std::remove_const_t<T> rd(std::span<T> a, std::size_t i) {
      m_->on_read(a.data(), a.size(), i);
      return a[i];  // lint:allow(unchecked-index) — on_read bounds-checks
    }

    template <class T>
    void wr(std::span<T> a, std::size_t i, T v) {
      // CRCW Priority: a lower-numbered processor's value must survive, so
      // a later higher-numbered write is suppressed (on_write reports it).
      if (m_->on_write(a.data(), a.size(), i)) {
        a[i] = v;  // lint:allow(unchecked-index) — on_write bounds-checks
      } else if (m_->mode() == Mode::kCRCWCommon) {
        // Common: concurrent writers must agree. Types without operator==
        // cannot be checked; treat any concurrent write as a violation.
        if constexpr (requires(const T& x, const T& y) {
                        { x == y } -> std::convertible_to<bool>;
                      }) {
          if (!(a[i] == v)) m_->flag(Violation::Kind::kConcurrentWrite, i);
        } else {
          m_->flag(Violation::Kind::kConcurrentWrite, i);
        }
      }
    }

    /// Vectors track as spans over their storage (same cells, same key).
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
    Machine* m_;
  };

  template <class F>
  void step(std::size_t nprocs, std::uint64_t unit_cost, F&& body) {
    stats_.depth += 1;
    stats_.time_p += ceil_div(nprocs, p_) * unit_cost;
    stats_.work += static_cast<std::uint64_t>(nprocs) * unit_cost;
    ++step_id_;
    Mem m(*this);
    for (std::size_t v = 0; v < nprocs; ++v) {
      cur_proc_ = v;
      body(v, m);
    }
  }

  template <class F>
  void step(std::size_t nprocs, F&& body) {
    step(nprocs, 1, std::forward<F>(body));
  }

  std::size_t processors() const { return p_; }
  Mode mode() const { return mode_; }
  Stats& stats() { return stats_; }
  const Stats& stats() const { return stats_; }
  const std::vector<Violation>& violations() const { return violations_; }

 private:
  friend class Mem;

  // Per-array access metadata, keyed by the array's data pointer. Stamps
  // compare against the global step id, so clearing between steps is free.
  struct Meta {
    std::vector<std::uint64_t> read_stamp, write_stamp;
    std::vector<std::uint32_t> reader, writer;
  };

  Meta& meta_for(const void* base, std::size_t cells);
  void on_read(const void* base, std::size_t cells, std::size_t i);
  /// Returns true when the write should be applied (Priority may suppress).
  bool on_write(const void* base, std::size_t cells, std::size_t i);
  void flag(Violation::Kind kind, std::size_t cell,
            std::size_t other_proc = static_cast<std::size_t>(-1));

  Mode mode_;
  std::size_t p_;
  OnViolation policy_;
  Stats stats_;
  std::uint64_t step_id_ = 0;
  std::size_t cur_proc_ = 0;
  std::unordered_map<const void*, Meta> metas_;
  std::vector<Violation> violations_;
};

}  // namespace llmp::pram
