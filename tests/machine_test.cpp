// Tests for the lockstep PRAM simulator: cost accounting, and conflict
// detection under every memory mode (Snir's taxonomy, which the paper
// cites as its model reference [14]); and for pram::range_step, the one
// kernel body that runs chunked on the fast executors and one processor
// per call on this referee.
#include "pram/machine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "pram/executor.h"
#include "pram/sweep.h"
#include "pram/thread_pool.h"

namespace llmp::pram {
namespace {

TEST(Machine, CostAccountingMatchesBrentScheduling) {
  Machine m(Mode::kCREW, /*processors=*/4);
  std::vector<int> a(10, 0);
  m.step(10, [&](std::size_t v, auto&& mem) { mem.wr(a, v, int(v)); });
  EXPECT_EQ(m.stats().depth, 1u);
  EXPECT_EQ(m.stats().time_p, 3u);  // ceil(10/4)
  EXPECT_EQ(m.stats().work, 10u);
  m.step(2, 5, [&](std::size_t v, auto&& mem) { mem.wr(a, v, 0); });
  EXPECT_EQ(m.stats().depth, 2u);
  EXPECT_EQ(m.stats().time_p, 3u + 5u);  // ceil(2/4)·5
  EXPECT_EQ(m.stats().work, 10u + 10u);
}

TEST(Machine, SeqExecAccountsIdentically) {
  // The untracked executor must produce the same Stats (minus rd/wr
  // counters) as the Machine for the same step sequence.
  Machine m(Mode::kCREW, 3);
  SeqExec e(3);
  std::vector<int> a(8, 0), b(8, 0);
  auto run = [&](auto& exec) {
    exec.step(8, [&](std::size_t v, auto&& mem) {
      mem.wr(a, v, int(v));
    });
    exec.step(4, 7, [&](std::size_t v, auto&& mem) {
      mem.wr(b, v, mem.rd(a, v));
    });
  };
  run(m);
  run(e);
  EXPECT_EQ(m.stats().depth, e.stats().depth);
  EXPECT_EQ(m.stats().time_p, e.stats().time_p);
  EXPECT_EQ(m.stats().work, e.stats().work);
}

TEST(Machine, DetectsReadAfterWriteAcrossProcessors) {
  Machine m(Mode::kCRCWArbitrary, 8);  // even the weakest mode flags RAW
  std::vector<int> a(4, 0);
  EXPECT_THROW(m.step(4,
                      [&](std::size_t v, auto&& mem) {
                        if (v == 1) mem.wr(a, 0, 42);
                        if (v == 2) (void)mem.rd(a, 0);
                      }),
               model_violation);
}

TEST(Machine, AllowsSameProcessorReadModifyWrite) {
  Machine m(Mode::kEREW, 8);
  std::vector<int> a(4, 0);
  EXPECT_NO_THROW(m.step(4, 3, [&](std::size_t v, auto&& mem) {
    mem.wr(a, v, mem.rd(a, v) + 1);
    mem.wr(a, v, mem.rd(a, v) + 1);
  }));
  EXPECT_EQ(a[2], 2);
}

TEST(Machine, ErewFlagsConcurrentRead) {
  Machine m(Mode::kEREW, 8);
  std::vector<int> a(4, 7);
  EXPECT_THROW(m.step(2,
                      [&](std::size_t, auto&& mem) { (void)mem.rd(a, 3); }),
               model_violation);
}

TEST(Machine, CrewAllowsConcurrentRead) {
  Machine m(Mode::kCREW, 8);
  std::vector<int> a(4, 7);
  int sum = 0;
  EXPECT_NO_THROW(m.step(4, [&](std::size_t, auto&& mem) {
    sum += mem.rd(a, 3);
  }));
  EXPECT_EQ(sum, 28);
}

TEST(Machine, CrewFlagsConcurrentWrite) {
  Machine m(Mode::kCREW, 8);
  std::vector<int> a(4, 0);
  EXPECT_THROW(
      m.step(2, [&](std::size_t v, auto&& mem) { mem.wr(a, 1, int(v)); }),
      model_violation);
}

TEST(Machine, CrcwCommonAcceptsEqualValuesRejectsDiffering) {
  {
    Machine m(Mode::kCRCWCommon, 8);
    std::vector<int> a(2, 0);
    EXPECT_NO_THROW(
        m.step(4, [&](std::size_t, auto&& mem) { mem.wr(a, 0, 9); }));
    EXPECT_EQ(a[0], 9);
  }
  {
    Machine m(Mode::kCRCWCommon, 8);
    std::vector<int> a(2, 0);
    EXPECT_THROW(
        m.step(2, [&](std::size_t v, auto&& mem) { mem.wr(a, 0, int(v)); }),
        model_violation);
  }
}

TEST(Machine, CrcwPriorityLowestProcessorWins) {
  Machine m(Mode::kCRCWPriority, 8);
  std::vector<int> a(1, -1);
  // Writes arrive in ascending proc order here, but the rule must hold
  // regardless; proc 0's value survives.
  m.step(5, [&](std::size_t v, auto&& mem) { mem.wr(a, 0, int(v) + 100); });
  EXPECT_EQ(a[0], 100);
}

TEST(Machine, CrcwArbitraryAllowsAnything) {
  Machine m(Mode::kCRCWArbitrary, 8);
  std::vector<int> a(1, -1);
  EXPECT_NO_THROW(
      m.step(5, [&](std::size_t v, auto&& mem) { mem.wr(a, 0, int(v)); }));
}

TEST(Machine, RecordPolicyCollectsInsteadOfThrowing) {
  Machine m(Mode::kEREW, 8, Machine::OnViolation::kRecord);
  std::vector<int> a(4, 0);
  m.step(3, [&](std::size_t, auto&& mem) { (void)mem.rd(a, 0); });
  ASSERT_EQ(m.violations().size(), 2u);  // 2nd and 3rd readers
  EXPECT_EQ(m.violations()[0].kind, Violation::Kind::kConcurrentRead);
  EXPECT_EQ(m.violations()[0].cell, 0u);
}

TEST(Machine, ErewFlagsReadWriteClash) {
  Machine m(Mode::kEREW, 8);
  std::vector<int> a(4, 0);
  EXPECT_THROW(m.step(2,
                      [&](std::size_t v, auto&& mem) {
                        if (v == 0) (void)mem.rd(a, 2);
                        if (v == 1) mem.wr(a, 2, 5);
                      }),
               model_violation);
}

TEST(Machine, FreshStepsClearConflictState) {
  Machine m(Mode::kEREW, 8);
  std::vector<int> a(1, 0);
  // Same cell accessed in consecutive steps by different procs: legal.
  m.step(1, [&](std::size_t, auto&& mem) { mem.wr(a, 0, 1); });
  EXPECT_NO_THROW(
      m.step(2, [&](std::size_t v, auto&& mem) {
        if (v == 1) (void)mem.rd(a, 0);
      }));
}

// ---- pram::range_step ------------------------------------------------------

/// Restores the process-wide tuning block on scope exit.
struct TuningGuard {
  SweepTuning saved = tuning();
  ~TuningGuard() { tuning() = saved; }
};

using Range = std::pair<std::size_t, std::size_t>;

/// The [lo, hi) ranges one range_step of n processors handed its body,
/// sorted by lo.
template <class Exec>
std::vector<Range> ranges_of(Exec& exec, std::size_t n) {
  std::mutex mu;
  std::vector<Range> got;
  range_step(exec, n, 1, [&](std::size_t lo, std::size_t hi, auto&&) {
    std::lock_guard<std::mutex> lock(mu);
    got.emplace_back(lo, hi);
  });
  std::sort(got.begin(), got.end());
  return got;
}

TEST(RangeStep, ChargesExactlyLikeStep) {
  TuningGuard guard;
  ThreadPool pool(2);
  std::vector<int> a(5000, 0);
  auto body = [&](std::size_t lo, std::size_t hi, auto&& m) {
    for (std::size_t v = lo; v < hi; ++v) m.wr(a, v, m.rd(a, v) + 1);
  };
  auto compare = [&](auto& ranged, auto& stepped) {
    for (const auto& [n, u] : {Range{0, 1}, Range{7, 1}, Range{5000, 3}}) {
      range_step(ranged, n, u, body);
      stepped.step(n, u, [&](std::size_t v, auto&& m) {
        m.wr(a, v, m.rd(a, v) + 1);
      });
    }
    EXPECT_EQ(ranged.stats().depth, stepped.stats().depth);
    EXPECT_EQ(ranged.stats().time_p, stepped.stats().time_p);
    EXPECT_EQ(ranged.stats().work, stepped.stats().work);
    EXPECT_EQ(ranged.stats().reads, stepped.stats().reads);
    EXPECT_EQ(ranged.stats().writes, stepped.stats().writes);
  };
  for (const bool fused : {true, false}) {
    tuning().fused = fused;
    SeqExec s1(4), s2(4);
    compare(s1, s2);
    ParallelExec p1(4, pool, 1024), p2(4, pool, 1024);
    compare(p1, p2);
    Machine m1(Mode::kEREW, 4), m2(Mode::kEREW, 4);
    compare(m1, m2);
  }
}

TEST(RangeStep, SeqExecCallsTheBodyOnceOverTheWholeRange) {
  TuningGuard guard;
  tuning().fused = true;
  SeqExec exec(4);
  EXPECT_EQ(ranges_of(exec, 1000), (std::vector<Range>{{0, 1000}}));
  EXPECT_TRUE(ranges_of(exec, 0).empty());
}

TEST(RangeStep, ParallelExecChunksCoverTheRangeDisjointly) {
  TuningGuard guard;
  tuning().fused = true;
  ThreadPool pool(2);
  ParallelExec exec(4, pool, /*threshold=*/1024);
  const std::size_t n = 10000;
  const std::vector<Range> got = ranges_of(exec, n);
  ASSERT_GT(got.size(), 1u);  // above the threshold: pooled chunks
  std::size_t next = 0;
  for (const auto& [lo, hi] : got) {
    EXPECT_EQ(lo, next);  // sorted, disjoint and gap-free
    EXPECT_LT(lo, hi);
    next = hi;
  }
  EXPECT_EQ(next, n);
  // Below the threshold the whole range runs inline in one call.
  EXPECT_EQ(ranges_of(exec, 1000), (std::vector<Range>{{0, 1000}}));
}

TEST(RangeStep, UnfusedCallsHaveWidthOne) {
  TuningGuard guard;
  tuning().fused = false;
  ThreadPool pool(2);
  SeqExec seq(4);
  ParallelExec par(4, pool, 1024);
  Machine machine(Mode::kEREW, 4);
  for (const std::size_t n : {std::size_t{7}, std::size_t{5000}}) {
    std::vector<Range> expect;
    for (std::size_t v = 0; v < n; ++v) expect.emplace_back(v, v + 1);
    EXPECT_EQ(ranges_of(seq, n), expect);
    EXPECT_EQ(ranges_of(par, n), expect);
    EXPECT_EQ(ranges_of(machine, n), expect);
  }
}

TEST(RangeStep, MachineAuditsTheShippedBody) {
  // A seeded mutant: each processor reads its right neighbour's cell in the
  // same step the neighbour writes it. Chunked on a fast executor it would
  // silently read whatever the chunk order left there; through range_step
  // the referee runs this very body and flags every clash.
  const std::size_t n = 16;
  std::vector<int> a(n, 0);
  auto mutant = [&](std::size_t lo, std::size_t hi, auto&& m) {
    for (std::size_t v = lo; v < hi; ++v) {
      const int right = v + 1 < n ? m.rd(a, v + 1) : 0;
      m.wr(a, v, right + 1);
    }
  };
  Machine machine(Mode::kEREW, 4, Machine::OnViolation::kRecord);
  range_step(machine, n, 1, mutant);
  ASSERT_EQ(machine.violations().size(), n - 1);
  for (const Violation& x : machine.violations())
    EXPECT_EQ(x.kind, Violation::Kind::kReadWriteClash);

  // The repaired body (each processor reads only its own cell) is clean.
  Machine clean(Mode::kEREW, 4, Machine::OnViolation::kRecord);
  range_step(clean, n, 1, [&](std::size_t lo, std::size_t hi, auto&& m) {
    for (std::size_t v = lo; v < hi; ++v) m.wr(a, v, m.rd(a, v) + 1);
  });
  EXPECT_TRUE(clean.violations().empty());
}

}  // namespace
}  // namespace llmp::pram
