// lib-64k: single-threaded library use at n = 2^16. Every round takes the
// next list of a small seed rotation through a fixed engine mix, so the
// engines interleave rep by rep and a slow spell of the host falls on all
// of them alike. The lists are small enough that each call works mostly
// out of its core's 2 MiB L2: at n = 2^20 the same mix waits on memory,
// and on a shared host memory latency moves with the neighbours' load.
#include <memory>
#include <string>

#include "apps/list_ranking.h"
#include "common.h"
#include "core/run.h"
#include "engine/blocked_match.h"
#include "llmp.h"
#include "pram/context.h"
#include "pram/executor.h"
#include "pram/thread_pool.h"

namespace perfbench {
namespace {

using namespace llmp;

constexpr std::size_t kNodes = std::size_t{1} << 16;
constexpr std::size_t kLists = 3;
constexpr std::size_t kPoolWorkers = 2;
/// A run times at least this many rounds, so that the kept windows of
/// TimedPhase hold at least ten rounds beyond their windows' 90th
/// percentiles.
constexpr std::uint64_t kMinRounds = 200;
/// TimedPhase windows: about 20 rounds each.
constexpr double kWindowSeconds = 2.0;
/// Whole rounds of the mix in every set-up, on every list in turn: fixed
/// work that warms every context's arena and the lookup tables and
/// outweighs thread start and calibration in `setup_s`.
constexpr std::uint64_t kWarmupRounds = 12;
/// The engine's block cache holds half of the blocked working set, so
/// every run spills and reloads blocks (at 1/8 each call moves many times
/// the list through the page cache and the mix becomes an IO benchmark).
constexpr std::size_t kEngineBudgetDivisor = 2;

enum class Op {
  kSequential, kMatch1, kMatch2, kMatch3, kMatch4,
  kWyllie, kContraction, kParallelMatch4, kEngineSequential,
};
constexpr Op kMix[] = {
    Op::kSequential, Op::kMatch1,      Op::kMatch2,
    Op::kMatch3,     Op::kMatch4,      Op::kWyllie,
    Op::kContraction, Op::kParallelMatch4, Op::kEngineSequential,
};

const char* registry_name(Op op) {
  switch (op) {
    case Op::kSequential: return "sequential";
    case Op::kMatch1: return "match1";
    case Op::kMatch2: return "match2";
    case Op::kMatch3: return "match3";
    case Op::kMatch4: return "match4";
    default: return "";
  }
}

const char* op_name(Op op) {
  switch (op) {
    case Op::kWyllie: return "apps.wyllie";
    case Op::kContraction: return "apps.contraction";
    case Op::kParallelMatch4: return "pram.parallel_match4";
    case Op::kEngineSequential: return "engine.sequential";
    default: return registry_name(op);
  }
}

/// Everything one set-up builds; members are destroyed in reverse order,
/// so the pooled context goes before its executor and pool.
struct LibState {
  std::vector<list::LinkedList> lists;
  std::vector<std::vector<std::uint64_t>> ranks;  // the benchmark's walk
  std::unique_ptr<Context> ctx;
  std::unique_ptr<pram::ThreadPool> pool;
  std::unique_ptr<pram::ParallelExec> pexec;
  std::unique_ptr<pram::Context<pram::ParallelExec>> pctx;
  core::MatchOptions match4;
  core::MatchResult pout;
  core::MatchResult eout;
  engine::BlockConfig ecfg;
};

/// Per-run tallies of what the layers report about themselves.
struct LayerTally {
  std::map<std::string, double> phase_ms;  // core.<engine>.<phase>_ms sums
  std::map<std::string, std::uint64_t> traced_ops;  // per engine
  engine::EngineStats engine;
  std::uint64_t engine_ops = 0;
};

std::string metric_safe(const std::string& s) {
  std::string out = s;
  for (char& c : out) {
    const bool ok = (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) c = '-';
  }
  return out;
}

struct OpResult {
  double ns = 0;
  bool ok = false;
};

/// Runs one operation of the mix and checks its output; only the calls
/// into the program are timed, in process CPU time.
OpResult run_op(LibState& st, Op op, std::size_t li, Tracer& tr,
                std::uint64_t round, std::int64_t parent, LayerTally& tally) {
  const list::LinkedList& list = st.lists[li];
  const auto& next = list.next_array();
  const bool traced = tr.enabled();
  OpResult res;
  const double t0 = process_cpu_ns();
  auto stop = [&] { res.ns = process_cpu_ns() - t0; };
  switch (op) {
    case Op::kSequential: case Op::kMatch1: case Op::kMatch2:
    case Op::kMatch3: case Op::kMatch4: {
      const std::string name = registry_name(op);
      if (!traced) {
        Result<core::MatchResult> r = run(*st.ctx, name, list);
        stop();
        res.ok = r.ok() && check_matching(next, r->in_matching, r->edges,
                                          op == Op::kSequential);
        break;
      }
      // Traced: the same work as run() with verify on, split so that the
      // kernel and the library's own verification get a span each.
      Options no_verify;
      no_verify.verify = false;
      Result<core::MatchResult> r = [&] {
        ScopedSpan s(tr, "core", "core." + name, round, kNodes, parent);
        return run(*st.ctx, name, list, no_verify);
      }();
      bool verified = false;
      if (r.ok()) {
        ScopedSpan s(tr, "core", "core.verify", round, kNodes, parent);
        verified = core::verify::matching_status(list, r->in_matching).ok() &&
                   core::verify::maximal_status(list, r->in_matching).ok();
      }
      stop();
      res.ok = verified && check_matching(next, r->in_matching, r->edges,
                                          op == Op::kSequential);
      if (r.ok()) {
        ++tally.traced_ops[name];
        for (const pram::Phase& ph : r->phases)
          if (ph.wall_ms > 0)
            tally.phase_ms["core." + name + "." + metric_safe(ph.name) +
                           "_ms"] += ph.wall_ms;
      }
      break;
    }
    case Op::kWyllie: case Op::kContraction: {
      const bool wyllie = op == Op::kWyllie;
      apps::RankingResult rr;
      {
        ScopedSpan s(tr, "apps", wyllie ? "apps.wyllie" : "apps.contraction",
                     round, kNodes, parent);
        rr = wyllie ? apps::wyllie_ranking(st.ctx->pram_context(), list)
                    : apps::contraction_ranking(st.ctx->pram_context(), list);
      }
      stop();
      res.ok = check_ranks(rr.rank, st.ranks[li]);
      break;
    }
    case Op::kParallelMatch4: {
      Status s;
      {
        ScopedSpan span(tr, "pram", "pram.parallel_match4", round, kNodes,
                        parent);
        s = core::run_matching_into(*st.pctx, list, st.match4, st.pout);
        st.pctx->clear_phases();
      }
      stop();
      res.ok = s.ok() && check_matching(next, st.pout.in_matching,
                                        st.pout.edges, false);
      break;
    }
    case Op::kEngineSequential: {
      engine::BlockedMatcher matcher;
      Status s;
      {
        ScopedSpan span(tr, "engine", "engine.sequential", round, kNodes,
                        parent);
        s = matcher.init(list, st.ecfg);
        if (s.ok()) s = matcher.matching_into(st.eout);
      }
      stop();
      res.ok = s.ok() && check_matching(next, st.eout.in_matching,
                                        st.eout.edges, true);
      tally.engine += matcher.stats();
      ++tally.engine_ops;
      break;
    }
  }
  return res;
}

std::unique_ptr<LibState> set_up(const RunConfig& cfg, bool* ok) {
  auto st = std::make_unique<LibState>();
  Tracer& tr = *cfg.tracer;
  for (std::size_t i = 0; i < kLists; ++i) {
    const std::uint64_t seed = cfg.seed * 7919 + i;
    {
      ScopedSpan s(tr, "list", "list.generate", i, kNodes);
      st->lists.push_back(list::generators::random_list(kNodes, seed));
    }
    st->ranks.push_back(walk_ranks(st->lists.back().next_array()));
    if (st->ranks.back().empty()) *ok = false;
  }
  st->ctx = std::make_unique<Context>();
  st->pool = std::make_unique<pram::ThreadPool>(kPoolWorkers);
  st->pexec = std::make_unique<pram::ParallelExec>(1024, *st->pool);
  st->pctx = std::make_unique<pram::Context<pram::ParallelExec>>(*st->pexec);
  st->match4 = core::resolve_algorithm("match4").value();
  st->ecfg = engine::BlockConfig::from_budget(
      kNodes * sizeof(engine::NodeRec) / kEngineBudgetDivisor,
      sizeof(engine::NodeRec));
  st->ecfg.spill_dir = cfg.spill_dir;

  const bool was_on = tr.enabled();
  tr.set_enabled(false);
  LayerTally scratch;
  for (std::uint64_t round = 0; round < kWarmupRounds; ++round)
    for (Op op : kMix)
      if (!run_op(*st, op, round % kLists, tr, round, -1, scratch).ok)
        *ok = false;
  tr.set_enabled(was_on);
  return st;
}

}  // namespace

Outcome run_lib(const RunConfig& cfg) {
  Outcome out;
  Tracer& tr = *cfg.tracer;
  // A traced run records spans from the start, set-up included.
  tr.set_enabled(cfg.traced);

  std::vector<double> setup_s;
  std::unique_ptr<LibState> st;
  for (int k = 0; k < cfg.setups; ++k) {
    st.reset();
    const auto t0 = k == 0 ? cfg.process_start : Clock::now();
    bool ok = true;
    st = set_up(cfg, &ok);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    if (!ok) out.correct = false;
  }

  LayerTally tally;
  const std::uint64_t takes0 = st->pctx->arena().takes();
  const std::uint64_t hits0 = st->pctx->arena().hits();
  TimedPhase phase(kWindowSeconds, /*wall_clock=*/false);
  std::map<std::string, double> mix_ns;  // per operation of the mix
  double traced_ns = 0, untraced_ns = 0;
  std::uint64_t rounds = 0, traced_nodes = 0, untraced_nodes = 0;
  const auto t_start = Clock::now();
  for (std::uint64_t round = 0;; ++round) {
    const std::size_t li = round % kLists;
    // Traced mode alternates traced and untraced rounds; their ratio is
    // the tracing overhead.
    const bool traced = cfg.traced && round % 2 == 0;
    tr.set_enabled(traced);
    ScopedSpan rs(tr, "bench", "bench.round", round, kNodes * std::size(kMix));
    double round_ns = 0;
    std::uint64_t checked = 0;
    for (Op op : kMix) {
      const OpResult r = run_op(*st, op, li, tr, round, rs.id(), tally);
      round_ns += r.ns;
      mix_ns[op_name(op)] += r.ns;
      ++out.attempted;
      if (r.ok) checked += kNodes;
      else ++out.failed;
    }
    phase.add(round_ns, round_ns, checked);
    (traced ? traced_ns : untraced_ns) += round_ns;
    (traced ? traced_nodes : untraced_nodes) += kNodes * std::size(kMix);
    rounds = round + 1;
    // A traced run needs one traced and one untraced round.
    if (rounds >= (cfg.traced ? 2 : kMinRounds) &&
        seconds_between(t_start, Clock::now()) >= cfg.seconds)
      break;
  }
  phase.finish();
  tr.set_enabled(false);

  const Timing timing = phase.summarize();
  out.end_to_end["setup_s"] = {quantile(setup_s, 0.5), "s"};
  out.end_to_end["peak_rss_mb"] = {peak_rss_mib(), "MiB"};
  out.end_to_end["ns_per_node"] = {timing.ns_per_node, "ns"};
  out.end_to_end["batch_p50_ms"] = {timing.p50_ms, "ms"};
  out.end_to_end["batch_p90_ms"] = {timing.p90_ms, "ms"};
  out.notes["host.steal_share"] = phase.steal_share();
  out.notes["windows"] = static_cast<double>(phase.windows());
  out.notes["batch_samples"] = static_cast<double>(timing.samples);
  for (std::size_t k = 0; k < setup_s.size(); ++k)
    out.notes["setup_s." + std::to_string(k)] = setup_s[k];
  for (const auto& [name, ns] : mix_ns)
    out.notes["mix." + name + ".ns_per_node"] =
        ns / static_cast<double>(rounds * kNodes);
  // llmp::run appends every phase to the Context's metrics sink and
  // nothing clears it, so this grows with every call.
  out.notes["core.context_phases_retained"] =
      static_cast<double>(st->ctx->phases().size());
  // Measured per process by pram::calibrate_parallel_threshold.
  out.notes["pram.parallel_threshold"] =
      static_cast<double>(st->pexec->parallel_threshold());
  if (!cfg.traced) return out;

  auto per_node = [&](const std::string& span) {
    const SpanTotal t = span_total(tr, span);
    return t.nodes == 0 ? 0.0 : t.ns / static_cast<double>(t.nodes);
  };
  auto& L = out.per_layer;
  L["list.generate_ns_per_node"] = {per_node("list.generate"), "ns"};
  for (Op op : {Op::kSequential, Op::kMatch1, Op::kMatch2, Op::kMatch3,
                Op::kMatch4}) {
    const std::string name = registry_name(op);
    L["core." + name + ".ns_per_node"] = {per_node("core." + name), "ns"};
  }
  for (const auto& [metric, ms] : tally.phase_ms) {
    // metric is core.<engine>.<phase>_ms; divide by that engine's ops.
    const std::string engine_name =
        metric.substr(5, metric.find('.', 5) - 5);
    L[metric] = {ms / static_cast<double>(tally.traced_ops[engine_name]), "ms"};
  }
  L["core.verify_ns_per_node"] = {per_node("core.verify"), "ns"};
  L["apps.wyllie.ns_per_node"] = {per_node("apps.wyllie"), "ns"};
  L["apps.contraction.ns_per_node"] = {per_node("apps.contraction"), "ns"};
  L["pram.parallel_match4.ns_per_node"] = {per_node("pram.parallel_match4"),
                                           "ns"};
  const std::uint64_t takes = st->pctx->arena().takes() - takes0;
  const std::uint64_t hits = st->pctx->arena().hits() - hits0;
  // 1.0 when nothing was leased, as engine::EngineStats::hit_rate() does.
  L["pram.arena_hit_ratio"] = {
      takes == 0 ? 1.0 : static_cast<double>(hits) / static_cast<double>(takes),
      "ratio"};
  out.notes["pram.arena_takes"] = static_cast<double>(takes);
  L["engine.sequential.ns_per_node"] = {per_node("engine.sequential"), "ns"};
  L["engine.hit_ratio"] = {tally.engine.hit_rate(), "ratio"};
  const double eops = static_cast<double>(tally.engine_ops);
  L["engine.load_bytes"] = {
      static_cast<double>(tally.engine.load_bytes) / eops, "bytes"};
  L["engine.spill_bytes"] = {
      static_cast<double>(tally.engine.spill_bytes) / eops, "bytes"};
  out.notes["engine.pins"] =
      static_cast<double>(tally.engine.hits + tally.engine.misses);
  const double traced_pn = traced_ns / static_cast<double>(traced_nodes);
  const double untraced_pn =
      untraced_nodes == 0
          ? 0
          : untraced_ns / static_cast<double>(untraced_nodes);
  L["trace.overhead_ratio"] = {untraced_pn > 0 ? traced_pn / untraced_pn : 0,
                               "ratio"};
  return out;
}

}  // namespace perfbench
