// serve-gen-64k: a closed loop over loopback TCP. One client connection
// submits fixed-size pipelined batches of `sequential` requests that name
// (n, seed) lists the server generates once and caches; each batch waits
// for all its answers before the next is sent. The server runs a
// serve::Service with two workers in this process. The kernel is cheap,
// so the serve and net hand-off is a large share of each request.
#include <latch>
#include <memory>
#include <string>

#include "common.h"
#include "llmp.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "stabilize/audit.h"

namespace perfbench {
namespace {

using namespace llmp;

constexpr std::size_t kNodes = std::size_t{1} << 16;
constexpr std::size_t kLists = 8;
constexpr std::size_t kWorkers = 2;
/// Requests per submit_batch. At 32 a single scheduling hiccup on one of
/// the four threads decides a batch, and on a busy host the 90th
/// percentile spread up to 0.26 of its median from run to run even with
/// the steal taken out (TimedPhase). Each request in flight holds a 64 KiB
/// MatchResult until the IO thread encodes its answer, so a larger batch
/// lets a stalled IO thread raise peak_rss_mb by more: its spread was
/// 0.02 at 32, 0.06 at 48, up to 0.10 at 64 and up to 0.34 at 256.
constexpr std::size_t kBatch = 48;
/// Fixed warm-up work in every set-up (2,016 requests): every list is
/// cached and every worker's arena warm long before it ends.
constexpr std::size_t kWarmupBatches = 42;
/// TimedPhase windows: about 130 batches each, so every window's 90th
/// percentile has ten samples beyond it.
constexpr double kWindowSeconds = 2.0;

/// Times a worker took a request off the queue; read by the same worker's
/// on_ready hook for that request.
thread_local Clock::time_point tls_dequeued;

struct ServeState {
  std::vector<list::LinkedList> lists;
  std::vector<core::MatchResult> refs;  // checked in-process results
  std::vector<std::uint64_t> seeds;
  std::vector<RequestBuilder> batch;    // every batch sends these requests
  std::unique_ptr<serve::Service> svc;
  std::unique_ptr<net::Server> server;
  std::unique_ptr<net::Client> client;
};

/// A wire summary against the checked in-process result on the same list.
bool summary_matches(const core::MatchResult& got,
                     const core::MatchResult& ref) {
  return got.edges == ref.edges && got.edges == kNodes / 2 &&
         got.relabel_rounds == ref.relabel_rounds &&
         got.gather_rounds == ref.gather_rounds &&
         got.partition_sets == ref.partition_sets &&
         got.cost.depth == ref.cost.depth &&
         got.cost.time_p == ref.cost.time_p && got.cost.work == ref.cost.work;
}

/// Submits one batch over the connection; returns the requests whose
/// answers passed the checks.
std::size_t tcp_batch(ServeState& st, Outcome& out) {
  const auto results = st.client->submit_batch(st.batch);
  std::size_t ok = 0;
  for (std::size_t j = 0; j < results.size(); ++j) {
    ++out.attempted;
    if (results[j].ok() && summary_matches(*results[j], st.refs[j % kLists]))
      ++ok;
    else
      ++out.failed;
  }
  return ok;
}

std::unique_ptr<ServeState> set_up(const RunConfig& cfg, Outcome& warm,
                                   bool* ok) {
  auto st = std::make_unique<ServeState>();
  Tracer& tr = *cfg.tracer;
  Context ctx;
  for (std::size_t i = 0; i < kLists; ++i) {
    const std::uint64_t seed = cfg.seed * 7919 + i;
    st->seeds.push_back(seed);
    {
      ScopedSpan s(tr, "list", "list.generate", i, kNodes);
      st->lists.push_back(list::generators::random_list(kNodes, seed));
    }
    Result<core::MatchResult> r = run(ctx, "sequential", st->lists.back());
    if (!r.ok() || !check_matching(st->lists.back().next_array(),
                                   r->in_matching, r->edges, true)) {
      *ok = false;
      st->refs.emplace_back();
    } else {
      st->refs.push_back(std::move(*r));
    }
  }
  for (std::size_t j = 0; j < kBatch; ++j) {
    RequestBuilder b;
    b.algorithm("sequential").generated(kNodes, st->seeds[j % kLists]);
    st->batch.push_back(std::move(b));
  }

  serve::ServiceOptions sopt;
  sopt.workers = kWorkers;
  sopt.queue_capacity = 256;
  if (cfg.traced) sopt.on_dequeue = [](std::size_t) {
    tls_dequeued = Clock::now();
  };
  st->svc = std::make_unique<serve::Service>(sopt);
  st->server = std::make_unique<net::Server>(*st->svc);
  if (!st->server->start().ok()) {
    *ok = false;
    return st;
  }
  net::ClientOptions copt;
  copt.port = st->server->port();
  st->client = std::make_unique<net::Client>(copt);
  if (!st->client->connect().ok()) {
    *ok = false;
    return st;
  }
  for (std::size_t k = 0; k < kWarmupBatches; ++k)
    if (tcp_batch(*st, warm) != kBatch) *ok = false;
  // Service counters (steady allocations, arena hits, the stats frame's
  // ok/submitted) now describe the timed phase alone.
  st->svc->reset_stats();
  return st;
}

/// The layer pass of the traced mode: pairs of one batch over the socket
/// and the same batch through Service::submit_batch with no socket, so
/// both sides of each pair see the same host conditions. Both run with
/// the tracer on; the in-process side adds an on_ready hook per request,
/// which gives the queue wait and worker time.
struct LayerPass {
  std::vector<double> pair_diff_ms;  // socket minus in-process, per pair
  std::vector<double> queue_wait_ms;
  std::vector<double> worker_ms;
  double inproc_ns = 0;
  std::uint64_t inproc_nodes = 0;
  double result_bytes = 0;
};

LayerPass layer_pass(ServeState& st, Tracer& tr, double seconds,
                     Outcome& out) {
  struct Slot {
    Clock::time_point dequeued, ready;
  };
  LayerPass res;
  std::vector<Slot> slots(kBatch);
  const auto t_start = Clock::now();
  for (std::uint64_t k = 0;; ++k) {
    auto t0 = Clock::now();
    {
      ScopedSpan s(tr, "net", "net.submit_batch", k, kBatch * kNodes);
      tcp_batch(st, out);
    }
    const double tcp_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();

    std::latch hooks_done(static_cast<std::ptrdiff_t>(kBatch));
    std::vector<serve::Request> reqs;
    for (std::size_t j = 0; j < kBatch; ++j) {
      serve::Request r = st.batch[j].build();
      r.list = &st.lists[j % kLists];
      r.on_ready = [&slots, &hooks_done, j] {
        slots[j].dequeued = tls_dequeued;
        slots[j].ready = Clock::now();
        hooks_done.count_down();
      };
      reqs.push_back(std::move(r));
    }
    t0 = Clock::now();
    auto futures = st.svc->submit_batch(std::move(reqs));
    std::vector<Result<core::MatchResult>> results;
    for (auto& f : futures) results.push_back(f.get());
    const auto t1 = Clock::now();
    hooks_done.wait();

    const std::int64_t root = static_cast<std::int64_t>(tr.spans().size());
    tr.add("serve", "serve.submit_batch", t0, t1, -1, k, kBatch * kNodes,
           false);
    for (std::size_t j = 0; j < kBatch; ++j) {
      tr.add("serve", "serve.queue_wait", t0, slots[j].dequeued, root, k, 0,
             true);
      tr.add("serve", "serve.worker", slots[j].dequeued, slots[j].ready, root,
             k, kNodes, true);
      res.queue_wait_ms.push_back(
          std::chrono::duration<double, std::milli>(slots[j].dequeued - t0)
              .count());
      res.worker_ms.push_back(std::chrono::duration<double, std::milli>(
                                  slots[j].ready - slots[j].dequeued)
                                  .count());
      const Result<core::MatchResult>& r = results[j];
      ++out.attempted;
      if (r.ok() && summary_matches(*r, st.refs[j % kLists]) &&
          check_matching(st.lists[j % kLists].next_array(), r->in_matching,
                         r->edges, true)) {
        res.inproc_nodes += kNodes;
        res.result_bytes += static_cast<double>(
            sizeof(core::MatchResult) + r->in_matching.size() +
            r->phases.size() * sizeof(pram::Phase));
      } else {
        ++out.failed;
      }
    }
    const double inproc_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    res.inproc_ns += inproc_ms * 1e6;
    res.pair_diff_ms.push_back(tcp_ms - inproc_ms);
    if (seconds_between(t_start, Clock::now()) >= seconds) break;
  }
  return res;
}

/// Per-frame wire costs on this workload's own frames.
void frame_probe(ServeState& st, Tracer& tr, std::map<std::string, Metric>& L,
                 bool* ok) {
  constexpr std::size_t kPasses = 512;
  std::vector<std::uint8_t> wire;
  for (std::size_t p = 0; p < kPasses; ++p) {
    for (std::size_t i = 0; i < kLists; ++i) {
      net::RequestFrame f;
      f.algorithm = "sequential";
      f.n = kNodes;
      f.seed = st.seeds[i];
      wire.clear();
      {
        ScopedSpan s(tr, "net", "net.encode_request", p, kNodes);
        if (!net::encode_request(f, 0, p, wire).ok()) *ok = false;
      }
      {
        ScopedSpan s(tr, "net", "net.decode_request", p, kNodes);
        net::FrameHeader h;
        net::RequestFrame back;
        if (!net::decode_header(wire.data(), net::kFrameHeaderBytes, &h).ok() ||
            !net::decode_request(wire.data() + net::kFrameHeaderBytes,
                                 wire.size() - net::kFrameHeaderBytes, &back)
                 .ok() ||
            back.n != kNodes || back.seed != f.seed)
          *ok = false;
      }
      const core::MatchResult& ref = st.refs[i];
      net::ResponseFrame r;
      r.edges = ref.edges;
      r.relabel_rounds = static_cast<std::uint32_t>(ref.relabel_rounds);
      r.gather_rounds = static_cast<std::uint32_t>(ref.gather_rounds);
      r.partition_sets = ref.partition_sets;
      r.cost_depth = ref.cost.depth;
      r.cost_time_p = ref.cost.time_p;
      r.cost_work = ref.cost.work;
      wire.clear();
      {
        ScopedSpan s(tr, "net", "net.encode_response", p, 0);
        net::encode_response(r, 0, p, wire);
      }
      {
        ScopedSpan s(tr, "net", "net.decode_response", p, 0);
        net::ResponseFrame back;
        if (!net::decode_response(wire.data() + net::kFrameHeaderBytes,
                                  wire.size() - net::kFrameHeaderBytes, &back)
                 .ok() ||
            back.edges != ref.edges)
          *ok = false;
      }
    }
  }
  for (const char* name : {"net.encode_request", "net.decode_request",
                           "net.encode_response", "net.decode_response"}) {
    const SpanTotal t = span_total(tr, name);
    L[std::string(name) + "_us"] = {t.ns / 1e3 / static_cast<double>(t.count),
                                    "us"};
  }
}

/// Direct calls into list, core and stabilize on this workload's lists.
void kernel_probe(ServeState& st, Tracer& tr, bool* ok) {
  Context ctx;
  Options no_verify;
  no_verify.verify = false;
  for (std::size_t p = 0; p < 16; ++p) {
    for (std::size_t i = 0; i < kLists; ++i) {
      const list::LinkedList& l = st.lists[i];
      {
        ScopedSpan s(tr, "core", "core.sequential", p, kNodes);
        if (!run(ctx, "sequential", l, no_verify).ok()) *ok = false;
      }
      std::vector<index_t> copy = l.next_array();
      {
        ScopedSpan s(tr, "list", "list.make", p, kNodes);
        if (!list::LinkedList::make(std::move(copy)).ok()) *ok = false;
      }
      {
        ScopedSpan s(tr, "stabilize", "stabilize.audit", p, kNodes);
        if (!stabilize::audit_matching(l.next_array(), st.refs[i].in_matching)
                 .clean())
          *ok = false;
      }
    }
  }
}

}  // namespace

Outcome run_serve(const RunConfig& cfg) {
  Outcome out;
  Tracer& tr = *cfg.tracer;
  tr.set_enabled(cfg.traced);

  std::vector<double> setup_s;
  std::unique_ptr<ServeState> st;
  for (int k = 0; k < cfg.setups; ++k) {
    st.reset();
    const auto t0 = k == 0 ? cfg.process_start : Clock::now();
    bool ok = true;
    Outcome warm;  // warm-up answers are checked but not counted
    st = set_up(cfg, warm, &ok);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    if (!ok || warm.failed != 0) {
      out.correct = false;
      return out;
    }
  }

  const net::ServerStats net0 = st->server->stats();
  TimedPhase phase(kWindowSeconds, /*wall_clock=*/true);
  double traced_ns = 0, untraced_ns = 0;
  std::uint64_t traced_nodes = 0, untraced_nodes = 0;
  std::uint64_t sent = 0, answered_ok = 0;
  const auto t_start = Clock::now();
  for (std::uint64_t k = 0;; ++k) {
    const bool traced = cfg.traced && k % 2 == 0;
    tr.set_enabled(traced);
    const double cpu0 = process_cpu_ns();
    const auto t0 = Clock::now();
    std::size_t ok;
    {
      ScopedSpan s(tr, "net", "net.submit_batch", k, kBatch * kNodes);
      ok = tcp_batch(*st, out);
    }
    const double dt =
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    const double cpu = process_cpu_ns() - cpu0;
    sent += kBatch;
    answered_ok += ok;
    phase.add(dt, cpu, ok * kNodes);
    (traced ? traced_ns : untraced_ns) += dt;
    (traced ? traced_nodes : untraced_nodes) += kBatch * kNodes;
    const bool enough = !cfg.traced || k >= 1;
    if (enough && seconds_between(t_start, Clock::now()) >= cfg.seconds) break;
  }
  phase.finish();
  const net::ServerStats net1 = st->server->stats();
  const serve::ServiceStats svc = st->svc->stats();
  tr.set_enabled(false);
  // The server's stats frame must account for every request sent.
  Result<net::StatsFrame> frame = st->client->server_stats();
  if (!frame.ok() || frame->submitted != sent || frame->ok != answered_ok ||
      frame->completed != sent)
    out.correct = false;


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
  if (!cfg.traced) return out;

  auto& L = out.per_layer;
  const double reqs = static_cast<double>(sent);
  L["net.bytes_in_per_request"] = {
      static_cast<double>(net1.bytes_in - net0.bytes_in) / reqs, "bytes"};
  L["net.bytes_out_per_request"] = {
      static_cast<double>(net1.bytes_out - net0.bytes_out) / reqs, "bytes"};
  L["serve.steady_allocs"] = {static_cast<double>(svc.steady_allocs), "count"};
  // 1.0 when nothing was leased (the sequential kernel takes no scratch
  // leases), as engine::EngineStats::hit_rate() does.
  L["serve.arena_hit_ratio"] = {
      svc.arena_takes == 0 ? 1.0
                           : static_cast<double>(svc.arena_hits) /
                                 static_cast<double>(svc.arena_takes),
      "ratio"};
  out.notes["serve.arena_takes"] = static_cast<double>(svc.arena_takes);
  L["trace.overhead_ratio"] = {
      (traced_ns / static_cast<double>(traced_nodes)) /
          (untraced_ns / static_cast<double>(untraced_nodes)),
      "ratio"};

  tr.set_enabled(true);
  const LayerPass lp =
      layer_pass(*st, tr, std::max(1.0, cfg.seconds / 4), out);
  L["serve.inproc_ns_per_node"] = {
      lp.inproc_ns / static_cast<double>(lp.inproc_nodes), "ns"};
  L["serve.queue_wait_ms"] = {quantile(lp.queue_wait_ms, 0.5), "ms"};
  L["serve.worker_ms"] = {quantile(lp.worker_ms, 0.5), "ms"};
  L["serve.result_bytes_per_request"] = {
      lp.result_bytes / static_cast<double>(lp.inproc_nodes / kNodes),
      "bytes"};
  L["net.overhead_ms"] = {quantile(lp.pair_diff_ms, 0.5), "ms"};
  out.notes["net.overhead_pairs"] =
      static_cast<double>(lp.pair_diff_ms.size());

  bool ok = true;
  frame_probe(*st, tr, L, &ok);
  kernel_probe(*st, tr, &ok);
  tr.set_enabled(false);
  if (!ok) out.correct = false;
  auto per_node = [&](const char* span) {
    const SpanTotal t = span_total(tr, span);
    return t.nodes == 0 ? 0.0 : t.ns / static_cast<double>(t.nodes);
  };
  L["list.generate_ns_per_node"] = {per_node("list.generate"), "ns"};
  L["list.make_ns_per_node"] = {per_node("list.make"), "ns"};
  L["core.sequential.ns_per_node"] = {per_node("core.sequential"), "ns"};
  L["stabilize.audit_ns_per_node"] = {per_node("stabilize.audit"), "ns"};
  return out;
}

}  // namespace perfbench
