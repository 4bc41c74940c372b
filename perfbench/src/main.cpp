// llmp_perfbench — the repo benchmark's program.
//
//   llmp_perfbench --workload lib-64k|serve-gen-64k
//                  --seed N --seconds S --trace 0|1
//                  [--spill-dir DIR] [--trace-out FILE]
//                  [--commit SHA] [--source-digest HEX]
//
// Untraced (--trace 0) it prints every end-to-end metric; traced
// (--trace 1) every per-layer metric. The last stdout line is the result
// object; the lines before it carry host/build metadata, sample counts
// and (traced) each layer's share of the traced time. perfbench/run.py
// builds this binary and passes the output paths.
#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <cpuid.h>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "common.h"
#include "pram/simd.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

extern char** environ;

// The Service reports heap allocations inside worker execution regions
// (serve.steady_allocs) only in binaries whose operator new calls
// note_alloc(); see support/alloc_counter.h.
#include "support/alloc_counter.h"
void* operator new(std::size_t size) {
  llmp::support::note_alloc();
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  llmp::support::note_alloc();
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {
namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string cpu_model() {
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) < 0x80000004) return "unknown";
  for (unsigned int i = 0; i < 3; ++i)
    __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  char text[49] = {};
  std::memcpy(text, regs, 48);
  std::string s(text);
  const auto b = s.find_first_not_of(' ');
  return b == std::string::npos ? "unknown" : s.substr(b);
}

std::string metadata(const std::string& workload, std::uint64_t seed,
                     double seconds, bool traced, const std::string& commit,
                     const std::string& digest) {
  std::ostringstream o;
  o << "{\"workload\": " << json_string(workload) << ", \"seed\": " << seed
    << ", \"seconds\": " << json_number(seconds)
    << ", \"trace\": " << (traced ? 1 : 0)
    << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
    << ", \"cpu\": " << json_string(cpu_model())
    << ", \"l2_bytes\": " << sysconf(_SC_LEVEL2_CACHE_SIZE)
    << ", \"l3_bytes\": " << sysconf(_SC_LEVEL3_CACHE_SIZE)
    << ", \"compiler\": " << json_string(PERFBENCH_COMPILER)
    << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
    << ", \"simd\": "
    << json_string(llmp::pram::simd::level_name(
           llmp::pram::simd::active_level()))
    << ", \"llmp_env\": {";
  bool first = true;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    if (kv.rfind("LLMP_", 0) != 0) continue;
    const auto eq = kv.find('=');
    o << (first ? "" : ", ") << json_string(kv.substr(0, eq)) << ": "
      << json_string(eq == std::string::npos ? "" : kv.substr(eq + 1));
    first = false;
  }
  o << "}, \"commit\": " << json_string(commit)
    << ", \"source_digest\": " << json_string(digest) << "}";
  return o.str();
}

std::string metrics_json(const std::map<std::string, Metric>& m) {
  std::ostringstream o;
  o << "{";
  bool first = true;
  for (const auto& [name, metric] : m) {
    o << (first ? "" : ", ") << json_string(name) << ": {\"value\": "
      << json_number(metric.value) << ", \"unit\": " << json_string(metric.unit)
      << "}";
    first = false;
  }
  return o.str() + "}";
}

std::string numbers_json(const std::map<std::string, double>& m) {
  std::ostringstream o;
  o << "{";
  bool first = true;
  for (const auto& [name, v] : m) {
    o << (first ? "" : ", ") << json_string(name) << ": " << json_number(v);
    first = false;
  }
  return o.str() + "}";
}

/// Each layer's self time (span time not covered by its child spans) as
/// a share of the benchmark thread's traced time. Spans measured on worker
/// threads overlap one another and are left out.
std::map<std::string, double> layer_shares(const Tracer& tr) {
  const auto& spans = tr.spans();
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0 && !s.concurrent)
      kids[static_cast<std::size_t>(s.parent)].push_back(
          {s.start_ns, s.end_ns});
  std::map<std::string, double> self;
  double total = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].concurrent) continue;
    auto& c = kids[i];
    std::sort(c.begin(), c.end());
    std::int64_t covered = 0, reach = spans[i].start_ns;
    for (auto [a, b] : c) {
      a = std::max(a, reach);
      b = std::min(b, spans[i].end_ns);
      if (b > a) {
        covered += b - a;
        reach = b;
      }
    }
    const double t =
        static_cast<double>(spans[i].end_ns - spans[i].start_ns - covered);
    self[spans[i].layer] += t;
    total += t;
  }
  for (auto& [layer, t] : self) t = total > 0 ? t / total : 0;
  return self;
}

void write_trace(const Tracer& tr, const std::string& path) {
  std::ofstream f(path);
  f << "index,layer,name,start_ns,end_ns,parent,op,nodes,concurrent\n";
  const auto& spans = tr.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    f << i << ',' << s.layer << ',' << s.name << ',' << s.start_ns << ','
      << s.end_ns << ',' << s.parent << ',' << s.op << ',' << s.nodes << ','
      << s.concurrent << '\n';
  }
}

const char* const kWorkloads[] = {"lib-64k", "serve-gen-64k"};

Outcome run_workload(const std::string& name, const RunConfig& cfg) {
  return name == "lib-64k" ? run_lib(cfg) : run_serve(cfg);
}

int usage(const char* why) {
  std::cerr << "llmp_perfbench: " << why
            << "\nusage: llmp_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spill-dir DIR] [--trace-out FILE] "
               "[--commit SHA] [--source-digest HEX]\n";
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const auto process_start = Clock::now();
  std::string workload, spill_dir = ".", trace_out, commit = "unknown",
                        digest = "unknown";
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    if (a == "--workload") workload = v;
    else if (a == "--seed") seed = std::strtoull(v, nullptr, 10);
    else if (a == "--seconds") seconds = std::strtod(v, nullptr);
    else if (a == "--trace") trace = std::atoi(v);
    else if (a == "--spill-dir") spill_dir = v;
    else if (a == "--trace-out") trace_out = v;
    else if (a == "--commit") commit = v;
    else if (a == "--source-digest") digest = v;
    else return usage(("unknown flag " + a).c_str());
  }
  if (std::find(std::begin(kWorkloads), std::end(kWorkloads), workload) ==
      std::end(kWorkloads))
    return usage("unknown workload");
  if (!(seconds > 0) || (trace != 0 && trace != 1))
    return usage("--seconds must be positive and --trace 0 or 1");
  mkdir(spill_dir.c_str(), 0755);

  const bool traced = trace == 1;
  std::cout << "meta: "
            << metadata(workload, seed, seconds, traced, commit, digest)
            << std::endl;

  Tracer tracer(process_start);
  RunConfig cfg;
  cfg.seed = seed;
  cfg.seconds = seconds;
  cfg.spill_dir = spill_dir;
  cfg.tracer = &tracer;
  cfg.traced = traced;
  cfg.process_start = process_start;
  Outcome out = run_workload(workload, cfg);

  std::map<std::string, Metric> metrics = out.end_to_end;
  if (traced) {
    std::cout << "shares: " << numbers_json(layer_shares(tracer)) << std::endl;
    if (!trace_out.empty()) write_trace(tracer, trace_out);
    // Per-layer metrics this workload's calls do not reach are measured by
    // a short traced pass of the other workload, on its own inputs.
    for (const char* other : kWorkloads) {
      if (workload == other) continue;
      Tracer probe_tracer(Clock::now());
      RunConfig probe = cfg;
      probe.seconds = 1;
      probe.setups = 1;
      probe.tracer = &probe_tracer;
      probe.process_start = Clock::now();
      Outcome p = run_workload(other, probe);
      if (!p.correct || p.failed != 0) out.correct = false;
      for (const auto& [name, m] : p.per_layer)
        out.per_layer.emplace(name, m);  // keeps this workload's own value
      out.notes["probe." + std::string(other) + ".attempted"] =
          static_cast<double>(p.attempted);
    }
    metrics = out.per_layer;
  }
  std::cout << "notes: " << numbers_json(out.notes) << std::endl;
  std::cout << "{\"correct\": " << (out.correct ? "true" : "false")
            << ", \"attempted\": " << out.attempted
            << ", \"failed\": " << out.failed
            << ", \"metrics\": " << metrics_json(metrics) << "}" << std::endl;
  return 0;
}
