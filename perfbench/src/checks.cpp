// Output checks written from the definitions, not from the library: they
// share no code with core::verify or stabilize::audit, so a fault in those
// cannot hide a wrong result here.
#include <sys/resource.h>

#include <cstdlib>
#include <fstream>

#include "common.h"

namespace perfbench {

std::vector<std::uint64_t> walk_ranks(const std::vector<llmp::index_t>& next) {
  const std::size_t n = next.size();
  std::vector<std::uint8_t> has_pred(n, 0);
  for (std::size_t v = 0; v < n; ++v) {
    const llmp::index_t s = next[v];
    if (s == llmp::knil) continue;
    if (s >= n || has_pred[s]) return {};
    has_pred[s] = 1;
  }
  std::size_t head = n;
  for (std::size_t v = 0; v < n; ++v)
    if (!has_pred[v]) {
      if (head != n) return {};
      head = v;
    }
  if (head == n) return {};
  std::vector<std::uint64_t> rank(n, 0);
  std::size_t pos = 0;
  for (std::size_t v = head; v != llmp::knil && pos < n; v = next[v], ++pos)
    rank[v] = n - 1 - pos;
  if (pos != n) return {};
  return rank;
}

bool check_matching(const std::vector<llmp::index_t>& next,
                    const std::vector<std::uint8_t>& in_matching,
                    std::size_t edges, bool maximum) {
  const std::size_t n = next.size();
  if (in_matching.size() != n) return false;
  std::vector<std::uint8_t> covered(n, 0);
  std::size_t chosen = 0;
  for (std::size_t v = 0; v < n; ++v) {
    if (!in_matching[v]) continue;
    const llmp::index_t s = next[v];
    if (s == llmp::knil) return false;  // the tail has no pointer
    if (covered[v] || covered[s]) return false;
    covered[v] = covered[s] = 1;
    ++chosen;
  }
  for (std::size_t v = 0; v < n; ++v) {
    const llmp::index_t s = next[v];
    if (s != llmp::knil && !in_matching[v] && !covered[v] && !covered[s])
      return false;  // a pointer with both ends free: not maximal
  }
  if (chosen != edges) return false;
  const std::size_t lower = n == 0 ? 0 : (n - 1 + 2) / 3;
  if (edges < lower || edges > n / 2) return false;
  return !maximum || edges == n / 2;
}

bool check_ranks(const std::vector<std::uint64_t>& got,
                 const std::vector<std::uint64_t>& want) {
  return !want.empty() && got == want;
}

double peak_rss_mib() {
  // VmHWM is this address space's high-water mark. getrusage's ru_maxrss
  // is not: Linux carries it across exec, so it would include the peak of
  // the Python launcher that forked this process.
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

CpuTicks cpu_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  std::uint64_t user = 0, nice = 0, system = 0, idle = 0, iowait = 0,
                irq = 0, softirq = 0, steal = 0;
  if (!(stat >> cpu >> user >> nice >> system >> idle >> iowait >> irq >>
        softirq >> steal) ||
      cpu != "cpu")
    return {};
  return {user + nice + system + irq + softirq, steal};
}

}  // namespace perfbench
