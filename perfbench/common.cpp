#include "common.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iostream>
#include <thread>

#include "equilibration/breakpoint_solver.hpp"
#include "equilibration/equilibrator.hpp"
#include "problems/diagonal_problem.hpp"
#include "support/hash.hpp"
#include "support/rusage.hpp"

namespace perfbench {

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMb() {
  return static_cast<double>(sea::support::PeakRssBytes()) / 1e6;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  return 0.5 * (hi + *std::max_element(v.begin(), v.begin() + mid));
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[idx];
}

double TailPercentile(std::size_t samples) {
  if (samples < 20) return 0.5;
  return std::min(0.99, 1.0 - 10.0 / static_cast<double>(samples));
}

std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t stream) {
  // SplitMix64 finalizer over (seed, stream).
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream * 0xBF58476D1CE4E5B9ull +
                    0x94D049BB133111EBull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t FingerprintX(std::span<const double> flat) {
  sea::support::Fnv1a h;
  h.MixU64('x');
  h.MixDoubles(flat);
  return h.value();
}

std::uint64_t SpanLog::Add(const char* name, double start, double end,
                           std::uint64_t request, std::uint64_t parent) {
  if (!enabled_) return 0;
  const std::uint64_t id = spans_.size() + 1;
  spans_.push_back({name, start, end, id, request, parent});
  return id;
}

bool SpanLog::WriteJsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  char line[256];
  for (const Span& s : spans_) {
    std::snprintf(line, sizeof(line),
                  "{\"name\":\"%s\",\"id\":%" PRIu64 ",\"parent\":%" PRIu64
                  ",\"request\":%" PRIu64 ",\"start_us\":%.3f,\"dur_us\":%.3f}\n",
                  s.name, s.id, s.parent, s.request, (s.start - origin_) * 1e6,
                  (s.end - s.start) * 1e6);
    out << line;
  }
  return static_cast<bool>(out);
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string SortPolicyInEffect(sea::SortPolicy policy, std::size_t n) {
  switch (policy) {
    case sea::SortPolicy::kInsertion: return "insertion";
    case sea::SortPolicy::kHeapsort: return "heapsort";
    case sea::SortPolicy::kReuse: return "reuse";
    case sea::SortPolicy::kAuto: break;
  }
  return n < sea::kInsertionThreshold ? "auto (insertion below the cutoff)"
                                      : "auto (heapsort above the cutoff)";
}

double ReplayRowSweep(const sea::DiagonalProblem& p, std::span<const double> mu) {
  sea::MarketSide side;
  side.mode = p.mode();
  side.t0 = p.s0();
  side.weight = p.alpha();
  sea::BreakpointWorkspace ws;
  double sink = 0.0;
  const double t0 = Now();
  for (std::size_t i = 0; i < p.m(); ++i) {
    ws.Resize(p.n());
    auto pp = ws.p();
    auto qq = ws.q();
    for (std::size_t j = 0; j < p.n(); ++j) {
      const double q = 1.0 / (2.0 * p.gamma()(i, j));
      qq[j] = q;
      pp[j] = p.x0()(i, j) + mu[j] * q;
    }
    double u = 0.0, v = 0.0;
    sea::ClearingTarget(side, i, u, v);
    sink += sea::SolveMarket(ws, u, v).lambda;
  }
  const double t1 = Now();
  volatile double keep = sink;
  (void)keep;
  return t1 - t0;
}

namespace {

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string ReadFirstLine(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

}  // namespace

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  for (Entry& e : metrics_)
    if (e.name == name) {
      e = {name, value, unit};
      return;
    }
  metrics_.push_back({name, value, unit});
}

void Report::Layer(const std::string& name, double value) {
  for (const auto& [n, unit] : PerLayerMetrics())
    if (name == n) return Metric(name, value, unit);
  Metric(name, value, "?");  // rejected by UnknownMetrics
}

bool Report::HasMetric(const std::string& name) const {
  for (const Entry& e : metrics_)
    if (e.name == name) return true;
  return false;
}

std::vector<std::string> Report::UnknownMetrics(
    const std::vector<std::pair<const char*, const char*>>& allowed) const {
  std::vector<std::string> unknown;
  for (const Entry& e : metrics_) {
    bool found = false;
    for (const auto& a : allowed) found = found || e.name == a.first;
    if (!found) unknown.push_back(e.name);
  }
  return unknown;
}

void Report::Context(const std::string& key, const std::string& value) {
  context_.emplace_back(key, Quote(value));
}

void Report::Context(const std::string& key, double value) {
  context_.emplace_back(key, Num(value));
}

void Report::Fail(const std::string& why) {
  correct_ = false;
  problems_.push_back(why);
}

void Report::Count(std::uint64_t attempted, std::uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::Print() const {
  std::string ctx = "{";
  for (std::size_t i = 0; i < context_.size(); ++i)
    ctx += (i ? ", " : "") + Quote(context_[i].first) + ": " + context_[i].second;
  ctx += "}";
  std::cout << "context: " << ctx << '\n';
  for (const std::string& p : problems_) std::cout << "problem: " << p << '\n';

  std::string m = "{";
  for (std::size_t i = 0; i < metrics_.size(); ++i)
    m += (i ? ", " : "") + Quote(metrics_[i].name) + ": {\"value\": " +
         Num(metrics_[i].value) + ", \"unit\": " + Quote(metrics_[i].unit) + "}";
  m += "}";
  std::cout << "{\"correct\": " << (correct_ ? "true" : "false")
            << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
            << ", \"metrics\": " << m << "}" << std::endl;
}

unsigned Nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

std::uint64_t LlcBytes() {
  // The highest cache index of cpu0 is the last level.
  std::uint64_t best = 0;
  for (int idx = 0; idx < 8; ++idx) {
    const std::string size = ReadFirstLine(
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(idx) + "/size");
    if (size.empty()) continue;
    std::uint64_t v = std::strtoull(size.c_str(), nullptr, 10);
    if (size.find('K') != std::string::npos) v <<= 10;
    if (size.find('M') != std::string::npos) v <<= 20;
    best = std::max(best, v);
  }
  return best;
}

void AddHostContext(Report& report) {
  const char* sha = std::getenv("PERFBENCH_GIT_SHA");
  report.Context("git_sha", sha && *sha ? sha : "unknown");
  report.Context("build_type", PERFBENCH_BUILD_TYPE);
  report.Context("compiler", PERFBENCH_COMPILER);
  std::string cpu = "unknown";
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);)
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  report.Context("cpu_model", cpu);
  report.Context("nproc", static_cast<double>(Nproc()));
  report.Context("llc_bytes", static_cast<double>(LlcBytes()));
}

const std::vector<std::pair<const char*, const char*>>& PerLayerMetrics() {
  static const std::vector<std::pair<const char*, const char*>> kMetrics = {
      {"datasets.gen_s", "s"},
      {"core.ctor_s", "s"},
      {"core.iterations", "count"},
      {"core.checks_compared", "count"},
      {"core.s_per_iter", "s"},
      {"core.row_phase_s", "s"},
      {"core.col_phase_s", "s"},
      {"core.check_phase_s", "s"},
      {"core.unattributed_s", "s"},
      {"equilibration.markets", "count"},
      {"equilibration.comparisons_per_arc", "count"},
      {"equilibration.flops_per_arc", "count"},
      {"equilibration.inversions", "count"},
      {"equilibration.order_reuses", "count"},
      {"equilibration.replay_ns_per_arc.first", "ns"},
      {"equilibration.replay_ns_per_arc.final", "ns"},
      {"equilibration.replay_share", "ratio"},
      {"equilibration.bytes_per_arc", "B"},
      {"parallel.regions", "count"},
      {"parallel.region_wall_s", "s"},
      {"parallel.utilization", "ratio"},
      {"parallel.mean_imbalance", "ratio"},
      {"parallel.chunks", "count"},
      {"serve.admission_wait_ms", "ms"},
      {"serve.decode_us", "us"},
      {"serve.render_us", "us"},
      {"serve.latency_p50_ms", "ms"},
      {"serve.latency_p99_ms", "ms"},
      {"serve.handle_ms.exact.p50", "ms"},
      {"serve.handle_ms.exact.p99", "ms"},
      {"serve.handle_ms.warm.p50", "ms"},
      {"serve.handle_ms.warm.p99", "ms"},
      {"serve.handle_ms.cold.p50", "ms"},
      {"serve.handle_ms.cold.p99", "ms"},
      {"serve.iterations.warm", "count"},
      {"serve.iterations.cold", "count"},
      {"serve.requests.exact", "count"},
      {"serve.requests.warm", "count"},
      {"serve.requests.cold", "count"},
      {"serve.cache.evictions", "count"},
      {"serve.shed", "count"},
      {"net.overhead_us", "us"},
      {"bench.gen_lag_ms", "ms"},
      {"trace.overhead_frac", "ratio"},
  };
  return kMetrics;
}

}  // namespace perfbench
