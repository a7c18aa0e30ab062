// Shared pieces of the repository benchmark: arguments, clocks, order
// statistics, the in-memory span recorder used by traced runs, the run
// context, and the result line the benchmark contract asks for.
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace sea {
class DiagonalProblem;
enum class SortPolicy;
}  // namespace sea

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Directory for the traced run's span file (created by the caller).
  std::string out_dir = ".bench_build";
  // Path of the sea_serve binary serve_mixed cross-checks against.
  std::string sea_serve;
};

inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Process CPU seconds (all threads).
double ProcessCpuSeconds();

// Peak resident set of this process in MB (10^6 bytes).
double PeakRssMb();

// Median of a copy of `v`; 0 when empty.
double Median(std::vector<double> v);

// Nearest-rank percentile (q in [0, 1]) of a copy of `v`; 0 when empty.
// With fewer than 1/(1-q) samples this is the largest sample.
double Percentile(std::vector<double> v, double q);

// The highest nearest-rank percentile with at least ten samples beyond it
// (at most p99), or the median when there are fewer than 20 samples.
double TailPercentile(std::size_t samples);

// Derives independent 64-bit seeds from the run seed and a stream tag, so
// every input of a workload is a pure function of --seed.
std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t stream);

// FNV-1a over a primal matrix, byte-compatible with the x_fingerprint the
// serve plane puts in its replies.
std::uint64_t FingerprintX(std::span<const double> flat);

// A sort policy by name, and for kAuto the path a market of n arcs takes.
std::string SortPolicyInEffect(sea::SortPolicy policy, std::size_t n);

// Replays one row sweep's markets through SolveMarket on a
// BreakpointWorkspace at the given column multipliers; returns the sweep's
// seconds (arc build plus market solve).
double ReplayRowSweep(const sea::DiagonalProblem& p, std::span<const double> mu);

// Spans of a traced run, kept in memory and written out when it ends.
// `request` groups the spans of one solve or one served request.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), origin_(Now()) {}
  // Returns the span id (0 when disabled); parent 0 = root.
  std::uint64_t Add(const char* name, double start, double end,
                    std::uint64_t request = 0, std::uint64_t parent = 0);
  bool WriteJsonl(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    double start, end;
    std::uint64_t id, request, parent;
  };
  bool enabled_;
  double origin_;
  std::vector<Span> spans_;
};

// Result of one run: the contract's four keys plus the run context, which
// is printed on its own line before the result.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  // A per-layer metric; its unit comes from PerLayerMetrics().
  void Layer(const std::string& name, double value);
  bool HasMetric(const std::string& name) const;
  // Names reported that are not in `allowed` (a guard against typos).
  std::vector<std::string> UnknownMetrics(
      const std::vector<std::pair<const char*, const char*>>& allowed) const;
  void Context(const std::string& key, const std::string& value);
  void Context(const std::string& key, double value);
  void Fail(const std::string& why);  // marks the run incorrect
  void Count(std::uint64_t attempted, std::uint64_t failed);

  // Prints the context line, then the result line last.
  void Print() const;

 private:
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> problems_;
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::vector<std::pair<std::string, std::string>> context_;  // rendered
};

// Host and build facts every result carries: git sha, build type,
// compiler, CPU model, nproc and last-level cache size.
void AddHostContext(Report& report);
std::uint64_t LlcBytes();
unsigned Nproc();

// Formats a double with all its significant digits.
std::string Num(double v);

// The per-layer metric names every traced run reports, in order. A layer a
// workload does not exercise reports 0 for its metrics.
const std::vector<std::pair<const char*, const char*>>& PerLayerMetrics();

int RunSolverWorkload(const Args& args, Report& report);
int RunServeWorkload(const Args& args, Report& report);

}  // namespace perfbench
