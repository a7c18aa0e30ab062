// Golden bit-identity: FNV-1a fingerprints of the primal bits (x, s, d) of
// small seeded solves, one per quadratic regime plus one sparse solve,
// asserted serially and on a two-thread pool. Any change that moves a single
// output bit of the market kernel, the sweeps or the engine changes a
// fingerprint; such a change needs new fingerprints and a CHANGES.md entry
// saying why the outputs moved.
//
// The quadratic variants use only + - * / and max, so the fingerprints do not
// depend on libm. Inputs come from Rng::Uniform, which is libm-free too.
// Row markets of the fixed instance have 150 arcs, so the radix path runs
// alongside straight insertion. The tied instance follows Table 1's protocol
// (gamma = 1/x0, totals twice the base sums) at 140x200: every row and column
// market is above the insertion threshold, and in the first row sweep about
// 86% of each market's breakpoints are exactly -2 (the rest are an ulp off),
// so the tie order sets the order of its prefix sums.
//
// KernelTrajectory checks the path to those outputs on the same instances:
// the pooled solve reproduces the serial one check by check (status,
// iterations, every stopping measure bitwise, cumulative op counts), and
// the market count matches one solve per row and column market per
// iteration, in SeaResult::kernel_markets and the sea.kernel.markets
// counter alike.
//
// GoldenTelemetry pins what the subscribers see: the JSONL trace, the status
// file, the flight recorder and the metrics registry, attached together to
// a converging solve, a frozen-measure stall the recovery ladder rescues,
// and a cancelled solve resumed from its checkpoint. Each artifact is
// fingerprinted without its wall-clock fields, so a change in which events
// reach a subscriber, in what order, or with what values, changes a
// fingerprint.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "check_callback.hpp"
#include "core/checkpoint.hpp"
#include "core/diagonal_sea.hpp"
#include "datasets/large_diagonal.hpp"
#include "obs/bench_reader.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/status_file.hpp"
#include "obs/trace_sink.hpp"
#include "parallel/thread_pool.hpp"
#include "sparse/sparse_sea.hpp"
#include "support/cancel.hpp"
#include "support/failpoint.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"

namespace sea {
namespace {

DenseMatrix RandomMatrix(std::size_t m, std::size_t n, Rng& rng, double lo,
                         double hi) {
  DenseMatrix a(m, n);
  for (double& v : a.Flat()) v = rng.Uniform(lo, hi);
  return a;
}

std::uint64_t Fingerprint(std::span<const double> x, const Vector& s,
                          const Vector& d) {
  support::Fnv1a h;
  h.MixDoubles(x);
  h.MixDoubles(s);
  h.MixDoubles(d);
  return h.value();
}

std::string Hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

DiagonalProblem FixedProblem() {
  Rng rng(0x601D01);
  DenseMatrix x0 = RandomMatrix(6, 150, rng, 0.0, 50.0);
  DenseMatrix gamma = RandomMatrix(6, 150, rng, 0.1, 10.0);
  Vector s0 = x0.RowSums(), d0 = x0.ColSums();
  for (double& v : s0) v *= 1.25;
  for (double& v : d0) v *= 1.25;
  return DiagonalProblem::MakeFixed(std::move(x0), std::move(gamma),
                                    std::move(s0), std::move(d0));
}

DiagonalProblem TiedFixedProblem() {
  Rng rng(0x601D06);
  return datasets::MakeLargeDiagonal(140, 200, rng);
}

DiagonalProblem ElasticProblem() {
  Rng rng(0x601D02);
  DenseMatrix x0 = RandomMatrix(9, 7, rng, 0.0, 100.0);
  DenseMatrix gamma = RandomMatrix(9, 7, rng, 0.1, 10.0);
  Vector s0 = rng.UniformVector(9, 100.0, 900.0);
  Vector alpha = rng.UniformVector(9, 0.1, 5.0);
  Vector d0 = rng.UniformVector(7, 100.0, 900.0);
  Vector beta = rng.UniformVector(7, 0.1, 5.0);
  return DiagonalProblem::MakeElastic(std::move(x0), std::move(gamma),
                                      std::move(s0), std::move(alpha),
                                      std::move(d0), std::move(beta));
}

DiagonalProblem SamProblem() {
  Rng rng(0x601D03);
  DenseMatrix x0 = RandomMatrix(8, 8, rng, 0.0, 40.0);
  DenseMatrix gamma = RandomMatrix(8, 8, rng, 0.1, 10.0);
  Vector s0 = rng.UniformVector(8, 50.0, 300.0);
  Vector alpha = rng.UniformVector(8, 0.1, 5.0);
  return DiagonalProblem::MakeSam(std::move(x0), std::move(gamma),
                                  std::move(s0), std::move(alpha));
}

DiagonalProblem IntervalProblem() {
  Rng rng(0x601D04);
  DenseMatrix x0 = RandomMatrix(7, 9, rng, 0.0, 100.0);
  DenseMatrix gamma = RandomMatrix(7, 9, rng, 0.1, 10.0);
  Vector s0 = x0.RowSums(), d0 = x0.ColSums();
  Vector alpha = rng.UniformVector(7, 0.1, 5.0);
  Vector beta = rng.UniformVector(9, 0.1, 5.0);
  // Pull the targets apart so some boxes bind at lo, some at hi.
  Vector s_lo(7), s_hi(7), d_lo(9), d_hi(9);
  for (std::size_t i = 0; i < 7; ++i) {
    s0[i] *= rng.Uniform(0.6, 1.6);
    s_lo[i] = 0.9 * s0[i];
    s_hi[i] = 1.05 * s0[i];
  }
  for (std::size_t j = 0; j < 9; ++j) {
    d0[j] *= rng.Uniform(0.6, 1.6);
    d_lo[j] = 0.95 * d0[j];
    d_hi[j] = 1.1 * d0[j];
  }
  return DiagonalProblem::MakeInterval(
      std::move(x0), std::move(gamma), std::move(s0), std::move(alpha),
      std::move(s_lo), std::move(s_hi), std::move(d0), std::move(beta),
      std::move(d_lo), std::move(d_hi));
}

SparseDiagonalProblem SparseProblem() {
  Rng rng(0x601D05);
  DenseMatrix x0 = RandomMatrix(10, 12, rng, 1.0, 60.0);
  for (double& v : x0.Flat())
    if (rng.Uniform(0.0, 1.0) < 0.4) v = 0.0;  // structural zeros
  for (std::size_t i = 0; i < 10; ++i) x0(i, i) = 30.0;  // no empty rows
  DenseMatrix gamma = RandomMatrix(10, 12, rng, 0.1, 10.0);
  for (std::size_t k = 0; k < gamma.Flat().size(); ++k)
    if (x0.Flat()[k] == 0.0) gamma.Flat()[k] = 0.0;  // same pattern as x0
  Vector s0 = x0.RowSums(), d0 = x0.ColSums();
  for (double& v : s0) v *= 1.2;
  for (double& v : d0) v *= 1.2;
  return SparseDiagonalProblem::MakeFixed(
      SparseMatrix::FromDense(x0), SparseMatrix::FromDense(gamma),
      std::move(s0), std::move(d0));
}

// Parameter: worker threads (1 = serial sweeps).
class Golden : public ::testing::TestWithParam<std::size_t> {
 protected:
  SeaOptions Options() {
    SeaOptions o;
    o.epsilon = 1e-10;
    o.criterion = StopCriterion::kResidualRel;
    if (GetParam() > 1) o.pool = &pool_;
    return o;
  }

  void ExpectDense(const DiagonalProblem& p, std::uint64_t expected) {
    const auto run = SolveDiagonal(p, Options());
    ASSERT_TRUE(run.result.converged());
    const std::uint64_t got =
        Fingerprint(run.solution.x.Flat(), run.solution.s, run.solution.d);
    EXPECT_EQ(Hex(got), Hex(expected));
  }

  ThreadPool pool_{2};
};

TEST_P(Golden, Fixed) {
  ExpectDense(FixedProblem(), 0xe9e0d05ebf4f8fcaull);
}

TEST_P(Golden, TiedFixed) {
  ExpectDense(TiedFixedProblem(), 0xad10b4fdf45a8bc3ull);
}

TEST_P(Golden, Elastic) {
  ExpectDense(ElasticProblem(), 0xd1113dc03269e89cull);
}

TEST_P(Golden, Sam) {
  ExpectDense(SamProblem(), 0xad85f472c9df8185ull);
}

TEST_P(Golden, Interval) {
  ExpectDense(IntervalProblem(), 0xae93b35906796930ull);
}

TEST_P(Golden, Sparse) {
  const auto run = SolveSparse(SparseProblem(), Options());
  ASSERT_TRUE(run.result.converged());
  const std::uint64_t got =
      Fingerprint(run.solution.x.Values(), run.solution.s, run.solution.d);
  EXPECT_EQ(Hex(got), Hex(0x1b5d98736b6180eaull));
}

INSTANTIATE_TEST_SUITE_P(
    Threads, Golden, ::testing::Values(std::size_t{1}, std::size_t{2}),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return "t" + std::to_string(info.param);
    });

// One recorded solve: its result, the measure of every check with a defined
// measure, the cumulative op counts at each of those checks, and the
// sea.kernel.markets counter of its own metrics registry.
struct Recorded {
  SeaResult result;
  std::vector<double> measures;
  std::vector<std::size_t> iterations;
  std::vector<OpCounts> ops;
  std::uint64_t markets_counter = 0;
};

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Parameter: the regime name; "sparse" runs SolveSparse, every other name a
// dense DiagonalSea solve of the matching golden instance.
class KernelTrajectory : public ::testing::TestWithParam<const char*> {
 protected:
  Recorded Run(ThreadPool* pool) {
    Recorded rec;
    obs::MetricsRegistry metrics;
    obs::SolveMetrics solve_metrics(metrics);
    CheckCallback on_check([&rec](const IterationEvent& ev) {
      if (!ev.measure_defined) return;
      rec.measures.push_back(ev.measure);
      rec.iterations.push_back(ev.iteration);
      rec.ops.push_back(ev.ops_total);
    });
    SeaOptions o;
    o.epsilon = 1e-10;
    o.criterion = StopCriterion::kResidualRel;
    o.pool = pool;
    o.observers = {&solve_metrics, &on_check};
    const std::string regime = GetParam();
    if (regime == "sparse") {
      rec.result = SolveSparse(SparseProblem(), o).result;
    } else {
      rec.result = SolveDiagonal(Problem(regime), o).result;
    }
    rec.markets_counter = metrics.GetCounter("sea.kernel.markets").Value();
    return rec;
  }

  static DiagonalProblem Problem(const std::string& regime) {
    if (regime == "fixed") return FixedProblem();
    if (regime == "elastic") return ElasticProblem();
    if (regime == "sam") return SamProblem();
    return IntervalProblem();
  }

  // Row plus column markets solved by one iteration.
  std::size_t MarketsPerIteration() const {
    const std::string regime = GetParam();
    if (regime == "sparse") {
      const auto p = SparseProblem();
      return p.m() + p.n();
    }
    const auto p = Problem(regime);
    return p.m() + p.n();
  }

  ThreadPool pool_{2};
};

TEST_P(KernelTrajectory, PooledSolveRetracesTheSerialOneCheckByCheck) {
  const Recorded serial = Run(nullptr);
  const Recorded pooled = Run(&pool_);
  ASSERT_TRUE(serial.result.converged());
  EXPECT_EQ(serial.result.status, pooled.result.status);
  EXPECT_EQ(serial.result.iterations, pooled.result.iterations);
  EXPECT_EQ(serial.result.kernel_markets, pooled.result.kernel_markets);
  ASSERT_FALSE(serial.measures.empty());
  ASSERT_EQ(serial.measures.size(), pooled.measures.size());
  for (std::size_t k = 0; k < serial.measures.size(); ++k) {
    EXPECT_EQ(serial.iterations[k], pooled.iterations[k]);
    ASSERT_TRUE(SameBits(serial.measures[k], pooled.measures[k]))
        << "check " << k << " (iteration " << serial.iterations[k]
        << "): " << serial.measures[k] << " vs " << pooled.measures[k];
    EXPECT_EQ(serial.ops[k].flops, pooled.ops[k].flops) << "check " << k;
    EXPECT_EQ(serial.ops[k].comparisons, pooled.ops[k].comparisons)
        << "check " << k;
    EXPECT_EQ(serial.ops[k].breakpoints, pooled.ops[k].breakpoints)
        << "check " << k;
  }
}

TEST_P(KernelTrajectory, EveryIterationSolvesEachMarketOnce) {
  const Recorded rec = Run(nullptr);
  ASSERT_TRUE(rec.result.converged());
  ASSERT_GT(rec.result.iterations, 0u);
  EXPECT_EQ(rec.result.kernel_markets,
            rec.result.iterations * MarketsPerIteration());
  EXPECT_EQ(rec.markets_counter, rec.result.kernel_markets);
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, KernelTrajectory,
    ::testing::Values("fixed", "elastic", "sam", "interval", "sparse"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      return std::string(info.param);
    });

// One flat JSON line as "key=value;" pairs, without its wall-clock fields:
// every "*_seconds" key and the flight recorder's "t" stamp.
std::string WithoutClock(const std::string& json) {
  std::string out;
  for (const auto& [key, value] : obs::JsonObjectFields(json)) {
    if (key == "t" || key.ends_with("_seconds")) continue;
    out += key + "=" + value + ";";
  }
  return out;
}

std::vector<std::string> ClocklessLines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream f(path);
  for (std::string line; std::getline(f, line);)
    lines.push_back(WithoutClock(line));
  return lines;
}

std::uint64_t HashLines(const std::vector<std::string>& lines) {
  support::Fnv1a h;
  for (const std::string& line : lines) {
    h.MixU64(line.size());
    h.MixBytes(line.data(), line.size());
  }
  return h.value();
}

std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct TelemetryPrints {
  std::string trace, status, postmortem, metrics;
};

// Every subscriber of one scenario. Chained solves share them, as general
// SEA's inner solves do.
class Subscribers : public SolveObserver {
 public:
  Subscribers(const std::string& tag, double epsilon)
      : stem_(::testing::TempDir() + "/golden_telemetry_" + tag),
        trace_(stem_ + ".trace.jsonl"),
        status_(stem_ + ".status.json", epsilon,
                /*min_interval_seconds=*/0.0) {
    recorder_.SetDumpPath(stem_ + ".postmortem.jsonl");
    std::remove((stem_ + ".postmortem.jsonl").c_str());
  }

  // Attaches every subscriber to `o`. At each check the status snapshot
  // then current (the previous check's, or a recovery published since) is
  // kept, and `on_check` runs.
  void Attach(SeaOptions& o,
              std::function<void(const IterationEvent&)> on_check = {}) {
    on_check_ = std::move(on_check);
    o.observers = {this, &trace_, &recorder_, &status_, &solve_metrics_};
  }

  void OnCheck(const IterationEvent& ev) override {
    snapshots_.push_back(WithoutClock(status_.LatestJson()));
    if (on_check_) on_check_(ev);
  }

  TelemetryPrints Prints() {
    trace_.Flush();
    TelemetryPrints p;
    p.trace = Hex(HashLines(ClocklessLines(stem_ + ".trace.jsonl")));

    std::vector<std::string> status = snapshots_;
    status.push_back(WithoutClock(status_.LatestJson()));
    status.push_back("writes=" + std::to_string(status_.writes()));
    p.status = Hex(HashLines(status));

    std::vector<std::string> postmortem;
    postmortem.push_back("dumped=" + std::to_string(recorder_.dumped()));
    if (recorder_.dumped())
      postmortem = ClocklessLines(stem_ + ".postmortem.jsonl");
    EXPECT_TRUE(recorder_.WritePostmortem(stem_ + ".ring.jsonl"));
    for (std::string& line : ClocklessLines(stem_ + ".ring.jsonl"))
      postmortem.push_back(std::move(line));
    p.postmortem = Hex(HashLines(postmortem));

    const obs::MetricsSnapshot snap = metrics_.Snapshot();
    std::vector<std::string> metrics;
    for (const auto& [name, value] : snap.counters)
      metrics.push_back(name + "=" + std::to_string(value));
    for (const auto& [name, value] : snap.gauges)
      if (name.find("seconds") == std::string::npos)
        metrics.push_back(name + "=" + Num(value));
    for (const auto& [name, h] : snap.histograms) {
      std::string line = name + "=";
      for (std::uint64_t c : h.counts) line += std::to_string(c) + ",";
      metrics.push_back(line);
    }
    std::sort(metrics.begin(), metrics.end());
    p.metrics = Hex(HashLines(metrics));
    return p;
  }

 private:
  std::string stem_;
  obs::JsonlTraceSink trace_;
  obs::StatusFileWriter status_;
  obs::FlightRecorder recorder_;
  obs::MetricsRegistry metrics_;
  obs::SolveMetrics solve_metrics_{metrics_};
  std::function<void(const IterationEvent&)> on_check_;
  std::vector<std::string> snapshots_;
};

void ExpectPrints(const TelemetryPrints& got, const TelemetryPrints& want) {
  EXPECT_EQ(got.trace, want.trace);
  EXPECT_EQ(got.status, want.status);
  EXPECT_EQ(got.postmortem, want.postmortem);
  EXPECT_EQ(got.metrics, want.metrics);
}

class GoldenTelemetry : public ::testing::Test {
 protected:
  void SetUp() override { fail::DisarmAll(); }
  void TearDown() override { fail::DisarmAll(); }

  static SeaOptions Options() {
    SeaOptions o;
    o.epsilon = 1e-10;
    o.criterion = StopCriterion::kResidualRel;
    return o;
  }
};

TEST_F(GoldenTelemetry, ConvergingFixedSolve) {
  SeaOptions o = Options();
  // kXChange every other iteration: the first check has no measure.
  o.criterion = StopCriterion::kXChange;
  o.check_every = 2;
  Subscribers subs("converging", o.epsilon);
  subs.Attach(o);
  const auto run = SolveDiagonal(FixedProblem(), o);
  ASSERT_TRUE(run.result.converged());
  ExpectPrints(subs.Prints(), {"0xb23cb223584921b2", "0xbaf88459ffc12723",
                              "0x7466b97208357798", "0x52966b872aaa3e98"});
}

TEST_F(GoldenTelemetry, FrozenMeasureStallIsRescued) {
  SeaOptions o = Options();
  o.recover = true;
  o.stall_checks = 3;
  // Checks 2..9 report the previous measure: the detector trips at checks
  // 4 and 8, the restore rung rescues both, and the solve converges.
  fail::Arm("sea.engine.freeze_measure", 2, 8);
  Subscribers subs("stall", o.epsilon);
  subs.Attach(o);
  const auto run = SolveDiagonal(FixedProblem(), o);
  ASSERT_TRUE(run.result.converged());
  ASSERT_EQ(run.result.recovery_rungs, std::vector<std::uint8_t>({1, 1}));
  ExpectPrints(subs.Prints(), {"0xcf8f7e19753a25ae", "0x6b7b9acc866fa1a3",
                              "0x98d66cd7f51d9782", "0xf00b397099969572"});
}

TEST_F(GoldenTelemetry, CancelledSolveResumesFromItsCheckpoint) {
  const DiagonalProblem p = FixedProblem();
  const std::string path =
      ::testing::TempDir() + "/golden_telemetry_resume.ckpt";
  std::remove(path.c_str());
  CheckpointWriter writer(path, /*every_checks=*/2);
  Subscribers subs("resume", Options().epsilon);

  CancelToken cancel;
  SeaOptions first = Options();
  first.checkpoint = &writer;
  first.cancel = &cancel;
  subs.Attach(first, [&cancel](const IterationEvent& ev) {
    if (ev.iteration == 7) cancel.Cancel();
  });
  const auto partial = SolveDiagonal(p, first);
  ASSERT_EQ(partial.result.status, SolveStatus::kCancelled);

  const auto loaded = LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.state.iteration, 7u);
  SeaOptions second = Options();
  second.checkpoint = &writer;
  second.resume = &loaded.state;
  subs.Attach(second);
  const auto resumed = SolveDiagonal(p, second);
  ASSERT_TRUE(resumed.result.converged());
  ExpectPrints(subs.Prints(), {"0x1cc0421a06cf002c", "0xf2ae0eca6bcb2cff",
                              "0xe7f7055bbe57f3cd", "0xe82520a70e71c168"});
}

}  // namespace
}  // namespace sea
