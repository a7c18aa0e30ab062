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
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/diagonal_sea.hpp"
#include "datasets/large_diagonal.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "sparse/sparse_sea.hpp"
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
    SeaOptions o;
    o.epsilon = 1e-10;
    o.criterion = StopCriterion::kResidualRel;
    o.pool = pool;
    o.metrics = &metrics;
    o.progress = [&rec](const IterationEvent& ev) {
      if (!ev.measure_defined) return;
      rec.measures.push_back(ev.measure);
      rec.iterations.push_back(ev.iteration);
      rec.ops.push_back(ev.ops_total);
    };
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

}  // namespace
}  // namespace sea
