#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "equilibration/breakpoint_solver.hpp"
#include "support/rng.hpp"

namespace sea {
namespace {

// Reference root finder: bisection on the monotone clearing function
// f(lambda) = sum_j max(0, p_j + q_j lambda) - (u + v lambda).
double Bisect(const std::vector<Arc>& arcs, double u, double v) {
  auto f = [&](double lam) {
    return EvaluateSupply(arcs, lam) - (u + v * lam);
  };
  double lo = -1.0, hi = 1.0;
  while (f(lo) > 0.0) lo *= 2.0;
  while (f(hi) < 0.0) hi *= 2.0;
  for (int it = 0; it < 200; ++it) {
    const double mid = 0.5 * (lo + hi);
    (f(mid) < 0.0 ? lo : hi) = mid;
  }
  return 0.5 * (lo + hi);
}

TEST(BreakpointSolver, SingleArcFixedTotal) {
  // max(0, 2 + 0.5 lambda) = 5  =>  lambda = 6.
  BreakpointWorkspace ws;
  ws.Assign({{2.0, 0.5}});
  const auto res = SolveMarket(ws, 5.0, 0.0);
  EXPECT_TRUE(res.feasible);
  EXPECT_NEAR(res.lambda, 6.0, 1e-12);
  EXPECT_EQ(res.active_count, 1u);
}

TEST(BreakpointSolver, TwoArcsOneInactive) {
  // Arcs: max(0, 1 + lambda), max(0, -10 + lambda). Total 3 => first arc
  // alone supplies 3 at lambda = 2 (second still at breakpoint 10).
  BreakpointWorkspace ws;
  ws.Assign({{1.0, 1.0}, {-10.0, 1.0}});
  const auto res = SolveMarket(ws, 3.0, 0.0);
  EXPECT_NEAR(res.lambda, 2.0, 1e-12);
  EXPECT_EQ(res.active_count, 1u);
}

TEST(BreakpointSolver, ElasticClearsBeforeFirstBreakpoint) {
  // Supply zero until lambda = 10; demand side 4 + (-2) lambda hits zero at
  // lambda = 2 < 10: all allocations zero.
  BreakpointWorkspace ws;
  ws.Assign({{-10.0, 1.0}});
  const auto res = SolveMarket(ws, 4.0, -2.0);
  EXPECT_NEAR(res.lambda, 2.0, 1e-12);
  EXPECT_EQ(res.active_count, 0u);
}

TEST(BreakpointSolver, ZeroFixedTotalAllZero) {
  BreakpointWorkspace ws;
  ws.Assign({{3.0, 1.0}, {5.0, 2.0}});
  const auto res = SolveMarket(ws, 0.0, 0.0);
  EXPECT_TRUE(res.feasible);
  EXPECT_EQ(res.active_count, 0u);
  EXPECT_NEAR(EvaluateSupply(ws.p(), ws.q(), res.lambda), 0.0, 1e-12);
}

TEST(BreakpointSolver, NegativeFixedTotalInfeasible) {
  BreakpointWorkspace ws;
  ws.Assign({{1.0, 1.0}});
  const auto res = SolveMarket(ws, -1.0, 0.0);
  EXPECT_FALSE(res.feasible);
}

TEST(BreakpointSolver, EmptyMarketElastic) {
  BreakpointWorkspace ws;
  ws.Resize(0);
  const auto res = SolveMarket(ws, 6.0, -3.0);
  EXPECT_TRUE(res.feasible);
  EXPECT_NEAR(res.lambda, 2.0, 1e-12);
}

TEST(BreakpointSolver, TiedBreakpoints) {
  BreakpointWorkspace ws;
  ws.Assign({{-2.0, 1.0}, {-2.0, 1.0}, {-2.0, 1.0}});
  // All activate at lambda = 2; total 6 requires 3 (lambda - 2) = 6.
  const auto res = SolveMarket(ws, 6.0, 0.0);
  EXPECT_NEAR(res.lambda, 4.0, 1e-12);
  EXPECT_EQ(res.active_count, 3u);
}

TEST(BreakpointSolver, OpCountsPopulated) {
  BreakpointWorkspace ws;
  Rng rng(5);
  std::vector<Arc> arcs(300);
  for (auto& a : arcs) a = {rng.Uniform(-5, 5), rng.Uniform(0.1, 2.0)};
  ws.Assign(arcs);
  const auto res = SolveMarket(ws, 100.0, 0.0);
  EXPECT_EQ(res.ops.breakpoints, 300u);
  EXPECT_GT(res.ops.comparisons, 300u);  // at least the sort
  EXPECT_GT(res.ops.flops, 300u);
}

TEST(BreakpointSolver, InsertionVsHeapsortIdentical) {
  Rng rng(6);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 1 + rng.NextIndex(200);
    std::vector<Arc> arcs(n);
    for (auto& a : arcs) a = {rng.Uniform(-10, 10), rng.Uniform(0.05, 3.0)};
    BreakpointWorkspace w1, w2;
    w1.Assign(arcs);
    w2.Assign(arcs);
    const double u = rng.Uniform(0.0, 50.0);
    const double v = rng.Bernoulli(0.5) ? 0.0 : -rng.Uniform(0.01, 2.0);
    const auto r1 = SolveMarket(w1, u, v, SortPolicy::kInsertion);
    const auto r2 = SolveMarket(w2, u, v, SortPolicy::kHeapsort);
    EXPECT_NEAR(r1.lambda, r2.lambda, 1e-10);
    EXPECT_EQ(r1.active_count, r2.active_count);
  }
}

// Property sweep: solver's lambda satisfies the clearing equation and
// matches bisection, across sizes and target kinds.
class BreakpointProperty
    : public ::testing::TestWithParam<std::tuple<std::size_t, bool, int>> {};

TEST_P(BreakpointProperty, ClearsMarketExactly) {
  const auto [n, elastic, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 7919 + n);
  std::vector<Arc> arcs(n);
  for (auto& a : arcs)
    a = {rng.Uniform(-100.0, 100.0), rng.Uniform(0.01, 5.0)};
  BreakpointWorkspace ws;
  ws.Assign(arcs);
  const double u = rng.Uniform(0.0, 200.0);
  const double v = elastic ? -rng.Uniform(0.01, 3.0) : 0.0;

  const auto res = SolveMarket(ws, u, v);
  ASSERT_TRUE(res.feasible);
  const double supply = EvaluateSupply(arcs, res.lambda);
  const double target = u + v * res.lambda;
  const double scale = std::max({1.0, std::abs(supply), std::abs(target)});
  EXPECT_LT(std::abs(supply - target) / scale, 1e-10);

  // Active count consistent with the allocations.
  std::size_t active = 0;
  for (const auto& a : arcs)
    if (a.p + a.q * res.lambda > 1e-12) ++active;
  EXPECT_LE(active, res.active_count);
  EXPECT_GE(active + 2, res.active_count);  // ties may sit at zero

  // Agreement with bisection (bisection itself is ~1e-12 accurate here).
  if (supply > 1e-9 || v < 0.0) {
    const double ref = Bisect(arcs, u, v);
    EXPECT_NEAR(EvaluateSupply(arcs, ref) - (u + v * ref), 0.0, 1e-6);
    // lambda may differ on flat segments; compare cleared quantities.
    EXPECT_NEAR(EvaluateSupply(arcs, res.lambda), EvaluateSupply(arcs, ref),
                1e-6 * scale);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BreakpointProperty,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 3, 5, 10, 50, 129,
                                                      500),
                       ::testing::Bool(), ::testing::Values(1, 2, 3)));

// ---------------------------------------------------------------------------
// Sort-policy equivalence and the kReuse repair path. Ties are broken by
// original arc index in every policy (one total order), so the multipliers
// must agree BIT-FOR-BIT, not just to tolerance.

TEST(SortPolicies, AllPoliciesBitIdenticalIncludingTies) {
  Rng rng(11);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t n = 1 + rng.NextIndex(300);
    std::vector<Arc> arcs(n);
    for (auto& a : arcs) {
      a = {rng.Uniform(-10, 10), rng.Uniform(0.05, 3.0)};
      // Force frequent exact breakpoint ties: quantize some breakpoints by
      // snapping p to a multiple of q.
      if (rng.Bernoulli(0.5)) a.p = -std::round(-a.p / a.q) * a.q;
    }
    BreakpointWorkspace wi, wh, wr;
    wi.Assign(arcs);
    wh.Assign(arcs);
    wr.Assign(arcs);
    const double u = rng.Uniform(0.0, 50.0);
    const double v = rng.Bernoulli(0.5) ? 0.0 : -rng.Uniform(0.01, 2.0);

    MarketOrder order;
    const auto ri = SolveMarket(wi, u, v, SortPolicy::kInsertion);
    const auto rh = SolveMarket(wh, u, v, SortPolicy::kHeapsort);
    // Twice with the same order: establish, then repair.
    auto rr = SolveMarket(wr, u, v, SortPolicy::kReuse, &order);
    EXPECT_FALSE(rr.order_reused);
    rr = SolveMarket(wr, u, v, SortPolicy::kReuse, &order);
    EXPECT_TRUE(rr.order_reused);
    EXPECT_EQ(order.reuses, 1u);

    EXPECT_EQ(ri.lambda, rh.lambda);  // exact: same total order
    EXPECT_EQ(ri.lambda, rr.lambda);
    EXPECT_EQ(ri.active_count, rh.active_count);
    EXPECT_EQ(ri.active_count, rr.active_count);
    EXPECT_EQ(ri.feasible, rr.feasible);

    // Identical allocations, elementwise exact.
    for (std::size_t j = 0; j < n; ++j) {
      const auto& a = arcs[j];
      const double xi = std::max(0.0, a.p + a.q * ri.lambda);
      const double xr = std::max(0.0, a.p + a.q * rr.lambda);
      EXPECT_EQ(xi, xr);
    }
  }
}

TEST(SortPolicies, SingleArcMarketAllPolicies) {
  for (auto policy : {SortPolicy::kAuto, SortPolicy::kInsertion,
                      SortPolicy::kHeapsort, SortPolicy::kReuse}) {
    BreakpointWorkspace ws;
    ws.Assign({{2.0, 0.5}});
    MarketOrder order;
    const auto res = SolveMarket(ws, 5.0, 0.0, policy, &order);
    EXPECT_TRUE(res.feasible);
    EXPECT_EQ(res.lambda, 6.0);
    EXPECT_EQ(res.active_count, 1u);
  }
}

TEST(SortPolicies, ReuseWithoutOrderFallsBackToAuto) {
  Rng rng(12);
  std::vector<Arc> arcs(64);
  for (auto& a : arcs) a = {rng.Uniform(-5, 5), rng.Uniform(0.1, 2.0)};
  BreakpointWorkspace w1, w2;
  w1.Assign(arcs);
  w2.Assign(arcs);
  const auto ra = SolveMarket(w1, 20.0, 0.0, SortPolicy::kAuto);
  const auto rr = SolveMarket(w2, 20.0, 0.0, SortPolicy::kReuse, nullptr);
  EXPECT_EQ(ra.lambda, rr.lambda);
  EXPECT_FALSE(rr.order_reused);
  EXPECT_EQ(ra.ops.comparisons, rr.ops.comparisons);
}

TEST(SortPolicies, RepairOfUnchangedMarketCostsNoInversions) {
  BreakpointWorkspace ws;
  Rng rng(13);
  std::vector<Arc> arcs(400);
  for (auto& a : arcs) a = {rng.Uniform(-10, 10), rng.Uniform(0.1, 2.0)};
  ws.Assign(arcs);
  MarketOrder order;
  const auto first = SolveMarket(ws, 50.0, 0.0, SortPolicy::kReuse, &order);
  EXPECT_EQ(first.ops.inversions, 0u);  // established, not repaired
  const auto second = SolveMarket(ws, 50.0, 0.0, SortPolicy::kReuse, &order);
  EXPECT_TRUE(second.order_reused);
  EXPECT_EQ(second.ops.inversions, 0u);  // already sorted: pure verify pass
  // The repair pass of an in-order array is one comparison per adjacent
  // pair — far below the fresh heapsort.
  EXPECT_LT(second.ops.comparisons, first.ops.comparisons);
}

TEST(SortPolicies, RepairTracksDriftingMarket) {
  // Perturb arcs slightly between solves: the order stays nearly sorted, the
  // repair stays cheap, and the result still matches a from-scratch solve.
  Rng rng(14);
  std::vector<Arc> arcs(200);
  for (auto& a : arcs) a = {rng.Uniform(-10, 10), rng.Uniform(0.1, 2.0)};
  BreakpointWorkspace ws;
  ws.Assign(arcs);
  MarketOrder order;
  (void)SolveMarket(ws, 30.0, 0.0, SortPolicy::kReuse, &order);
  for (int sweep = 0; sweep < 10; ++sweep) {
    for (auto& a : arcs) a.p += rng.Uniform(-0.01, 0.01);
    ws.Assign(arcs);
    BreakpointWorkspace fresh;
    fresh.Assign(arcs);
    const auto repaired = SolveMarket(ws, 30.0, 0.0, SortPolicy::kReuse, &order);
    const auto scratch = SolveMarket(fresh, 30.0, 0.0, SortPolicy::kHeapsort);
    EXPECT_TRUE(repaired.order_reused);
    EXPECT_EQ(repaired.lambda, scratch.lambda);
  }
  EXPECT_EQ(order.reuses, 10u);
}

TEST(SortPolicies, ArcCountChangeInvalidatesPersistedOrder) {
  std::vector<Arc> arcs = {{1.0, 1.0}, {2.0, 1.0}, {3.0, 1.0}};
  BreakpointWorkspace ws;
  ws.Assign(arcs);
  MarketOrder order;
  (void)SolveMarket(ws, 5.0, 0.0, SortPolicy::kReuse, &order);
  EXPECT_EQ(order.perm.size(), 3u);
  arcs.push_back({0.5, 2.0});
  ws.Assign(arcs);
  const auto res = SolveMarket(ws, 5.0, 0.0, SortPolicy::kReuse, &order);
  EXPECT_FALSE(res.order_reused);  // stale perm ignored, then re-established
  EXPECT_EQ(order.perm.size(), 4u);
  const auto again = SolveMarket(ws, 5.0, 0.0, SortPolicy::kReuse, &order);
  EXPECT_TRUE(again.order_reused);
}

TEST(SortPolicies, BoxSolveAgreesAcrossPoliciesAndReuses) {
  Rng rng(15);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 1 + rng.NextIndex(100);
    std::vector<Arc> arcs(n);
    for (auto& a : arcs) a = {rng.Uniform(-10, 10), rng.Uniform(0.05, 3.0)};
    BreakpointWorkspace wh, wr;
    wh.Assign(arcs);
    wr.Assign(arcs);
    const double u = rng.Uniform(1.0, 50.0);
    const double v = -rng.Uniform(0.01, 2.0);
    const double lo = rng.Uniform(0.0, 10.0);
    const double hi = lo + rng.Uniform(0.0, 20.0);
    MarketOrder order;
    const auto rh = SolveMarketBox(wh, u, v, lo, hi, SortPolicy::kHeapsort);
    (void)SolveMarketBox(wr, u, v, lo, hi, SortPolicy::kReuse, &order);
    const auto rr = SolveMarketBox(wr, u, v, lo, hi, SortPolicy::kReuse, &order);
    EXPECT_EQ(rh.lambda, rr.lambda);
    EXPECT_TRUE(rr.order_reused);
  }
}

TEST(BreakpointSolver, ComplexityMatchesNLogN) {
  // The paper charges each market ~ n log n comparisons; check the heapsort
  // path's comparison count is Theta(n log n).
  Rng rng(9);
  for (std::size_t n : {256u, 1024u, 4096u}) {
    std::vector<Arc> arcs(n);
    for (auto& a : arcs) a = {rng.Uniform(-10, 10), rng.Uniform(0.1, 1.0)};
    BreakpointWorkspace ws;
    ws.Assign(arcs);
    const auto res = SolveMarket(ws, 10.0, 0.0, SortPolicy::kHeapsort);
    const double nlogn = static_cast<double>(n) * std::log2(double(n));
    EXPECT_GT(static_cast<double>(res.ops.comparisons), 0.5 * nlogn);
    EXPECT_LT(static_cast<double>(res.ops.comparisons), 4.0 * nlogn);
  }
}

TEST(BreakpointSolver, LargeMarketOrderIsTheKeyLessOrder) {
  // Above kInsertionThreshold kAuto radix-sorts an integer image of the
  // breakpoints. The order it establishes must be the (b, arc index) total
  // order of the comparison sorts, on exactly the inputs where an integer
  // image could go wrong: all-tied markets (gamma = 1/x0 makes most
  // first-sweep breakpoints exactly -2), both signs of zero (equal as
  // doubles, so the index breaks their tie), heavy duplicates, subnormal and
  // near-overflow magnitudes, and values of both signs.
  const auto same_bits = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
  };
  const char* const kinds[] = {"tied", "signed_zeros", "duplicates",
                               "extreme", "mixed_sign"};
  const Arc pool[] = {{3.0, 0.5}, {-1.0, 2.0}, {0.0, 1.0}, {7.5, 1.5},
                      {-4.0, 0.25}};
  Rng rng(0x5EED);
  for (std::size_t n : {129u, 130u, 257u, 1000u, 4096u}) {
    for (const char* kind : kinds) {
      const std::string k = kind;
      std::vector<Arc> arcs(n);
      for (auto& a : arcs) {
        const double q = rng.Uniform(0.1, 5.0);
        if (k == "tied") {
          a = {2.0 * q, q};  // b = -2 exactly
        } else if (k == "signed_zeros") {
          const double r = rng.Uniform(0.0, 1.0);
          a = {r < 0.4 ? 0.0 : r < 0.8 ? -0.0 : rng.Uniform(-5.0, 5.0), q};
        } else if (k == "duplicates") {
          a = pool[rng.NextIndex(5)];
        } else if (k == "extreme") {
          const double sign = rng.Bernoulli(0.5) ? 1.0 : -1.0;
          const double r = rng.Uniform(0.0, 1.0);
          const double mag =
              r < 0.25   ? rng.Uniform(1.0, 1e6) * 4.9406564584124654e-324
              : r < 0.5  ? rng.Uniform(0.5, 2.0) * 1e-300
              : r < 0.75 ? rng.Uniform(0.5, 2.0) * 1e300
                         : rng.Uniform(0.0, 10.0);
          a = {sign * mag, rng.Uniform(0.5, 2.0)};
        } else {
          a = {rng.Uniform(-100.0, 100.0), q};
        }
      }
      double scale = 1.0;
      for (const auto& a : arcs) scale += std::abs(a.p);
      const double u = 0.25 * scale;

      // Reference: std::sort of {b_j, j} by value, ties by index.
      std::vector<double> b(n);
      for (std::size_t j = 0; j < n; ++j) b[j] = -arcs[j].p / arcs[j].q;
      std::vector<std::uint32_t> expected(n);
      for (std::size_t j = 0; j < n; ++j) expected[j] = std::uint32_t(j);
      std::sort(expected.begin(), expected.end(),
                [&b](std::uint32_t x, std::uint32_t y) {
                  return b[x] < b[y] || (b[x] == b[y] && x < y);
                });

      const std::string tag = "n=" + std::to_string(n) + " " + k;
      BreakpointWorkspace ws;
      ws.Assign(arcs);
      MarketOrder order;
      const auto established =
          SolveMarket(ws, u, 0.0, SortPolicy::kReuse, &order);
      EXPECT_FALSE(established.order_reused) << tag;
      EXPECT_EQ(order.perm, expected) << tag;

      for (double v : {0.0, -0.5}) {
        const auto ra = SolveMarket(ws, u, v, SortPolicy::kAuto);
        const auto rh = SolveMarket(ws, u, v, SortPolicy::kHeapsort);
        const auto ri = SolveMarket(ws, u, v, SortPolicy::kInsertion);
        EXPECT_TRUE(same_bits(ra.lambda, rh.lambda)) << tag << " v=" << v;
        EXPECT_TRUE(same_bits(ra.lambda, ri.lambda)) << tag << " v=" << v;
        EXPECT_EQ(ra.active_count, rh.active_count) << tag << " v=" << v;
        EXPECT_EQ(ra.active_count, ri.active_count) << tag << " v=" << v;
      }
      const double lo = 0.1 * u, hi = 0.5 * u;
      const auto ba = SolveMarketBox(ws, u, -0.5, lo, hi, SortPolicy::kAuto);
      const auto bh =
          SolveMarketBox(ws, u, -0.5, lo, hi, SortPolicy::kHeapsort);
      const auto bi =
          SolveMarketBox(ws, u, -0.5, lo, hi, SortPolicy::kInsertion);
      EXPECT_TRUE(same_bits(ba.lambda, bh.lambda)) << tag << " box";
      EXPECT_TRUE(same_bits(ba.lambda, bi.lambda)) << tag << " box";
      EXPECT_EQ(ba.active_count, bh.active_count) << tag << " box";
      EXPECT_EQ(ba.active_count, bi.active_count) << tag << " box";
    }
  }
}

TEST(BreakpointSolver, ClearingOnTheLastSegmentMeetsTheSentinel) {
  // Every arc is active at the clearing point, so the sweep accepts the
  // last segment, whose right edge is the single +inf sentinel. A larger
  // market solved first leaves finite breakpoints past the smaller market's
  // end in the workspace; the sentinel must still sit at index n.
  BreakpointWorkspace ws;
  ws.Assign({{1.0, 1.0}, {2.0, 1.0}, {3.0, 1.0}, {4.0, 1.0}, {5.0, 1.0}});
  (void)SolveMarket(ws, 1.0, 0.0);  // breakpoints -5..-1 fill the scratch
  ws.Assign({{1.0, 1.0}, {2.0, 1.0}, {3.0, 1.0}});  // breakpoints -1,-2,-3
  for (SortPolicy policy : {SortPolicy::kInsertion, SortPolicy::kHeapsort}) {
    const auto fixed = SolveMarket(ws, 100.0, 0.0, policy);
    EXPECT_EQ(fixed.active_count, 3u);
    // Sorted order -3, -2, -1: prefix sums 3 + 2 + 1 and 1 + 1 + 1.
    EXPECT_EQ(fixed.lambda, (100.0 - 6.0) / 3.0);
    const auto elastic = SolveMarket(ws, 100.0, -1.0, policy);
    EXPECT_EQ(elastic.active_count, 3u);
    EXPECT_EQ(elastic.lambda, (100.0 - 6.0) / (3.0 + 1.0));
  }
}

TEST(BreakpointSolver, BuildArcsGatherMatchesBuildArcsOnTheGatheredRow) {
  // The sparse (CSR) construction must build the same market, bit for bit,
  // as the dense one fed the multipliers it gathers; q is 1/(2w) exactly.
  Rng rng(0xE1E3);
  for (std::size_t n : {0u, 1u, 3u, 4u, 5u, 9u, 64u, 257u}) {
    std::vector<double> centers(n), weights(n);
    for (std::size_t j = 0; j < n; ++j) {
      centers[j] = rng.Uniform(-50.0, 50.0);
      weights[j] = rng.Uniform(0.01, 10.0);
    }
    // Reversed column indices into a longer multiplier row.
    std::vector<double> wide(2 * n + 1);
    for (double& x : wide) x = rng.Uniform(-20.0, 20.0);
    std::vector<std::size_t> cols(n);
    std::vector<double> gathered(n);
    for (std::size_t j = 0; j < n; ++j) {
      cols[j] = 2 * (n - 1 - j);
      gathered[j] = wide[cols[j]];
    }
    std::vector<double> pg(n), qg(n), pd(n), qd(n);
    BuildArcsGather(centers, weights, wide, cols, pg, qg);
    BuildArcs(centers, weights, gathered, pd, qd);
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_EQ(qg[j], 1.0 / (2.0 * weights[j])) << "n=" << n << " j=" << j;
      EXPECT_EQ(qd[j], qg[j]) << "n=" << n << " j=" << j;
      EXPECT_EQ(pd[j], pg[j]) << "n=" << n << " j=" << j;
      EXPECT_NEAR(pd[j], centers[j] + gathered[j] * qd[j],
                  1e-12 * (1.0 + std::abs(pd[j])));
    }
  }
}

TEST(BreakpointSolver, WorkspaceReuseMatchesAFreshWorkspace) {
  // One workspace serves every market of a worker, so markets of any size
  // follow one another through the same scratch. A solve must not depend on
  // what the previous one left there: multiplier, active count, feasibility
  // and op counts equal those of a fresh workspace, for every policy, with
  // markets shrinking and growing. Ties (duplicated arcs) exercise the
  // index tie-break.
  Rng rng(0xBEEF);
  BreakpointWorkspace reused;
  for (std::size_t n :
       {1000u, 129u, 0u, 7u, 128u, 1u, 300u, 2u, 31u, 5u, 1000u, 3u}) {
    std::vector<Arc> arcs(n);
    for (auto& a : arcs)
      a = {rng.Uniform(-100.0, 100.0), rng.Uniform(0.01, 5.0)};
    for (std::size_t j = 3; j + 1 < n; j += 4) arcs[j + 1] = arcs[j];
    const double u = rng.Uniform(0.0, 0.9 * double(n) + 1.0);
    for (double v : {0.0, -0.5}) {
      for (SortPolicy policy : {SortPolicy::kAuto, SortPolicy::kInsertion,
                                SortPolicy::kHeapsort}) {
        const std::string tag = "n=" + std::to_string(n) +
                                " v=" + std::to_string(v) +
                                " policy=" + std::to_string(int(policy));
        BreakpointWorkspace fresh;
        fresh.Assign(arcs);
        reused.Assign(arcs);
        const auto rf = SolveMarket(fresh, u, v, policy);
        const auto rr = SolveMarket(reused, u, v, policy);
        EXPECT_EQ(rf.lambda, rr.lambda) << tag;
        EXPECT_EQ(rf.active_count, rr.active_count) << tag;
        EXPECT_EQ(rf.feasible, rr.feasible) << tag;
        EXPECT_EQ(rf.ops.comparisons, rr.ops.comparisons) << tag;
        EXPECT_EQ(rf.ops.flops, rr.ops.flops) << tag;
        EXPECT_EQ(rf.ops.breakpoints, rr.ops.breakpoints) << tag;
        // The solve leaves the market itself untouched.
        for (std::size_t j = 0; j < n; ++j) {
          ASSERT_EQ(reused.p()[j], arcs[j].p) << tag;
          ASSERT_EQ(reused.q()[j], arcs[j].q) << tag;
        }
        // Writeback's allocations sum, in arc order, to the supply the
        // clearing equation evaluates.
        std::vector<double> x(n);
        Writeback(reused.p(), reused.q(), rr.lambda, x);
        double total = 0.0;
        for (double xj : x) total += xj;
        EXPECT_EQ(total, EvaluateSupply(reused.p(), reused.q(), rr.lambda))
            << tag;
      }
    }
  }
}

TEST(BreakpointSolver, WritebackClampsSignedZeroAndNaNToPositiveZero) {
  // std::max(0.0, v) semantics: -0.0 products, exact-zero products, and NaN
  // all come out as +0.0 bitwise.
  const auto same_bits = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> p = {-0.0, 0.0, nan, -6.0, 4.0};
  const std::vector<double> q(p.size(), 1.0);
  std::vector<double> x(p.size(), -1.0);
  Writeback(p, q, 0.0, x);
  EXPECT_TRUE(same_bits(x[0], 0.0));  // max(0, -0.0) = +0.0
  EXPECT_TRUE(same_bits(x[1], 0.0));
  EXPECT_TRUE(same_bits(x[2], 0.0));  // max(0, NaN) = first arg
  EXPECT_TRUE(same_bits(x[3], 0.0));
  EXPECT_TRUE(same_bits(x[4], 4.0));
}

}  // namespace
}  // namespace sea
