// Exact equilibration of a single market: the closed-form solver that every
// row/column equilibrium subproblem of SEA reduces to.
//
// Problem: each row (supply market) or column (demand market) subproblem of
// the splitting equilibration algorithm is a singly-constrained quadratic
// knapsack. Its KKT conditions (paper eqs. (20)-(23)) say the optimal
// allocations are a piecewise-linear function of the constraint's multiplier:
//
//    x_j(lambda) = max(0, p_j + q_j * lambda),   q_j > 0,
//
// and the multiplier solves the scalar "market clearing" equation
//
//    sum_j x_j(lambda) = u + v * lambda,         v <= 0,
//
// where the right-hand side is a fixed total (v = 0, paper Section 3.1.3) or
// an elastic affine supply/demand response (v < 0, Sections 3.1.1-3.1.2).
// The left side is piecewise-linear and nondecreasing with breakpoints
// b_j = -p_j / q_j; the right side is affine nonincreasing, so the crossing
// is unique and is found *exactly* by sorting the breakpoints and sweeping
// (Eydeland & Nagurney 1989's "exact equilibration").
//
// Sorting: the paper uses HEAPSORT for long arrays (Section 4.1.1) and
// STRAIGHT INSERTION for arrays of 10..120 elements (Section 5.1.1). We
// implement both and pick by length (overridable), and count comparisons so
// the complexity model (7n + n ln n + 2n per market) can be validated.
//
// Sort reuse (SortPolicy::kReuse, docs/PARALLELISM.md): across SEA sweeps a
// market's breakpoint ORDER stabilizes as the multipliers converge — the same
// nearly-sorted regime accelerated iterative-scaling methods exploit. When a
// MarketOrder carrying the previous sweep's permutation is supplied, the
// solver builds the breakpoint array already permuted and repairs it with
// straight insertion — O(n + inversions) instead of a fresh O(n log n)
// heapsort — then persists the updated permutation for the next sweep. Ties
// are broken by original arc index in EVERY policy, so all sort paths produce
// one total order and bit-identical clearing multipliers.
//
// The workspace holds the market as a structure of arrays: contiguous p[]
// and q[] that the caller fills (BuildArcs / BuildArcsGather below), plus
// the breakpoint, sort-key and sorted-sweep scratch. docs/KERNELS.md walks
// through the five stages.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "support/op_counter.hpp"

namespace sea {

// One allocation arc of the market: x_j(lambda) = max(0, p + q*lambda).
// Convenience AoS view for tests and one-off callers; the hot paths fill the
// workspace's SoA arrays directly.
struct Arc {
  double p = 0.0;
  double q = 0.0;  // must be > 0
};

enum class SortPolicy {
  kAuto,       // insertion sort below kInsertionThreshold, heapsort above
  kInsertion,  // straight insertion sort (paper Section 5.1.1)
  kHeapsort,   // heapsort (paper Section 4.1.1)
  kReuse,      // repair the previous sweep's order; needs a MarketOrder
               // (falls back to kAuto when none is supplied)
};

// kAuto crossover between straight insertion and heapsort. The paper quotes
// insertion for 10..120 elements (Section 5.1.1) — on its 1989 testbed; the
// measured crossover on current x86-64 (bench/micro_kernels.cpp,
// BM_MarketSolveInsertion vs BM_MarketSolveHeapsort) sits at roughly 100-150
// elements, so we keep the next binary magnitude above the paper's 120. If
// the microbenches move the crossover on new hardware, re-tune here.
inline constexpr std::size_t kInsertionThreshold = 128;

struct BreakpointResult {
  double lambda = 0.0;
  std::size_t active_count = 0;  // arcs with x_j(lambda) > 0
  bool feasible = true;          // false only if v == 0 and u < 0
  bool order_reused = false;     // solved by repairing a persisted order
  OpCounts ops;
};

// One market's breakpoint order, persisted across sweeps for
// SortPolicy::kReuse. `perm` is the sorted order as indices into the arc
// array (empty until the first solve establishes it; invalidated by the
// solver whenever the arc count changes).
struct MarketOrder {
  std::vector<std::uint32_t> perm;
  std::uint64_t reuses = 0;  // solves that repaired instead of re-sorting
};

namespace detail {

// Sort element: breakpoint value plus the original arc index that breaks
// ties (16 bytes — half the old {b,p,q,idx} node, so every sort moves half
// the data; p/q are gathered into sweep order after the sort instead).
struct SortKey {
  double b = 0.0;
  std::uint32_t idx = 0;
};

}  // namespace detail

// Reusable per-worker scratch arena for market solves; reuse across calls to
// avoid per-market allocation on the hot path. The market itself is the SoA
// pair p()/q(): callers Resize() then fill the spans (typically through
// BuildArcs), and the solver keeps its breakpoint, sort-key, and
// sorted-sweep arrays alongside.
class BreakpointWorkspace {
 public:
  // Sizes the market to n arcs; existing p/q contents beyond n are dropped.
  void Resize(std::size_t n) {
    n_ = n;
    if (p_.size() < n) {
      p_.resize(n);
      q_.resize(n);
    }
  }
  std::size_t size() const { return n_; }

  // The market bundle, valid after Resize: x_j(lambda) = max(0, p[j] +
  // q[j]*lambda) with q[j] > 0.
  std::span<double> p() { return {p_.data(), n_}; }
  std::span<double> q() { return {q_.data(), n_}; }
  std::span<const double> p() const { return {p_.data(), n_}; }
  std::span<const double> q() const { return {q_.data(), n_}; }

  // AoS convenience for tests and one-off callers.
  void Assign(std::span<const Arc> arcs) {
    Resize(arcs.size());
    for (std::size_t j = 0; j < arcs.size(); ++j) {
      p_[j] = arcs[j].p;
      q_[j] = arcs[j].q;
    }
  }
  void Assign(std::initializer_list<Arc> arcs) {
    Assign(std::span<const Arc>(arcs.begin(), arcs.size()));
  }

 private:
  friend BreakpointResult SolveMarket(BreakpointWorkspace&, double, double,
                                      SortPolicy, MarketOrder*);
  std::size_t n_ = 0;
  // The market bundle (caller-filled; only the first n_ entries are live).
  std::vector<double> p_;
  std::vector<double> q_;
  // Solver scratch: unsorted breakpoints, sort keys, and the sorted SoA view
  // (bs_ holds one extra +inf sentinel past the last breakpoint).
  std::vector<double> b_;
  std::vector<detail::SortKey> keys_;
  std::vector<double> bs_;
  std::vector<double> ps_;
  std::vector<double> qs_;
};

// Solves sum_j max(0, p_j + q_j*lambda) = u + v*lambda over the market
// currently in ws. Preconditions: all q_j > 0, v <= 0, and u >= 0 when
// v == 0. The p/q arrays are left unchanged. With policy == kReuse and a
// non-null order, the previous permutation seeds the sort (see header
// comment); the updated permutation is written back to *order.
BreakpointResult SolveMarket(BreakpointWorkspace& ws, double u, double v,
                             SortPolicy policy = SortPolicy::kAuto,
                             MarketOrder* order = nullptr);

// Interval-total variant (Harrigan & Buchanan 1984 extension): clears
// against the *clamped* response
//
//    sum_j max(0, p_j + q_j*lambda) = clamp(u + v*lambda, lo, hi),
//
// the closed form of a market whose total is both penalized and box
// constrained (lo <= total <= hi). Requires v < 0 and 0 <= lo <= hi. The
// left side is nondecreasing and the right side nonincreasing, so the
// crossing is unique; it is found by testing the three response pieces.
BreakpointResult SolveMarketBox(BreakpointWorkspace& ws, double u, double v,
                                double lo, double hi,
                                SortPolicy policy = SortPolicy::kAuto,
                                MarketOrder* order = nullptr);

// Market construction: p[j] = centers[j] + other_mult[j]*q[j] with
// q[j] = 1/(2*weights[j]), over spans of equal length (outputs may not alias
// inputs). The gather variant serves sparse (CSR) rows: other_mult is
// indexed through cols.
void BuildArcs(std::span<const double> centers,
               std::span<const double> weights,
               std::span<const double> other_mult, std::span<double> p,
               std::span<double> q);
void BuildArcsGather(std::span<const double> centers,
                     std::span<const double> weights,
                     std::span<const double> other_mult,
                     std::span<const std::size_t> cols, std::span<double> p,
                     std::span<double> q);

// Allocations after clearing: x[j] = max(0, p[j] + q[j]*lambda), with
// std::max(0.0, v) semantics (-0.0 and NaN come out as +0.0).
void Writeback(std::span<const double> p, std::span<const double> q,
               double lambda, std::span<double> x);

// Evaluates sum_j max(0, p_j + q_j*lambda) — the left-hand side of the
// clearing equation, used by tests and by callers that need allocations
// after solving. Sequential summation (order-dependent).
double EvaluateSupply(std::span<const Arc> arcs, double lambda);
double EvaluateSupply(std::span<const double> p, std::span<const double> q,
                      double lambda);

}  // namespace sea
