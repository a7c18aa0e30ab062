// The market kernel (docs/KERNELS.md): arc construction, breakpoints, the
// breakpoint sort, the clearing sweep and the allocation writeback, as plain
// scalar loops over the workspace's SoA arrays.
//
// This file is compiled with -ffp-contract=off (src/CMakeLists.txt): fusing
// c + m*q into an FMA would change rounding, so every toolchain and target
// computes the same bits here.
#include "equilibration/breakpoint_solver.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "obs/profiler.hpp"
#include "support/check.hpp"

namespace sea {

namespace {

using detail::SortKey;

// Strict weak order on sort keys: by breakpoint value, ties broken by
// original arc index. One TOTAL order shared by every sort policy, so the
// prefix sums of the segment sweep — and therefore the clearing multiplier —
// are bit-identical whichever sort produced the array.
inline bool KeyLess(const SortKey& a, const SortKey& b) {
  return a.b < b.b || (a.b == b.b && a.idx < b.idx);
}

// Straight insertion sort. `moves`, when non-null, receives the number of
// element shifts — for a nearly-sorted input this is the inversion count
// the sort-reuse path reports.
std::uint64_t InsertionSort(std::vector<SortKey>& v,
                            std::uint64_t* moves = nullptr) {
  std::uint64_t comparisons = 0;
  std::uint64_t shifted = 0;
  for (std::size_t i = 1; i < v.size(); ++i) {
    SortKey key = v[i];
    std::size_t j = i;
    while (j > 0) {
      ++comparisons;
      if (!KeyLess(key, v[j - 1])) break;
      v[j] = v[j - 1];
      ++shifted;
      --j;
    }
    v[j] = key;
  }
  if (moves != nullptr) *moves += shifted;
  return comparisons;
}

std::uint64_t Heapsort(std::vector<SortKey>& v) {
  std::uint64_t comparisons = 0;
  const std::size_t n = v.size();
  if (n < 2) return 0;

  auto sift_down = [&](std::size_t start, std::size_t end) {
    std::size_t root = start;
    for (;;) {
      std::size_t child = 2 * root + 1;
      if (child > end) break;
      if (child < end) {
        ++comparisons;
        if (KeyLess(v[child], v[child + 1])) ++child;
      }
      ++comparisons;
      if (!KeyLess(v[root], v[child])) break;
      std::swap(v[root], v[child]);
      root = child;
    }
  };

  for (std::size_t start = n / 2; start-- > 0;) sift_down(start, n - 1);
  for (std::size_t end = n - 1; end > 0; --end) {
    std::swap(v[0], v[end]);
    sift_down(0, end - 1);
  }
  return comparisons;
}

struct SweepHit {
  std::size_t k = 0;    // accepted segment: nodes[0..k] active
  double lambda = 0.0;  // (u - P_k) / (Q_k - v)
  bool found = false;   // false only on non-finite input (breakdown)
};

// Finds the first segment k whose clearing candidate does not overshoot its
// right edge. After activating nodes [0..k], supply(lambda) = P_k +
// Q_k*lambda on [bs[k], bs[k+1]]; bs[n] is the +inf sentinel, so the last
// segment always accepts on finite data. The acceptance test is the multiply
// form  u - P_k <= bs[k+1] * (Q_k - v) — equivalent to comparing the
// candidate against the segment edge since Q_k - v > 0, with one division
// per accepted segment instead of one per swept segment.
SweepHit SweepSearch(const double* bs, const double* ps, const double* qs,
                     std::size_t n, double u, double v) {
  SweepHit hit;
  double p_sum = 0.0;
  double q_sum = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    p_sum += ps[k];
    q_sum += qs[k];
    const double denom = q_sum - v;  // > 0
    if (u - p_sum <= bs[k + 1] * denom) {
      hit.k = k;
      hit.lambda = (u - p_sum) / denom;
      hit.found = true;
      return hit;
    }
  }
  return hit;  // non-finite data poisoned the sums
}

}  // namespace

void BuildArcs(std::span<const double> centers,
               std::span<const double> weights,
               std::span<const double> other_mult, std::span<double> p,
               std::span<double> q) {
  const std::size_t n = centers.size();
  for (std::size_t j = 0; j < n; ++j) {
    const double qj = 1.0 / (2.0 * weights[j]);
    q[j] = qj;
    p[j] = centers[j] + other_mult[j] * qj;
  }
}

void BuildArcsGather(std::span<const double> centers,
                     std::span<const double> weights,
                     std::span<const double> other_mult,
                     std::span<const std::size_t> cols, std::span<double> p,
                     std::span<double> q) {
  const std::size_t n = centers.size();
  for (std::size_t k = 0; k < n; ++k) {
    const double qk = 1.0 / (2.0 * weights[k]);
    q[k] = qk;
    p[k] = centers[k] + other_mult[cols[k]] * qk;
  }
}

void Writeback(std::span<const double> p, std::span<const double> q,
               double lambda, std::span<double> x) {
  const std::size_t n = p.size();
  // std::max(0.0, v) returns +0.0 for v in {-0.0, NaN}.
  for (std::size_t j = 0; j < n; ++j)
    x[j] = std::max(0.0, p[j] + q[j] * lambda);
}

double EvaluateSupply(std::span<const Arc> arcs, double lambda) {
  double s = 0.0;
  for (const Arc& a : arcs) {
    const double x = a.p + a.q * lambda;
    if (x > 0.0) s += x;
  }
  return s;
}

double EvaluateSupply(std::span<const double> p, std::span<const double> q,
                      double lambda) {
  double s = 0.0;
  for (std::size_t j = 0; j < p.size(); ++j) {
    const double x = p[j] + q[j] * lambda;
    if (x > 0.0) s += x;
  }
  return s;
}

BreakpointResult SolveMarket(BreakpointWorkspace& ws, double u, double v,
                             SortPolicy policy, MarketOrder* order) {
  obs::ProfScopeFine prof("breakpoint.solve");
  const std::size_t n = ws.n_;

  BreakpointResult result;
  SEA_CHECK_MSG(v <= 0.0, "elastic slope must be nonpositive");
  if (n == 0) {
    // No arcs: total supply is 0; clearing requires u + v*lambda = 0.
    if (v < 0.0) {
      result.lambda = -u / v;
    } else {
      result.feasible = (u == 0.0);
      result.lambda = 0.0;
    }
    return result;
  }
  if (v == 0.0 && u < 0.0) {
    result.feasible = false;
    return result;
  }

  // Breakpoints b_j = -p_j/q_j (exact negation, then division), in natural
  // arc order.
  auto& b = ws.b_;
  if (b.size() < n) b.resize(n);
  for (std::size_t j = 0; j < n; ++j) b[j] = -ws.p_[j] / ws.q_[j];
  result.ops.flops += n;  // breakpoint divisions
  result.ops.breakpoints = n;

  // Build sort keys — in the persisted order when reusing (the array is then
  // nearly sorted and insertion repairs it in O(n + inversions)), in natural
  // arc order otherwise.
  auto& keys = ws.keys_;
  keys.resize(n);
  const bool reuse = policy == SortPolicy::kReuse && order != nullptr &&
                     order->perm.size() == n;
  if (reuse) {
    for (std::size_t k = 0; k < n; ++k) {
      const std::uint32_t j = order->perm[k];
      SEA_DCHECK(j < n && ws.q_[j] > 0.0);
      keys[k] = {b[j], j};
    }
  } else {
    for (std::size_t j = 0; j < n; ++j) {
      SEA_DCHECK(ws.q_[j] > 0.0);
      keys[j] = {b[j], static_cast<std::uint32_t>(j)};
    }
  }

  if (reuse) {
    result.ops.comparisons += InsertionSort(keys, &result.ops.inversions);
    result.order_reused = true;
    ++order->reuses;
  } else {
    const bool use_insertion =
        policy == SortPolicy::kInsertion ||
        (policy != SortPolicy::kHeapsort && n <= kInsertionThreshold);
    result.ops.comparisons +=
        use_insertion ? InsertionSort(keys) : Heapsort(keys);
  }
  if (policy == SortPolicy::kReuse && order != nullptr) {
    // Persist the (repaired or freshly established) order for the next sweep.
    order->perm.resize(n);
    for (std::size_t k = 0; k < n; ++k) order->perm[k] = keys[k].idx;
  }

  // Gather the sorted SoA view. bs carries one +inf sentinel at index n, the
  // right edge of the last segment, so the sweep never reads past the end.
  if (ws.bs_.size() < n + 1) {
    ws.bs_.resize(n + 1);
    ws.ps_.resize(n);
    ws.qs_.resize(n);
  }
  for (std::size_t k = 0; k < n; ++k) {
    ws.bs_[k] = keys[k].b;
    ws.ps_[k] = ws.p_[keys[k].idx];
    ws.qs_[k] = ws.q_[keys[k].idx];
  }
  ws.bs_[n] = std::numeric_limits<double>::infinity();

  // Segment before the first breakpoint: supply is 0.
  // Clearing: 0 = u + v*lambda.
  if (v < 0.0) {
    const double lam = -u / v;
    ++result.ops.flops;
    ++result.ops.comparisons;
    if (lam <= ws.bs_[0]) {
      result.lambda = lam;
      result.active_count = 0;
      return result;
    }
  } else if (u == 0.0) {
    // Degenerate fixed total of zero: every lambda <= first breakpoint
    // clears; return the boundary (all allocations zero).
    result.lambda = ws.bs_[0];
    result.active_count = 0;
    return result;
  }

  const SweepHit hit =
      SweepSearch(ws.bs_.data(), ws.ps_.data(), ws.qs_.data(), n, u, v);
  // The last segment always accepts (its right edge is +inf), so a miss can
  // only mean non-finite arc data poisoned the prefix sums.
  SEA_INTERNAL_CHECK(hit.found);
  result.ops.flops += 4 * (hit.k + 1);
  result.ops.comparisons += hit.k + 1;
  result.lambda = hit.lambda;
  result.active_count = hit.k + 1;
  return result;
}

BreakpointResult SolveMarketBox(BreakpointWorkspace& ws, double u, double v,
                                double lo, double hi, SortPolicy policy,
                                MarketOrder* order) {
  obs::ProfScopeFine prof("breakpoint.solve");
  SEA_CHECK_MSG(v < 0.0, "interval clearing needs a strictly elastic slope");
  SEA_CHECK_MSG(0.0 <= lo && lo <= hi, "invalid total interval");

  // The response u + v*lambda is decreasing (v < 0): it sits at hi while
  // u + v*lambda >= hi, i.e. lambda <= (hi - u)/v, follows the affine middle
  // piece in between, and sits at lo for lambda >= (lo - u)/v. Solve against
  // each piece and accept the candidate that lands on its own piece;
  // monotonicity guarantees exactly one does (ties at junctions agree).
  // With sort reuse, the first inner solve repairs the persisted order and
  // the later pieces start from an already-sorted permutation.
  const double enter_mid = (hi - u) / v;  // lambda where response leaves hi
  const double leave_mid = (lo - u) / v;  // lambda where response hits lo

  // Upper piece: constant hi.
  BreakpointResult r = SolveMarket(ws, hi, 0.0, policy, order);
  if (r.lambda <= enter_mid) return r;
  OpCounts ops = r.ops;
  const bool reused = r.order_reused;

  // Middle piece: the affine response itself.
  r = SolveMarket(ws, u, v, policy, order);
  ops += r.ops;
  if (r.lambda >= enter_mid && r.lambda <= leave_mid) {
    r.ops = ops;
    r.order_reused = reused;
    return r;
  }

  // Lower piece: constant lo.
  r = SolveMarket(ws, lo, 0.0, policy, order);
  ops += r.ops;
  r.ops = ops;
  r.order_reused = reused;
  SEA_INTERNAL_CHECK(r.feasible);
  // On this piece the candidate must sit at or beyond the junction; clamp
  // against degenerate ties.
  if (r.lambda < leave_mid) r.lambda = leave_mid;
  return r;
}

}  // namespace sea
