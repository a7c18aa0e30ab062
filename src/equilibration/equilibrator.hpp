// Row/column equilibration sweeps (Steps 1 and 2 of SEA, paper Section 3.1).
//
// One sweep solves all m row markets (or all n column markets)
// *independently* — this is exactly the parallel phase the paper allocates to
// distinct processors. The same function serves both directions: the caller
// passes centers/weights in sweep-major layout (row-major for row sweeps, the
// transposed copies for column sweeps) so every market reads contiguous
// memory.
//
// For row sweeps over a fixed-totals problem, market i solves
//
//   min  sum_j gamma_ij (x_ij - c_ij)^2 - sum_j mu_j x_ij
//   s.t. sum_j x_ij = s0_i, x >= 0
//
// whose KKT allocation is x_ij = max(0, c_ij + (lambda_i + mu_j)/(2 gamma_ij))
// — an Arc with q_j = 1/(2 gamma_ij), p_j = c_ij + mu_j * q_j. The elastic
// and SAM variants change only the right-hand side of the clearing equation
// (see MarketSide below).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "equilibration/breakpoint_solver.hpp"
#include "linalg/dense_matrix.hpp"
#include "problems/types.hpp"

namespace sea {

class ThreadPool;
class SweepScheduler;

namespace obs {
class MarketAttribution;
}  // namespace obs

// Per-market breakpoint orders persisted across sweeps for
// SortPolicy::kReuse (docs/PARALLELISM.md, "Sort reuse"). One cache per
// sweep side (markets keep their index between sweeps); each market is
// touched by exactly one worker per sweep, so slots need no synchronization.
class SortOrderCache {
 public:
  // Drops all learned orders and sizes the cache for `markets` markets.
  void Reset(std::size_t markets) {
    orders_.clear();
    orders_.resize(markets);
  }
  std::size_t size() const { return orders_.size(); }
  MarketOrder* At(std::size_t market) {
    return market < orders_.size() ? &orders_[market] : nullptr;
  }
  // Total repair-instead-of-sort solves across all markets.
  std::uint64_t TotalReuses() const {
    std::uint64_t total = 0;
    for (const auto& o : orders_) total += o.reuses;
    return total;
  }

 private:
  std::vector<MarketOrder> orders_;
};

// Describes the constraint side being equilibrated.
struct MarketSide {
  TotalsMode mode = TotalsMode::kFixed;
  // Row sweep: s0; column sweep: d0 (elastic/fixed) or s0 (SAM).
  std::span<const double> t0;
  // Row sweep: alpha; column sweep: beta (elastic) or alpha (SAM).
  // Ignored for kFixed.
  std::span<const double> weight;
  // SAM only: the opposite side's multiplier at the *same* account index
  // (mu for row sweeps, the freshly-computed lambda for column sweeps),
  // entering the elastic response S_i = t0_i - (own + coupling_i)/(2 w_i).
  std::span<const double> coupling;
  // Interval mode only: box bounds on the totals; the clearing response is
  // the clamped elastic response.
  std::span<const double> lo;
  std::span<const double> hi;
};

struct SweepStats {
  OpCounts total_ops;
  // Per-market work (operation counts) for the schedule simulator; filled
  // only when requested.
  std::vector<double> task_costs;
  // Markets solved by repairing a persisted breakpoint order this sweep
  // (SortPolicy::kReuse; 0 otherwise).
  std::uint64_t order_reuses = 0;
  // Markets solved this sweep (feeds SeaResult::kernel_markets and the
  // sea.kernel.markets counter).
  std::uint64_t markets = 0;
};

struct SweepOptions {
  SortPolicy sort_policy = SortPolicy::kAuto;
  bool record_task_costs = false;
  ThreadPool* pool = nullptr;
  // Cost-feedback scheduler (parallel/schedule.hpp): when set, the sweep is
  // partitioned by the scheduler (cost-guided once costs exist, dynamic
  // claiming before) and this sweep's measured per-market costs are fed
  // back for the next one. Null = the classic static partition.
  SweepScheduler* scheduler = nullptr;
  // Persisted per-market breakpoint orders; required for sort_policy ==
  // kReuse to take effect (kReuse without a cache degrades to kAuto). Must
  // be sized to this side's market count.
  SortOrderCache* sort_cache = nullptr;
  // Profiler span name wrapping each worker's chunk of the sweep (string
  // literal; nullptr = unnamed "equilibrate.sweep"). Lets the profile tell
  // row from column sweeps per worker track (obs/profiler.hpp).
  const char* profile_phase = nullptr;
  // Per-market attribution (obs/market_stats.hpp): when set, every market
  // solve records its active-set size, breakpoint count, and kernel seconds
  // under slot attribution_base + market index (the caller maps sweep sides
  // into the table: rows at base 0, columns at base m). Each market is
  // touched by exactly one worker per sweep, so the recording is
  // synchronization-free; null costs one branch per market.
  obs::MarketAttribution* attribution = nullptr;
  std::size_t attribution_base = 0;
};

// Equilibrates all markets of one side.
//   centers, weights : sweep-major (market index = row of these matrices)
//   other_mult       : multiplier of the crossing constraints (length =
//                      centers.cols())
//   side             : clearing-equation description (length = centers.rows())
//   mult_out         : this side's multipliers (length = centers.rows())
//   x_out            : if non-null, materialized allocations in sweep-major
//                      layout (same shape as centers)
SweepStats EquilibrateSide(const DenseMatrix& centers,
                           const DenseMatrix& weights,
                           std::span<const double> other_mult,
                           const MarketSide& side, std::span<double> mult_out,
                           DenseMatrix* x_out, const SweepOptions& opts);

// Clearing-equation coefficients (u, v) for market i of a side, i.e. the
// right-hand side u + v*lambda of the market's scalar equation. Shared by
// the dense sweeps here and the sparse solver (sparse/sparse_sea.hpp).
void ClearingTarget(const MarketSide& side, std::size_t i, double& u,
                    double& v);

// Solves a single market (used by the RC baseline's per-row projections and
// by tests): arcs from one center/weight row with the cross multipliers, then
// clears against the side's response. Returns the market multiplier.
BreakpointResult EquilibrateMarket(std::span<const double> centers,
                                   std::span<const double> weights,
                                   std::span<const double> other_mult,
                                   double u, double v, BreakpointWorkspace& ws,
                                   std::span<double> x_out,
                                   SortPolicy policy = SortPolicy::kAuto,
                                   MarketOrder* order = nullptr);

}  // namespace sea
