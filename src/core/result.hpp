// Solver run reports.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/solve_status.hpp"
#include "parallel/speedup_model.hpp"
#include "support/op_counter.hpp"

namespace sea {

struct SeaResult {
  // How the solve terminated (docs/ROBUSTNESS.md). Every engine-driven run
  // ends in exactly one status; `converged` is derived, never stored.
  SolveStatus status = SolveStatus::kMaxIterations;
  bool converged() const { return status == SolveStatus::kConverged; }
  std::size_t iterations = 0;  // completed row+column iteration pairs
  // Check iterations whose stopping measure had a defined value. 0 means
  // final_residual was never evaluated (e.g. kXChange hit max_iterations
  // before a second check existed to compare against) and is meaningless.
  std::size_t checks_compared = 0;
  double final_residual = 0.0; // value of the active stopping measure
  double objective = 0.0;      // primal objective at the returned solution
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;
  // Phase breakdown (the parallel row/column phases vs the serial
  // convergence-verification phase, paper Section 4.2).
  double row_phase_seconds = 0.0;
  double col_phase_seconds = 0.0;
  double check_phase_seconds = 0.0;
  OpCounts ops;
  // Market solves answered by repairing a persisted breakpoint order
  // (SortPolicy::kReuse); 0 under the other sort policies.
  std::uint64_t order_reuses = 0;
  // Market solves performed across all sweeps.
  std::uint64_t kernel_markets = 0;
  // Benchmark compatibility only (equilibration/kernel_backend.hpp): read by
  // perfbench/ and nothing else; it goes when the benchmark is next revised.
  static constexpr const char* kernel_backend = "scalar";
  // Recovery-ladder provenance (docs/ROBUSTNESS.md "Recovery ladder"):
  // how many guardrail trips (stall / numerical breakdown) were rescued
  // instead of terminating the solve, and which rung rescued each, in trip
  // order (1 = restore last-good, 2 = damped half-step, 3 = rebalance +
  // restart from checkpoint). Empty unless SeaOptions::recover is set and
  // at least one rescue happened.
  std::uint64_t recovered_count = 0;
  std::vector<std::uint8_t> recovery_rungs;
  // Filled when SeaOptions::record_trace is set.
  ExecutionTrace trace;
  // Filled when SeaOptions::record_dual_values is set: zeta_l(lambda^{t+1},
  // mu^{t+1}) after each iteration — nondecreasing by the paper's eq. (71).
  std::vector<double> dual_values;
};

struct GeneralSeaResult {
  // Outer-loop status; an abnormal inner status (cancellation, budget,
  // breakdown) propagates here unchanged.
  SolveStatus status = SolveStatus::kMaxIterations;
  bool converged() const { return status == SolveStatus::kConverged; }
  std::size_t outer_iterations = 0;
  std::size_t total_inner_iterations = 0;
  double final_outer_change = 0.0;  // max |x^t - x^{t-1}| at termination
  double objective = 0.0;
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;
  double linearization_seconds = 0.0;  // dense matvec phases
  OpCounts ops;
  ExecutionTrace trace;
};

}  // namespace sea
