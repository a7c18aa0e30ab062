// Solver configuration.
#pragma once

#include <cstddef>
#include <functional>

#include "equilibration/breakpoint_solver.hpp"
#include "parallel/schedule.hpp"
#include "support/cancel.hpp"
#include "support/op_counter.hpp"

namespace sea {

class ThreadPool;
class CheckpointWriter;
struct CheckpointState;

namespace obs {
class TraceSink;
class MetricsRegistry;
class MarketAttribution;
class FlightRecorder;
class StatusFileWriter;
}  // namespace obs

// Stopping rules used in the paper's experiments.
enum class StopCriterion {
  // max_ij |x^t_ij - x^{t-1}_ij| <= epsilon (paper Step 3, Section 3.1.1;
  // Table 1/5 runs with epsilon = .01). Compared across consecutive checks.
  kXChange,
  // max_i |sum_j x_ij - s_i| <= epsilon (absolute constraint residual; by
  // eq. (27) equivalent to the dual gradient norm).
  kResidualAbs,
  // max_i |sum_j x_ij - s_i| / max(1, |s_i|) <= epsilon (paper Step 3,
  // Section 3.1.2; Table 3 runs with epsilon = .001).
  kResidualRel,
};

const char* ToString(StopCriterion c);

// Snapshot handed to SeaOptions::progress — and to the structured trace
// sink (obs/trace_sink.hpp) — on every check iteration of the shared
// iteration engine (core/iteration_engine.hpp). This is the attachment
// point for progress reporting and, later, acceleration / stagnation
// heuristics that need the residual trajectory.
struct IterationEvent {
  std::size_t iteration = 0;
  // False on the first kXChange check, where no previous iterate exists yet
  // and the measure has no value.
  bool measure_defined = false;
  double measure = 0.0;  // active stopping measure, valid if measure_defined
  bool converged = false;
  // Checks whose measure had a defined value so far (== the number of
  // events with measure_defined, including this one).
  std::size_t checks_compared = 0;
  // Cumulative per-phase wall times so far.
  double row_phase_seconds = 0.0;
  double col_phase_seconds = 0.0;
  double check_phase_seconds = 0.0;
  // Operation counts: since the previous event (delta, including this
  // check's own verification cost) and since the start of the solve.
  OpCounts ops_delta;
  OpCounts ops_total;
};

using IterationCallback = std::function<void(const IterationEvent&)>;

struct SeaOptions {
  double epsilon = 1e-2;
  StopCriterion criterion = StopCriterion::kResidualRel;
  std::size_t max_iterations = 200000;
  // Verify convergence only every k-th iteration. The paper checks every
  // iteration for the fixed examples and every other iteration for the
  // elastic ones (Section 4.2) — the check is the serial phase, so spacing
  // it improves parallel efficiency.
  std::size_t check_every = 1;
  SortPolicy sort_policy = SortPolicy::kAuto;
  // Benchmark compatibility only (equilibration/kernel_backend.hpp): the
  // one market kernel's name, read by perfbench/ and nothing else. Not an
  // option; it goes when the benchmark is next revised.
  static constexpr const char* backend = "scalar";
  // Optional shared-memory pool for the row/column sweeps; null = serial.
  ThreadPool* pool = nullptr;
  // How each sweep is partitioned over the pool (docs/PARALLELISM.md).
  // kStatic = contiguous equal-count chunks (the default; fixed boundaries).
  // kCostGuided = re-partition each sweep by the previous sweep's measured
  // per-market costs (dynamic claiming on the first sweep of each side).
  // kDynamic = atomic chunk claiming every sweep. Results are bit-identical
  // across all three. Ignored without a pool.
  ScheduleKind sweep_schedule = ScheduleKind::kStatic;
  // Chunk size for dynamic claiming; 0 = auto (n / (8 * workers)).
  std::size_t sweep_grain = 0;
  // Record the phase-by-phase execution trace (per-market operation counts)
  // for the N-processor schedule simulator.
  bool record_trace = false;
  // Record the dual value zeta_l(lambda, mu) after every iteration (used by
  // the convergence-theory tests; costs one O(mn) pass per iteration).
  bool record_dual_values = false;
  // The paper's "Modified Algorithm" (Section 3.1): when positive, and the
  // regime is kFixed or kSam, multipliers are rebalanced across support-graph
  // connected components whenever some |lambda_i| exceeds this bound —
  // keeping the dual iterates in a bounded set without changing the primal
  // trajectory. 0 disables the modification.
  double multiplier_bound = 0.0;
  // Guardrails (docs/ROBUSTNESS.md). The wall-clock budget for the whole
  // solve; 0 = unlimited. Polled at check iterations, so overshoot is at
  // most one check interval; on expiry the result carries
  // SolveStatus::kTimeBudgetExceeded and the best iterate so far.
  double time_budget_seconds = 0.0;
  // Cooperative cancellation, polled at check iterations (never inside a
  // parallel sweep). Null = not cancellable.
  CancelToken* cancel = nullptr;
  // Stall detector: terminate with SolveStatus::kStalled when the stopping
  // measure fails to improve on the PREVIOUS check by a relative stall_rtol
  // over stall_checks consecutive compared checks — the signature of a
  // scaling iteration pinned at a non-solution fixed point (infeasible
  // support). Check-to-check comparison (rather than best-so-far) keeps a
  // transient residual rise from parking an unreachable low-water mark.
  // stall_checks = 0 disables the detector.
  std::size_t stall_checks = 50;
  double stall_rtol = 1e-9;
  // Invoked by the iteration engine on check iterations only (never on
  // skipped iterations). Empty = no reporting overhead.
  IterationCallback progress;
  // Structured trace sink (obs/trace_sink.hpp): receives the same per-check
  // events as `progress`, plus one event per general-SEA projection step.
  // Null = no tracing overhead.
  obs::TraceSink* trace_sink = nullptr;
  // Metrics registry (obs/metrics.hpp): the engine accumulates op counters,
  // phase-seconds gauges, and per-check residual / check-interval
  // histograms into it. Null = no metrics overhead.
  obs::MetricsRegistry* metrics = nullptr;
  // Per-market attribution table (obs/market_stats.hpp): the backend sizes
  // it for the problem, the sweeps record per-market solve tallies, and the
  // engine commits residual contributions + active-set churn at every check
  // whose measure is finite. Null = no attribution overhead (the sweeps pay
  // one branch per market). Exported via sea_solve --attribution-json and
  // summarized by tools/market_report.
  obs::MarketAttribution* attribution = nullptr;
  // Flight recorder (obs/flight_recorder.hpp): receives begin/check/
  // guardrail/termination events; on a guardrail failure (stall, breakdown,
  // cancel, time budget) it dumps a postmortem if a dump path is set.
  // Null = no recording.
  obs::FlightRecorder* flight_recorder = nullptr;
  // Live status snapshot (obs/status_file.hpp): rewritten atomically on
  // check iterations and at termination. Null = no status file.
  obs::StatusFileWriter* status_file = nullptr;
  // Durability + self-healing (core/checkpoint.hpp; docs/ROBUSTNESS.md).
  // Checkpoint writer: the engine captures the full resume state (dual
  // iterate, kXChange snapshot, stall-detector + recovery-ladder state) at
  // the end of every cadence-eligible compared check — after the rebalance,
  // so resume continues at exactly the next iteration — and also when the
  // solve ends in kCancelled / kTimeBudgetExceeded / kMaxIterations. Null =
  // no checkpointing.
  CheckpointWriter* checkpoint = nullptr;
  // Resume state: restored into the engine and backend before iteration
  // resume->iteration + 1 runs; the continued run is bit-identical to the
  // uninterrupted one. Callers should gate on ValidateCheckpointFor first
  // (the engine only size-checks). Null = start from scratch.
  const CheckpointState* resume = nullptr;
  // Recovery ladder: when true, a stall or breakdown trip walks escalating
  // remediation — restore last-good iterate, then a damped half-step
  // window, then multiplier rebalance + restart from the last checkpoint —
  // instead of terminating, with recovery_retries rescue attempts per rung
  // before escalating; only after the ladder is exhausted does the solve
  // end with the historical kStalled / kNumericalBreakdown (and
  // postmortem). Requires backend support (dense + sparse; the entropy
  // variants terminate as before). Provenance lands on
  // SeaResult::recovered_count / recovery_rungs.
  bool recover = false;
  std::size_t recovery_retries = 2;
  // Damped half-step rung: after a rescue, the row duals move only
  // recovery_damping of the way to each sweep's block-optimal point for
  // the next recovery_damp_iters iterations — the safeguarded step that
  // breaks the period-2 limit cycles of pure iterative scaling (Aas).
  double recovery_damping = 0.5;
  std::size_t recovery_damp_iters = 8;
};

struct GeneralSeaOptions {
  // Outer (projection-method) tolerance on max |x^t - x^{t-1}|.
  double outer_epsilon = 1e-3;
  std::size_t max_outer_iterations = 500;
  // Inner diagonal-SEA settings. The inner stopping rule is residual-based;
  // inner_epsilon is tightened relative to outer_epsilon if left at 0.
  SeaOptions inner;
  double inner_epsilon = 0.0;  // 0 = derive from outer_epsilon
};

}  // namespace sea
