// One way to observe a solve (docs/OBSERVABILITY.md).
//
// The iteration engine (core/iteration_engine.hpp) and general SEA's outer
// loop (core/general_sea.hpp) hand each event once, in order, to every
// observer in SeaOptions::observers. The JSONL trace, the progress printer,
// the status file, the flight recorder and the solve metrics in obs/ are
// observers; so is anything else that needs the residual trajectory, such
// as an acceleration or stagnation heuristic. Observers run on the solve
// thread, never inside a parallel sweep, so they need no locking. Every
// method defaults to a no-op, and an empty list costs nothing.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/solve_status.hpp"

namespace sea {

struct IterationEvent;
struct SeaOptions;
struct SeaResult;
struct GeneralSeaResult;

// Stable names of the recovery-ladder rungs 1..3 (metric suffixes, the
// status file's last_recovery_rung, docs/ROBUSTNESS.md).
inline const char* RecoveryRungName(std::uint8_t rung) {
  constexpr const char* kNames[] = {"unknown", "restore", "damp", "restart"};
  return rung <= 3 ? kNames[rung] : "unknown";
}

// One projection step of general SEA (paper Section 3.2, Figure 4).
struct OuterStepEvent {
  std::size_t outer_iteration = 0;
  double change = 0.0;  // max |x^t - x^{t-1}| after this step
  bool converged = false;
  std::size_t inner_iterations = 0;        // this step's inner solve
  std::size_t inner_iterations_total = 0;  // cumulative across steps
  double linearize_seconds = 0.0;          // cumulative matvec-phase wall
};

// How a solve ended. The engine sets `engine`; general SEA ends with one
// more event after its last inner solve, which sets `general` and carries
// the outer status, projection steps and final outer change.
struct SolveEnd {
  SolveStatus status = SolveStatus::kMaxIterations;
  std::size_t iterations = 0;
  double final_measure = 0.0;
  double wall_seconds = 0.0;
  std::uint64_t recovered = 0;  // recovery-ladder rescues
  const SeaResult* engine = nullptr;
  const GeneralSeaResult* general = nullptr;
};

class SolveObserver {
 public:
  virtual ~SolveObserver() = default;

  // Engine start, after any resume checkpoint (opts.resume) is restored.
  virtual void OnBegin(const SeaOptions& /*opts*/) {}
  // Every check iteration (never a skipped one).
  virtual void OnCheck(const IterationEvent& /*ev*/) {}
  // A guardrail fired (docs/ROBUSTNESS.md), named by the status it ends a
  // solve with: kNumericalBreakdown (value = the non-finite measure),
  // kStalled (the stalled measure), kCancelled (0) or kTimeBudgetExceeded
  // (elapsed seconds). The recovery ladder may still rescue the first two.
  virtual void OnGuardrail(SolveStatus /*trip*/, std::size_t /*iteration*/,
                           double /*value*/) {}
  // A recovery-ladder rescue at `rung`; `recovered` counts the run's rescues.
  virtual void OnRecovery(std::size_t /*iteration*/, std::uint8_t /*rung*/,
                          std::uint64_t /*recovered*/) {}
  // A checkpoint write was attempted.
  virtual void OnCheckpoint(bool /*wrote*/) {}
  virtual void OnOuterStep(const OuterStepEvent& /*ev*/) {}
  virtual void OnEnd(const SolveEnd& /*end*/) {}
};

}  // namespace sea
