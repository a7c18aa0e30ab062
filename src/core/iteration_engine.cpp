#include "core/iteration_engine.hpp"

#include <cmath>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <utility>

#include "obs/flight_recorder.hpp"
#include "obs/market_stats.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/status_file.hpp"
#include "obs/trace_sink.hpp"
#include "support/check.hpp"
#include "support/failpoint.hpp"
#include "support/stopwatch.hpp"

namespace sea {

namespace {

// Decade buckets for the residual trajectory; the measure spans many orders
// of magnitude between the first check and convergence.
std::vector<double> ResidualBounds() {
  return {1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 1.0, 1e2, 1e4, 1e6};
}

// Observed gap between consecutive checks, in iterations (check_every plus
// the final-iteration forced check).
std::vector<double> CheckIntervalBounds() {
  return {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0};
}

// Stable names for the recovery-ladder rungs (metrics suffixes, status-file
// field, docs/ROBUSTNESS.md).
const char* RungName(std::uint8_t rung) {
  switch (rung) {
    case 1:
      return "restore";
    case 2:
      return "damp";
    case 3:
      return "restart";
  }
  return "unknown";
}

}  // namespace

SeaResult RunIterationEngine(SeaIterationBackend& backend,
                             const SeaOptions& opts) {
  SEA_CHECK_MSG(opts.epsilon > 0.0, "epsilon must be > 0");
  SEA_CHECK_MSG(std::isfinite(opts.epsilon), "epsilon must be finite");
  SEA_CHECK_MSG(opts.check_every >= 1, "check_every must be >= 1");
  SEA_CHECK_MSG(opts.max_iterations > 0, "max_iterations must be >= 1");
  SEA_CHECK_MSG(opts.time_budget_seconds >= 0.0 &&
                    !std::isnan(opts.time_budget_seconds),
                "time_budget_seconds must be >= 0");

  obs::ProfScope prof_solve("engine.solve");
  Stopwatch wall;
  const double cpu0 = ProcessCpuSeconds();

  SeaResult result;
  bool have_snapshot = false;

  // Stall detection state: the previous check's measure and the run of
  // compared checks that failed to improve on their predecessor by at least
  // stall_rtol relatively (docs/ROBUSTNESS.md).
  double stall_prev = std::numeric_limits<double>::infinity();
  std::size_t stall_streak = 0;

  // Recovery-ladder state (docs/ROBUSTNESS.md "Recovery ladder"). The rung
  // only escalates — a rescue that later re-trips does not re-earn the
  // cheaper rungs — so total rescues are bounded by 3 * recovery_retries
  // and iteration count stays monotone (max_iterations still bounds the
  // whole run).
  std::uint8_t rung = 1;
  std::size_t rung_attempts = 0;
  std::size_t damp_left = 0;
  std::vector<double> damp_prev;  // row duals entering a damped sweep
  // Last checkpoint state successfully captured this run; rung 3 restarts
  // from it (falling back to the last-good iterate when no checkpoint
  // writer is attached).
  std::optional<CheckpointState> last_ckpt;

  // Telemetry is pay-for-use: everything below is skipped when no observer
  // is attached (acceptance bar: a plain solve must not slow down).
  const bool observing = opts.progress || opts.trace_sink || opts.metrics ||
                         opts.flight_recorder || opts.status_file;
  obs::FlightRecorder* recorder = opts.flight_recorder;
  if (recorder)
    recorder->Record(obs::FlightRecorder::EventKind::kBegin, 0,
                     static_cast<double>(opts.max_iterations));
  OpCounts ops_at_last_event;
  std::size_t last_check_iteration = 0;
  obs::Histogram* residual_hist = nullptr;
  obs::Histogram* interval_hist = nullptr;
  // Progress counters commit check-to-check deltas DURING the solve — a
  // /metrics scrape or the sampler's rate rings must see a running solve
  // move, not a burst at termination. The terminal block commits whatever
  // accrued after the last check, so the totals match the old end-only
  // flush exactly. Resolved once here: Get*() takes the registry lock.
  obs::Counter* iter_counter = nullptr;
  obs::Counter* checks_counter = nullptr;
  obs::Counter* flops_counter = nullptr;
  obs::Counter* comparisons_counter = nullptr;
  obs::Counter* breakpoints_counter = nullptr;
  obs::Counter* inversions_counter = nullptr;
  if (opts.metrics) {
    residual_hist =
        &opts.metrics->GetHistogram("sea.check.residual", ResidualBounds());
    interval_hist = &opts.metrics->GetHistogram("sea.check.interval_iters",
                                                CheckIntervalBounds());
    iter_counter = &opts.metrics->GetCounter("sea.iterations");
    checks_counter = &opts.metrics->GetCounter("sea.checks_compared");
    flops_counter = &opts.metrics->GetCounter("sea.ops.flops");
    comparisons_counter = &opts.metrics->GetCounter("sea.ops.comparisons");
    breakpoints_counter = &opts.metrics->GetCounter("sea.ops.breakpoints");
    inversions_counter = &opts.metrics->GetCounter("sea.ops.inversions");
  }
  std::size_t iters_committed = 0;
  std::size_t checks_committed = 0;
  OpCounts ops_committed;

  // Fills the engine-owned portion of a checkpoint; the backend adds the
  // iterate, fingerprint, and dimensions via CaptureIterate.
  const auto fill_engine_state = [&](CheckpointState& ck) {
    ck.criterion = opts.criterion;
    ck.iteration = result.iterations;
    ck.checks_compared = result.checks_compared;
    ck.final_residual = result.final_residual;
    ck.stall_streak = stall_streak;
    ck.stall_prev = stall_prev;
    ck.have_snapshot = have_snapshot;
    ck.rung = rung;
    ck.rung_attempts = rung_attempts;
    ck.damp_iters_left = damp_left;
    ck.recovered_count = result.recovered_count;
    ck.recovery_rungs = result.recovery_rungs;
  };

  // Captures + writes a checkpoint of the current (post-rebalance) state;
  // returns whether a checkpoint landed. Live counters, not end-of-run
  // flushes, so --status-file dashboards and Prometheus scrapes see
  // durability activity as it happens.
  const auto write_checkpoint = [&]() {
    CheckpointState ck;
    fill_engine_state(ck);
    if (!backend.CaptureIterate(ck)) return false;
    const bool ok = opts.checkpoint->Write(ck);
    if (opts.metrics)
      opts.metrics
          ->GetCounter(ok ? "sea.checkpoint.writes"
                          : "sea.checkpoint.write_failures")
          .Add(1);
    if (ok) last_ckpt = std::move(ck);
    return ok;
  };

  // One rescue attempt of the ladder. Returns false when recovery is off,
  // unsupported, or exhausted — the caller then terminates exactly as the
  // pre-ladder engine did. The caller has already restored the last-good
  // iterate where that is the remediation's starting point.
  const auto try_recover = [&](std::size_t t) {
    if (!opts.recover || !backend.SupportsRecovery()) return false;
    if (rung_attempts >= opts.recovery_retries) {
      ++rung;
      rung_attempts = 0;
    }
    if (rung > 3) return false;  // ladder exhausted: give up
    ++rung_attempts;
    switch (rung) {
      case 1:
        // Restore last-good + reset the detector (below); the cheapest
        // remediation, sufficient for transient measure poisoning.
        backend.RestoreGoodIterate();
        break;
      case 2:
        // Safeguarded step: damp the row half-steps for a window of
        // iterations to break a limit cycle (Aas).
        backend.RestoreGoodIterate();
        damp_left = opts.recovery_damp_iters;
        break;
      case 3:
        // Strongest remediation: rewind to the last durable checkpoint
        // (when one exists), re-gauge the multipliers, and re-approach
        // damped.
        if (last_ckpt.has_value()) {
          backend.RestoreIterate(*last_ckpt);
        } else {
          backend.RestoreGoodIterate();
        }
        backend.ForceRebalance();
        damp_left = opts.recovery_damp_iters;
        break;
    }
    stall_prev = std::numeric_limits<double>::infinity();
    stall_streak = 0;
    ++result.recovered_count;
    result.recovery_rungs.push_back(rung);
    if (recorder)
      recorder->Record(obs::FlightRecorder::EventKind::kRecovery, t,
                       static_cast<double>(rung));
    if (opts.metrics) {
      opts.metrics->GetCounter("sea.recovery.rescues").Add(1);
      opts.metrics
          ->GetCounter(std::string("sea.recovery.rung.") + RungName(rung))
          .Add(1);
      opts.metrics->GetGauge("sea.recovery.active_rung")
          .Set(static_cast<double>(rung));
    }
    if (opts.status_file)
      opts.status_file->OnRecovery(t, RungName(rung), result.recovered_count);
    return true;
  };

  // Resume (core/checkpoint.hpp): re-seat engine + backend state and
  // continue at the checkpoint's next iteration. With unchanged options the
  // continuation is bit-identical to the uninterrupted run — the captured
  // state is the complete cross-iteration memory of the loop below.
  std::size_t t_begin = 1;
  if (opts.resume != nullptr) {
    const CheckpointState& ck = *opts.resume;
    SEA_CHECK_MSG(backend.RestoreIterate(ck),
                  "resume checkpoint does not fit this problem "
                  "(run ValidateCheckpointFor first)");
    t_begin = static_cast<std::size_t>(ck.iteration) + 1;
    result.iterations = static_cast<std::size_t>(ck.iteration);
    result.checks_compared = static_cast<std::size_t>(ck.checks_compared);
    result.final_residual = ck.final_residual;
    result.recovered_count = ck.recovered_count;
    result.recovery_rungs = ck.recovery_rungs;
    stall_prev = ck.stall_prev;
    stall_streak = static_cast<std::size_t>(ck.stall_streak);
    have_snapshot = ck.have_snapshot;
    rung = ck.rung;
    rung_attempts = static_cast<std::size_t>(ck.rung_attempts);
    damp_left = static_cast<std::size_t>(ck.damp_iters_left);
    last_check_iteration = static_cast<std::size_t>(ck.iteration);
    if (recorder)
      recorder->Record(obs::FlightRecorder::EventKind::kResume,
                       static_cast<std::size_t>(ck.iteration),
                       ck.final_residual);
    if (opts.metrics) opts.metrics->GetCounter("sea.checkpoint.resumes").Add(1);
  }

  for (std::size_t t = t_begin; t <= opts.max_iterations; ++t) {
    const bool check_now =
        (t % opts.check_every == 0) || (t == opts.max_iterations);

    // Guardrail polls ride the check schedule, before the sweeps, so an
    // expired budget or a cancelled token stops the solve without paying
    // for another iteration. Both are cooperative: worst-case latency is
    // one check interval.
    if (check_now) {
      if (opts.cancel && opts.cancel->cancelled()) {
        result.status = SolveStatus::kCancelled;
        if (recorder)
          recorder->Record(obs::FlightRecorder::EventKind::kCancelPoll, t,
                           0.0);
        break;
      }
      if (opts.time_budget_seconds > 0.0 &&
          wall.Seconds() >= opts.time_budget_seconds) {
        result.status = SolveStatus::kTimeBudgetExceeded;
        if (recorder)
          recorder->Record(obs::FlightRecorder::EventKind::kBudgetPoll, t,
                           wall.Seconds());
        break;
      }
    }

    // ---- Step 1: row equilibration (parallel across the row markets).
    // During a rung-2/3 damping window the row duals move only
    // recovery_damping of the way to the sweep's block-optimal point; the
    // column sweep then computes its duals (and the check iterate) for the
    // blended lambda, so the stopping measure still describes a consistent
    // point.
    const bool damp_now = damp_left > 0;
    if (damp_now) {
      backend.SnapshotRowDuals(damp_prev);
      --damp_left;
    }
    {
      obs::ProfScope prof("engine.row_sweep");
      Stopwatch sw;
      SweepStats stats = backend.RowSweep();
      if (damp_now) backend.BlendRowDuals(damp_prev, opts.recovery_damping);
      result.ops += stats.total_ops;
      result.order_reuses += stats.order_reuses;
      result.kernel_markets += stats.markets;
      result.row_phase_seconds += sw.Seconds();
      if (opts.record_trace && !stats.task_costs.empty())
        result.trace.AddParallelPhase("row", std::move(stats.task_costs));
    }

    // ---- Step 2: column equilibration (parallel across the column
    // markets); materializes the primal iterate on check iterations.
    {
      obs::ProfScope prof("engine.col_sweep");
      Stopwatch sw;
      SweepStats stats = backend.ColSweep(check_now);
      result.ops += stats.total_ops;
      result.order_reuses += stats.order_reuses;
      result.kernel_markets += stats.markets;
      result.col_phase_seconds += sw.Seconds();
      if (opts.record_trace && !stats.task_costs.empty())
        result.trace.AddParallelPhase("col", std::move(stats.task_costs));
    }

    result.iterations = t;
    if (opts.record_dual_values) backend.RecordDualValue(result.dual_values);

    if (!check_now) {
      backend.RebalanceDuals(opts);
      continue;
    }

    // ---- Step 3: convergence verification (the serial phase; Sec. 4.2).
    Stopwatch check_sw;
    double measure = 0.0;
    bool defined = true;
    const StopCriterion criterion = backend.EffectiveCriterion(opts.criterion);
    {
      obs::ProfScope prof("engine.check");
      backend.BeginCheck();
      if (criterion == StopCriterion::kXChange) {
        // Compared across consecutive checks; the first check only
        // snapshots, so its measure is undefined (nothing to compare
        // against) and no comparison flops are charged.
        if (have_snapshot) {
          measure = backend.DiffFromSnapshot();
        } else {
          defined = false;
        }
        backend.SnapshotIterate();
        have_snapshot = true;
      } else {
        measure = backend.ResidualMeasure(criterion);
      }
    }
    result.check_phase_seconds += check_sw.Seconds();

    SEA_FAILPOINT_SITE("sea.engine.poison_measure")
    if (defined && fail::Triggered("sea.engine.poison_measure"))
      measure = std::numeric_limits<double>::quiet_NaN();
    // Pins the measure at the previous check's value — exactly zero
    // improvement — which drives the stall detector deterministically (the
    // CI forensics smoke and fault tests arm this via SEA_FAILPOINTS).
    SEA_FAILPOINT_SITE("sea.engine.freeze_measure")
    if (fail::Triggered("sea.engine.freeze_measure") && defined &&
        std::isfinite(stall_prev))
      measure = stall_prev;

    if (defined && !std::isfinite(measure)) {
      // Numerical breakdown: the iterate went NaN/Inf. Hand back the last
      // iterate that passed a finite check instead of the garbage; the
      // breakdown check itself is not counted or charged (its measure has
      // no value). Under the recovery ladder this becomes a rescue attempt
      // instead of a terminal status.
      if (recorder)
        recorder->Record(obs::FlightRecorder::EventKind::kBreakdown, t,
                         measure);
      backend.RestoreGoodIterate();
      if (!try_recover(t)) result.status = SolveStatus::kNumericalBreakdown;
    } else if (defined) {
      ++result.checks_compared;
      result.final_residual = measure;
      result.ops.flops += backend.CheckCost();
      if (opts.record_trace)
        result.trace.AddSerialPhase("check",
                                    static_cast<double>(backend.CheckCost()));
      bool stalled_now = false;
      if (measure <= opts.epsilon) {
        result.status = SolveStatus::kConverged;
      } else if (measure < stall_prev * (1.0 - opts.stall_rtol)) {
        // Compare with the PREVIOUS check, not the best-so-far: a transient
        // rise (common before the contraction regime sets in) would park a
        // best-so-far low-water mark that a genuinely progressing run can
        // take arbitrarily many checks to re-cross.
        stall_streak = 0;
      } else if (opts.stall_checks > 0 &&
                 ++stall_streak >= opts.stall_checks) {
        stalled_now = true;
        if (recorder)
          recorder->Record(obs::FlightRecorder::EventKind::kStallTrip, t,
                           measure);
      }
      stall_prev = measure;
      backend.SaveGoodIterate();
      if (recorder) recorder->NoteGoodIterate(t, measure);
      // A stall trip recovers after the good-iterate bookkeeping: the
      // stalled-but-finite iterate IS the restart point, and the rescue
      // resets the detector (stall_prev back to +inf).
      if (stalled_now && !try_recover(t))
        result.status = SolveStatus::kStalled;
      // Per-market attribution rides the check schedule: the backend fills
      // the scratch row with per-row-market contributions under the
      // residual form of the active criterion (kXChange attributes the
      // absolute residual of the same materialized iterate), and the
      // commit snapshots active-set churn.
      if (opts.attribution && std::isfinite(measure)) {
        const StopCriterion ac = criterion == StopCriterion::kXChange
                                     ? StopCriterion::kResidualAbs
                                     : criterion;
        const double l1 =
            backend.AttributeResidual(ac, opts.attribution->residual_scratch());
        if (l1 >= 0.0) opts.attribution->CommitCheck(t, measure, l1);
      }
    }

    if (observing) {
      IterationEvent ev;
      ev.iteration = t;
      ev.measure_defined = defined;
      ev.measure = measure;
      ev.converged = result.converged();
      ev.checks_compared = result.checks_compared;
      ev.row_phase_seconds = result.row_phase_seconds;
      ev.col_phase_seconds = result.col_phase_seconds;
      ev.check_phase_seconds = result.check_phase_seconds;
      ev.ops_total = result.ops;
      ev.ops_delta = result.ops - ops_at_last_event;
      ops_at_last_event = result.ops;

      if (opts.metrics) {
        if (defined && std::isfinite(measure))
          residual_hist->Observe(measure);
        interval_hist->Observe(static_cast<double>(t - last_check_iteration));
        iter_counter->Add(t - iters_committed);
        iters_committed = t;
        checks_counter->Add(result.checks_compared - checks_committed);
        checks_committed = result.checks_compared;
        const OpCounts ops_delta = result.ops - ops_committed;
        flops_counter->Add(ops_delta.flops);
        comparisons_counter->Add(ops_delta.comparisons);
        breakpoints_counter->Add(ops_delta.breakpoints);
        inversions_counter->Add(ops_delta.inversions);
        ops_committed = result.ops;
      }
      last_check_iteration = t;

      if (opts.progress) opts.progress(ev);
      if (opts.trace_sink) opts.trace_sink->OnCheck(ev);
      if (recorder)
        recorder->Record(obs::FlightRecorder::EventKind::kCheck, t,
                         defined ? measure
                                 : std::numeric_limits<double>::quiet_NaN());
      if (opts.status_file) opts.status_file->OnCheck(ev);
    }

    // Any terminal condition (convergence, breakdown, stall) has replaced
    // the default kMaxIterations status by now.
    if (result.status != SolveStatus::kMaxIterations) break;
    backend.RebalanceDuals(opts);

    // Checkpoint at the end of cadence-eligible compared checks — after
    // the rebalance, so the captured state is exactly what iteration t+1
    // starts from. Breakdown checks never checkpoint (the measure carried
    // no value; nothing marks this state as trustworthy).
    if (opts.checkpoint != nullptr && defined && std::isfinite(measure) &&
        opts.checkpoint->ShouldWrite()) {
      const bool wrote = write_checkpoint();
      // Crash-injection point for the CI crash-resume smoke: die AFTER a
      // checkpoint landed, so the restart proves the durability story
      // end-to-end.
      SEA_FAILPOINT_SITE("sea.engine.crash_after_checkpoint")
      if (wrote && fail::Triggered("sea.engine.crash_after_checkpoint"))
        std::abort();
    }
  }

  result.wall_seconds = wall.Seconds();
  result.cpu_seconds = ProcessCpuSeconds() - cpu0;

  // Final checkpoint on the interruptible exits: cancellation (how SIGTERM
  // arrives), budget expiry, and the iteration cap all leave a resumable
  // state behind — the interrupted work is not lost. Terminal guardrail
  // failures do not checkpoint (their iterate is the problem), and
  // convergence needs no resume.
  if (opts.checkpoint != nullptr && result.iterations > 0 &&
      (result.status == SolveStatus::kCancelled ||
       result.status == SolveStatus::kTimeBudgetExceeded ||
       result.status == SolveStatus::kMaxIterations))
    write_checkpoint();

  if (recorder)
    recorder->OnTermination(result.status, result.iterations,
                            result.final_residual, result.wall_seconds,
                            result.recovered_count);
  if (opts.status_file) opts.status_file->OnTermination(result.status);

  if (opts.metrics) {
    obs::MetricsRegistry& m = *opts.metrics;
    // The check loop already committed deltas up to the last check (live
    // progress); only the post-last-check remainder lands here.
    m.GetCounter("sea.iterations").Add(result.iterations - iters_committed);
    m.GetCounter("sea.checks_compared")
        .Add(result.checks_compared - checks_committed);
    const OpCounts ops_rest = result.ops - ops_committed;
    m.GetCounter("sea.ops.flops").Add(ops_rest.flops);
    m.GetCounter("sea.ops.comparisons").Add(ops_rest.comparisons);
    m.GetCounter("sea.ops.breakpoints").Add(ops_rest.breakpoints);
    m.GetCounter("sea.ops.inversions").Add(ops_rest.inversions);
    m.GetCounter("sea.sweep.order_reuses").Add(result.order_reuses);
    m.GetCounter("sea.kernel.markets").Add(result.kernel_markets);
    m.GetCounter("sea.solves").Add(1);
    if (result.converged()) m.GetCounter("sea.solves_converged").Add(1);
    m.GetCounter(std::string("solver.status.") + ToString(result.status))
        .Add(1);
    // Phase seconds accumulate across solves (the general algorithm runs
    // one engine solve per projection step).
    m.GetGauge("sea.row_phase_seconds").Add(result.row_phase_seconds);
    m.GetGauge("sea.col_phase_seconds").Add(result.col_phase_seconds);
    m.GetGauge("sea.check_phase_seconds").Add(result.check_phase_seconds);
    m.GetGauge("sea.wall_seconds").Add(result.wall_seconds);
    m.GetGauge("sea.cpu_seconds").Add(result.cpu_seconds);
    m.GetGauge("sea.final_residual").Set(result.final_residual);
    m.GetGauge("sea.converged").Set(result.converged() ? 1.0 : 0.0);
    if (opts.attribution) {
      // Attribution summary counters (docs/OBSERVABILITY.md): population,
      // committed checks, per-market solves, and total active-set churn.
      m.GetCounter("sea.market.tracked").Add(opts.attribution->markets());
      m.GetCounter("sea.market.checks")
          .Add(opts.attribution->checks().size());
      m.GetCounter("sea.market.solves").Add(opts.attribution->total_solves());
      m.GetCounter("sea.market.churn").Add(opts.attribution->total_churn());
    }
  }
  return result;
}

}  // namespace sea
