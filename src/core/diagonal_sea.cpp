#include "core/diagonal_sea.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>

#include "core/iteration_engine.hpp"
#include "parallel/schedule.hpp"
#include "core/multiplier_rebalance.hpp"
#include "core/stopping.hpp"
#include "equilibration/equilibrator.hpp"
#include "obs/market_stats.hpp"
#include "problems/feasibility.hpp"
#include "support/check.hpp"

namespace sea {

namespace {

// Dense-diagonal backend for the shared iteration engine: sweeps via
// EquilibrateSide over the problem and its transposed copies, with the
// primal materialized column-major (x^T) on check iterations.
class DenseDiagonalBackend final : public SeaIterationBackend {
 public:
  DenseDiagonalBackend(const DiagonalProblem& p, const DenseMatrix& x0_t,
                       const DenseMatrix& gamma_t, const SeaOptions& opts,
                       Vector& lambda, Vector& mu)
      : p_(p),
        x0_t_(x0_t),
        gamma_t_(gamma_t),
        lambda_(lambda),
        mu_(mu),
        xt_(p.n(), p.m(), 0.0),
        rowsum_(p.m(), 0.0) {
    row_side_.mode = p.mode();
    row_side_.t0 = p.s0();
    col_side_.mode = p.mode();
    switch (p.mode()) {
      case TotalsMode::kFixed:
        col_side_.t0 = p.d0();
        break;
      case TotalsMode::kElastic:
        row_side_.weight = p.alpha();
        col_side_.t0 = p.d0();
        col_side_.weight = p.beta();
        break;
      case TotalsMode::kInterval:
        row_side_.weight = p.alpha();
        row_side_.lo = p.s_lo();
        row_side_.hi = p.s_hi();
        col_side_.t0 = p.d0();
        col_side_.weight = p.beta();
        col_side_.lo = p.d_lo();
        col_side_.hi = p.d_hi();
        break;
      case TotalsMode::kSam:
        row_side_.weight = p.alpha();
        row_side_.coupling = mu_;  // rebound below each iteration
        col_side_.t0 = p.s0();
        col_side_.weight = p.alpha();
        col_side_.coupling = lambda_;
        break;
    }
    sweep_opts_.sort_policy = opts.sort_policy;
    sweep_opts_.pool = opts.pool;
    sweep_opts_.record_task_costs = opts.record_trace;
    sweep_opts_.attribution = opts.attribution;
    if (opts.attribution != nullptr) opts.attribution->Reset(p.m(), p.n());
    if (opts.sweep_schedule != ScheduleKind::kStatic) {
      row_scheduler_.emplace(opts.sweep_schedule, opts.sweep_grain);
      col_scheduler_.emplace(opts.sweep_schedule, opts.sweep_grain);
    }
    if (opts.sort_policy == SortPolicy::kReuse) {
      row_orders_.Reset(p.m());
      col_orders_.Reset(p.n());
    }
  }

  SweepStats RowSweep() override {
    if (p_.mode() == TotalsMode::kSam) row_side_.coupling = mu_;
    sweep_opts_.profile_phase = "equilibrate.rows";
    sweep_opts_.scheduler =
        row_scheduler_.has_value() ? &*row_scheduler_ : nullptr;
    sweep_opts_.sort_cache = row_orders_.size() > 0 ? &row_orders_ : nullptr;
    sweep_opts_.attribution_base = 0;  // row markets: slots [0, m)
    return EquilibrateSide(p_.x0(), p_.gamma(), mu_, row_side_, lambda_,
                           nullptr, sweep_opts_);
  }

  SweepStats ColSweep(bool materialize) override {
    if (p_.mode() == TotalsMode::kSam) col_side_.coupling = lambda_;
    sweep_opts_.profile_phase = "equilibrate.cols";
    sweep_opts_.scheduler =
        col_scheduler_.has_value() ? &*col_scheduler_ : nullptr;
    sweep_opts_.sort_cache = col_orders_.size() > 0 ? &col_orders_ : nullptr;
    sweep_opts_.attribution_base = p_.m();  // column markets: slots [m, m+n)
    return EquilibrateSide(x0_t_, gamma_t_, lambda_, col_side_, mu_,
                           materialize ? &xt_ : nullptr, sweep_opts_);
  }

  double ResidualMeasure(StopCriterion c) override {
    // Row residual of the column-feasible iterate: after the column sweep
    // the column constraints hold exactly, so (by eq. (25)) the row residual
    // is the remaining dual-gradient component.
    AccumulateRowSums();
    return MaxRowResidual(c, rowsum_, Targets());
  }

  double AttributeResidual(StopCriterion c, std::span<double> out) override {
    // Same per-row terms the aggregate measure maxes over; FoldRowResidual
    // from a zero running max yields exactly one row's contribution.
    AccumulateRowSums();
    const ResidualTargets targets = Targets();
    double l1 = 0.0;
    for (std::size_t i = 0; i < rowsum_.size(); ++i) {
      out[i] = FoldRowResidual(c, rowsum_[i], RowTarget(targets, i), 0.0);
      l1 += out[i];
    }
    return l1;
  }

  double DiffFromSnapshot() override { return xt_.MaxAbsDiff(xt_prev_); }
  void SnapshotIterate() override { xt_prev_ = xt_; }

  std::uint64_t CheckCost() const override {
    return 2 * static_cast<std::uint64_t>(p_.m()) * p_.n();
  }

  // Breakdown recovery: the primal is recovered from (lambda, mu) after the
  // run, so capturing the duals alone preserves a full last-good iterate.
  void SaveGoodIterate() override {
    lambda_good_ = lambda_;
    mu_good_ = mu_;
  }
  void RestoreGoodIterate() override {
    if (lambda_good_.empty()) {
      // No finite check yet: fall back to the start point (lambda = 0,
      // mu = the warm start is gone, so zero both — x then recovers from
      // the unconstrained minimizer at the centers).
      std::fill(lambda_.begin(), lambda_.end(), 0.0);
      std::fill(mu_.begin(), mu_.end(), 0.0);
      return;
    }
    lambda_ = lambda_good_;
    mu_ = mu_good_;
  }

  void RebalanceDuals(const SeaOptions& opts) override {
    // The paper's Modified Algorithm: keep dual iterates bounded by
    // rebalancing multipliers across support components (a gauge shift with
    // no effect on the primal trajectory).
    if (opts.multiplier_bound > 0.0 && (p_.mode() == TotalsMode::kFixed ||
                                        p_.mode() == TotalsMode::kSam))
      RebalanceMultipliers(p_, lambda_, mu_, opts.multiplier_bound);
  }

  // Durability hooks (core/checkpoint.hpp): the duals are the complete
  // iterate (the primal recovers from them in closed form); kXChange
  // additionally needs the previous check's materialized x^T.
  bool CaptureIterate(CheckpointState& out) override {
    if (!fingerprint_.has_value()) fingerprint_ = FingerprintProblem(p_);
    out.fingerprint = *fingerprint_;
    out.m = p_.m();
    out.n = p_.n();
    out.lambda = lambda_;
    out.mu = mu_;
    const auto prev = xt_prev_.Flat();
    out.snapshot.assign(prev.begin(), prev.end());
    return true;
  }

  bool RestoreIterate(const CheckpointState& in) override {
    if (in.lambda.size() != p_.m() || in.mu.size() != p_.n()) return false;
    if (in.have_snapshot && in.snapshot.size() != p_.m() * p_.n())
      return false;
    lambda_ = in.lambda;
    mu_ = in.mu;
    if (in.have_snapshot) {
      xt_prev_ = DenseMatrix(p_.n(), p_.m(), 0.0);
      std::copy(in.snapshot.begin(), in.snapshot.end(),
                xt_prev_.Flat().begin());
    }
    // The restored duals are by construction the last trustworthy state.
    lambda_good_ = lambda_;
    mu_good_ = mu_;
    return true;
  }

  // Recovery-ladder hooks (docs/ROBUSTNESS.md "Recovery ladder").
  bool SupportsRecovery() const override { return true; }
  void SnapshotRowDuals(std::vector<double>& out) const override {
    out = lambda_;
  }
  void BlendRowDuals(const std::vector<double>& prev, double keep) override {
    for (std::size_t i = 0; i < lambda_.size(); ++i)
      lambda_[i] = prev[i] + keep * (lambda_[i] - prev[i]);
  }
  void ForceRebalance() override {
    // Rung 3's re-gauge: shift multipliers across support components
    // relative to the current dual magnitude, regardless of the
    // multiplier_bound option (only the gauge-free regimes have this
    // freedom).
    if (p_.mode() != TotalsMode::kFixed && p_.mode() != TotalsMode::kSam)
      return;
    double max_abs = 0.0;
    for (double v : lambda_) max_abs = std::max(max_abs, std::abs(v));
    if (max_abs > 0.0) RebalanceMultipliers(p_, lambda_, mu_, 0.5 * max_abs);
  }

  void RecordDualValue(std::vector<double>& out) override {
    out.push_back(DualValue(p_, lambda_, mu_));
  }

 private:
  void AccumulateRowSums() {
    std::fill(rowsum_.begin(), rowsum_.end(), 0.0);
    const std::size_t m = p_.m(), n = p_.n();
    for (std::size_t j = 0; j < n; ++j) {
      const auto col = xt_.Row(j);
      for (std::size_t i = 0; i < m; ++i) rowsum_[i] += col[i];
    }
  }

  ResidualTargets Targets() const {
    ResidualTargets targets;
    targets.mode = p_.mode();
    targets.s0 = p_.s0();
    targets.alpha = p_.alpha();
    targets.lambda = lambda_;
    targets.mu = mu_;
    if (p_.mode() == TotalsMode::kInterval) {
      targets.s_lo = p_.s_lo();
      targets.s_hi = p_.s_hi();
    }
    return targets;
  }

  const DiagonalProblem& p_;
  const DenseMatrix& x0_t_;
  const DenseMatrix& gamma_t_;
  Vector& lambda_;
  Vector& mu_;
  // Sweep descriptors (fixed for the whole run, modulo SAM coupling).
  MarketSide row_side_;
  MarketSide col_side_;
  SweepOptions sweep_opts_;
  // Cost feedback + persisted sort orders, one of each per sweep side (the
  // sides differ in market count, and costs do not transfer between them).
  std::optional<SweepScheduler> row_scheduler_, col_scheduler_;
  SortOrderCache row_orders_, col_orders_;
  // Column-major primal (x^T), materialized on check iterations.
  DenseMatrix xt_;
  DenseMatrix xt_prev_;
  Vector rowsum_;
  // Duals at the last finite check (empty until one passes).
  Vector lambda_good_, mu_good_;
  // Problem fingerprint, computed on the first checkpoint capture (one
  // O(mn) hash per solve, and only when checkpointing is on).
  std::optional<std::uint64_t> fingerprint_;
};

}  // namespace

DiagonalSea::DiagonalSea(const DiagonalProblem& problem) {
  problem.Validate();
  problem_ = &problem;
  x0_t_ = problem.x0().Transposed();
  gamma_t_ = problem.gamma().Transposed();
}

void DiagonalSea::ResetProblem(const DiagonalProblem& problem) {
  SEA_CHECK(problem.m() == problem_->m() && problem.n() == problem_->n());
  SEA_CHECK(problem.mode() == problem_->mode());
  problem_ = &problem;
  x0_t_ = problem.x0().Transposed();
  gamma_t_ = problem.gamma().Transposed();
}

DiagonalSeaRun DiagonalSea::Solve(const SeaOptions& opts) {
  return SolveWarm(opts, Vector(problem_->n(), 0.0));  // paper Step 0: mu = 0
}

DiagonalSeaRun DiagonalSea::SolveWarm(const SeaOptions& opts,
                                      const Vector& mu0) {
  const DiagonalProblem& p = *problem_;
  SEA_CHECK(mu0.size() == p.n());

  Vector lambda(p.m(), 0.0);
  Vector mu = mu0;

  DenseDiagonalBackend backend(p, x0_t_, gamma_t_, opts, lambda, mu);

  DiagonalSeaRun run;
  run.result = RunIterationEngine(backend, opts);
  run.solution = RecoverPrimal(p, std::move(lambda), std::move(mu));
  run.result.objective =
      p.Objective(run.solution.x, run.solution.s, run.solution.d);
  return run;
}

DiagonalSeaRun SolveDiagonal(const DiagonalProblem& problem,
                             const SeaOptions& opts) {
  DiagonalSea solver(problem);
  return solver.Solve(opts);
}

}  // namespace sea
