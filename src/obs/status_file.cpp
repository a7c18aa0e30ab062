#include "obs/status_file.hpp"

#include <cmath>
#include <limits>
#include <ostream>
#include <utility>

#include "core/stopping.hpp"
#include "obs/json_export.hpp"
#include "support/atomic_file.hpp"

namespace sea::obs {

namespace {
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
}  // namespace

double SanitizeEta(double eta) {
  if (!std::isfinite(eta) || eta < 0.0) return kNan;
  return eta;
}

std::string RenderStatusJson(const StatusSnapshot& snap) {
  JsonObj obj;
  obj.Field("schema", kTelemetrySchemaVersion)
      .Field("type", "status")
      .Field("phase", snap.phase);
  if (*snap.status != '\0') obj.Field("status", snap.status);
  const IterationEvent& ev = snap.check;
  obj.Field("iter", ev.iteration)
      .Field("measure_defined", ev.measure_defined)
      .Field("measure", ev.measure_defined ? ev.measure : kNan)
      .Field("converged", ev.converged)
      .Field("checks_compared", ev.checks_compared)
      .Field("epsilon", snap.epsilon)
      // NaN renders as null: "no estimate yet" is distinguishable from 0.
      .Field("eta_iterations", snap.eta_iterations)
      .Field("eta_seconds", snap.eta_seconds)
      .Field("elapsed_seconds", snap.elapsed_seconds)
      .Field("row_phase_seconds", ev.row_phase_seconds)
      .Field("col_phase_seconds", ev.col_phase_seconds)
      .Field("check_phase_seconds", ev.check_phase_seconds)
      .Field("recoveries", snap.recoveries);
  if (*snap.last_recovery_rung != '\0')
    obj.Field("last_recovery_rung", snap.last_recovery_rung)
        .Field("last_recovery_iter", snap.last_recovery_iteration);
  return obj.Str();
}

StatusFileWriter::StatusFileWriter(std::string path, double epsilon,
                                   double min_interval_seconds)
    : path_(std::move(path)), min_interval_(min_interval_seconds) {
  snap_.epsilon = epsilon;
  snap_.eta_iterations = kNan;
  snap_.eta_seconds = kNan;
  // /statusz must answer before the first check fires.
  snap_.elapsed_seconds = clock_.Seconds();
  latest_json_ = RenderStatusJson(snap_);
}

void StatusFileWriter::OnCheck(const IterationEvent& ev) {
  snap_.check = ev;
  if (ev.measure_defined && std::isfinite(ev.measure)) {
    if (have_prev_)
      snap_.eta_iterations = SanitizeEta(
          EstimateItersToEpsilon(prev_iteration_, prev_measure_, ev.iteration,
                                 ev.measure, snap_.epsilon));
    prev_iteration_ = ev.iteration;
    prev_measure_ = ev.measure;
    have_prev_ = true;
  }
  const double now = clock_.Seconds();
  if (last_write_seconds_ >= 0.0 && now - last_write_seconds_ < min_interval_)
    return;  // throttled; the snapshot catches up at the next check
  if (Publish("iterating", "")) last_write_seconds_ = now;
}

void StatusFileWriter::OnEnd(const SolveEnd& end) {
  Publish("terminated", sea::ToString(end.status));
}

void StatusFileWriter::OnRecovery(std::size_t iteration, std::uint8_t rung,
                                  std::uint64_t recovered) {
  snap_.recoveries = recovered;
  snap_.last_recovery_rung = RecoveryRungName(rung);
  snap_.last_recovery_iteration = iteration;
  // Bypass the throttle: a rescue must be visible live, not a throttle
  // interval later.
  if (Publish("recovering", "")) last_write_seconds_ = clock_.Seconds();
}

bool StatusFileWriter::Publish(const char* phase, const char* status) {
  const double elapsed = clock_.Seconds();
  const std::size_t iteration = snap_.check.iteration;
  snap_.phase = phase;
  snap_.status = status;
  // Seconds-per-iteration so far scales the iteration ETA to wall time.
  snap_.eta_seconds = SanitizeEta(
      iteration > 0 ? snap_.eta_iterations *
                          (elapsed / static_cast<double>(iteration))
                    : kNan);
  snap_.elapsed_seconds = elapsed;
  const std::string line = RenderStatusJson(snap_);
  {
    std::lock_guard lk(latest_mu_);
    latest_json_ = line;
  }
  if (path_.empty()) return true;  // endpoint-only mode

  // Single attempt, no retry: a lost snapshot is superseded by the next
  // throttled one (unlike checkpoints/postmortems, which retry — see
  // support/atomic_file.hpp).
  support::AtomicFileWriter writer;
  if (!writer.Write(path_, [&](std::ostream& f) { f << line << '\n'; }))
    return false;
  ++writes_;
  return true;
}

std::string StatusFileWriter::LatestJson() const {
  std::lock_guard lk(latest_mu_);
  return latest_json_;
}

}  // namespace sea::obs
