#include "obs/flight_recorder.hpp"

#include <cmath>
#include <ios>
#include <limits>
#include <ostream>
#include <utility>

#include "core/checkpoint.hpp"
#include "obs/json_export.hpp"
#include "support/atomic_file.hpp"
#include "support/check.hpp"
#include "support/failpoint.hpp"

namespace sea::obs {

const char* FlightRecorder::ToString(EventKind k) {
  switch (k) {
    case EventKind::kBegin: return "begin";
    case EventKind::kCheck: return "check";
    case EventKind::kBreakdown: return "breakdown";
    case EventKind::kStallTrip: return "stall";
    case EventKind::kCancelPoll: return "cancel";
    case EventKind::kBudgetPoll: return "budget";
    case EventKind::kRecovery: return "recovery";
    case EventKind::kResume: return "resume";
    case EventKind::kTermination: return "termination";
  }
  SEA_INTERNAL_CHECK(false);
  return "?";
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : ring_(capacity == 0 ? 1 : capacity) {}

void FlightRecorder::Record(EventKind kind, std::size_t iteration,
                            double value) {
  Event& e = ring_[recorded_ % ring_.size()];
  e.seconds = clock_.Seconds();
  e.kind = kind;
  e.iteration = iteration;
  e.value = value;
  ++recorded_;
}

void FlightRecorder::OnBegin(const SeaOptions& opts) {
  Record(EventKind::kBegin, 0, static_cast<double>(opts.max_iterations));
  if (opts.resume != nullptr)
    Record(EventKind::kResume,
           static_cast<std::size_t>(opts.resume->iteration),
           opts.resume->final_residual);
}

void FlightRecorder::OnCheck(const IterationEvent& ev) {
  if (ev.measure_defined && std::isfinite(ev.measure)) {
    last_good_iteration_ = ev.iteration;
    last_good_measure_ = ev.measure;
    have_good_ = true;
  }
  Record(EventKind::kCheck, ev.iteration,
         ev.measure_defined ? ev.measure
                            : std::numeric_limits<double>::quiet_NaN());
}

void FlightRecorder::OnGuardrail(SolveStatus trip, std::size_t iteration,
                                 double value) {
  Record(trip == SolveStatus::kNumericalBreakdown ? EventKind::kBreakdown
         : trip == SolveStatus::kStalled          ? EventKind::kStallTrip
         : trip == SolveStatus::kCancelled        ? EventKind::kCancelPoll
                                                  : EventKind::kBudgetPoll,
         iteration, value);
}

void FlightRecorder::OnRecovery(std::size_t iteration, std::uint8_t rung,
                                std::uint64_t /*recovered*/) {
  Record(EventKind::kRecovery, iteration, static_cast<double>(rung));
}

void FlightRecorder::OnEnd(const SolveEnd& end) {
  Record(EventKind::kTermination, end.iterations, end.final_measure);
  end_ = end;
  end_.engine = nullptr;  // the results do not outlive the solve
  end_.general = nullptr;
  const bool failure_class = end.status == SolveStatus::kStalled ||
                             end.status == SolveStatus::kNumericalBreakdown ||
                             end.status == SolveStatus::kCancelled ||
                             end.status == SolveStatus::kTimeBudgetExceeded;
  if (failure_class && !dump_path_.empty())
    dumped_ = WritePostmortem(dump_path_);
}

bool FlightRecorder::WritePostmortem(const std::string& path) const {
  // Atomic publication + retry with backoff via the shared writer: readers
  // polling `path` see the old dump or the new one, never a torn write,
  // and a transient write failure gets another chance before the dump is
  // abandoned (the solve result is never at stake either way).
  support::AtomicFileWriter writer(support::RetryPolicy{3, 0.5, 4.0});
  return writer.Write(path, [&](std::ostream& f) {
    SEA_FAILPOINT_SITE("sea.obs.postmortem_write")
    if (fail::Triggered("sea.obs.postmortem_write"))
      f.setstate(std::ios::badbit);
    if (!f.good()) return;

    const std::size_t kept =
        recorded_ < ring_.size() ? recorded_ : ring_.size();
    f << JsonObj()
             .Field("schema", kTelemetrySchemaVersion)
             .Field("type", "postmortem")
             .Field("status", sea::ToString(end_.status))
             .Field("iterations", static_cast<std::uint64_t>(end_.iterations))
             .Field("final_residual", end_.final_measure)
             .Field("wall_seconds", end_.wall_seconds)
             .Field("recovered", end_.recovered)
             .Field("events_recorded", static_cast<std::uint64_t>(recorded_))
             .Field("events_dropped",
                    static_cast<std::uint64_t>(recorded_ - kept))
             .Field("capacity", static_cast<std::uint64_t>(ring_.size()))
             .Str()
      << '\n';
    if (have_good_) {
      f << JsonObj()
               .Field("type", "last_good")
               .Field("iter",
                      static_cast<std::uint64_t>(last_good_iteration_))
               .Field("measure", last_good_measure_)
               .Str()
        << '\n';
    }
    for (std::size_t k = recorded_ - kept; k < recorded_; ++k) {
      const Event& e = ring_[k % ring_.size()];
      f << JsonObj()
               .Field("type", "event")
               .Field("kind", ToString(e.kind))
               .Field("t", e.seconds)
               .Field("iter", static_cast<std::uint64_t>(e.iteration))
               .Field("value", e.value)
               .Str()
        << '\n';
    }
  });
}

}  // namespace sea::obs
