// Per-check text streams: the structured JSONL run trace, and the
// human-readable progress lines of sea_solve --progress and the benches.
//
// Both are solve observers (core/solve_observer.hpp) writing one line per
// engine check; the trace also writes one per general-SEA projection step.
// The trace layers *beside* the ExecutionTrace machinery
// (SeaOptions::record_trace feeds the schedule simulator); it captures the
// convergence trajectory and phase accounting in a diffable, append-only
// format whose `check` and `outer` lines docs/OBSERVABILITY.md specifies
// ("Trace JSONL schema").
#pragma once

#include <cstddef>
#include <fstream>
#include <iosfwd>
#include <string>
#include <utility>

#include "core/options.hpp"
#include "core/solve_observer.hpp"

namespace sea::obs {

// Renders an event as a single-line JSON object (no trailing newline) —
// the serialization JsonlTraceSink writes, exposed for tests and tools.
std::string ToJsonLine(const IterationEvent& ev);
std::string ToJsonLine(const OuterStepEvent& ev);

// Appends one JSON object per line to a file. Throws InvalidArgument when
// the file cannot be opened. Flushes on destruction.
//
// Mid-run write failures (disk full, pipe closed; injectable via the
// sea.obs.trace_write failpoint) degrade rather than abort the solve:
// the sink stops writing, write_failed() reports the condition, and
// events_written() counts only the lines that actually reached the stream.
// A trace is telemetry — losing it must never lose the solve.
class JsonlTraceSink : public SolveObserver {
 public:
  explicit JsonlTraceSink(const std::string& path);

  void OnCheck(const IterationEvent& ev) override {
    WriteLine(ToJsonLine(ev));
  }
  void OnOuterStep(const OuterStepEvent& ev) override {
    WriteLine(ToJsonLine(ev));
  }
  void Flush() { out_.flush(); }

  std::size_t events_written() const { return events_written_; }
  bool write_failed() const { return write_failed_; }

 private:
  void WriteLine(const std::string& line);

  std::ofstream out_;
  std::size_t events_written_ = 0;
  bool write_failed_ = false;
};

// Writes one "<prefix>: iter=.. residual=..[ (converged)]" line per check
// to `out`; "residual=n/a" when the measure has no value yet. With
// phase_seconds the cumulative row/column/check phase times follow the
// residual as row_s=.. col_s=.. check_s=...
class ProgressPrinter : public SolveObserver {
 public:
  ProgressPrinter(std::ostream& out, std::string prefix,
                  bool phase_seconds = false)
      : out_(out), prefix_(std::move(prefix)), phase_seconds_(phase_seconds) {}

  void OnCheck(const IterationEvent& ev) override;

 private:
  std::ostream& out_;
  std::string prefix_;
  bool phase_seconds_;
};

}  // namespace sea::obs
