// In-memory flight recorder for solver postmortems (docs/ROBUSTNESS.md,
// docs/OBSERVABILITY.md "Flight recorder").
//
// A solve observer (core/solve_observer.hpp) that keeps a fixed-capacity
// ring of recent solve events plus a last-good-iterate summary. When a
// solve ends in one of the four guardrail failure classes (stalled,
// numerical-breakdown, cancelled, time-budget-exceeded) and a dump path is
// set, it writes the ring atomically (temp file + rename) to a JSONL
// postmortem that the flat trace parser (obs/trace_reader.hpp) reads back.
//
// Recording is O(1) per event into preallocated storage, and the ring
// survives across chained solves (general SEA's inner runs, whose outer
// end comes last), so the postmortem shows the events leading up to the
// failure even when the failing solve was warm-started.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/solve_observer.hpp"
#include "core/solve_status.hpp"
#include "support/stopwatch.hpp"

namespace sea::obs {

class FlightRecorder : public SolveObserver {
 public:
  // Kinds of recorded events; serialized under these stable names.
  enum class EventKind : std::uint8_t {
    kBegin,        // engine run started (value = max_iterations)
    kCheck,        // check iteration (value = measure; NaN when undefined)
    kBreakdown,    // non-finite measure observed, last-good iterate restored
    kStallTrip,    // stall detector tripped (value = frozen measure)
    kCancelPoll,   // cancellation observed at a check poll
    kBudgetPoll,   // time budget observed expired at a check poll
    kRecovery,     // recovery-ladder rescue (value = rung; ROBUSTNESS.md)
    kResume,       // run resumed from a checkpoint (value = its residual)
    kTermination,  // engine returned (value = final residual)
  };
  static const char* ToString(EventKind k);

  explicit FlightRecorder(std::size_t capacity = 256);

  // Enables the automatic postmortem dump on guardrail termination.
  void SetDumpPath(std::string path) { dump_path_ = std::move(path); }
  const std::string& dump_path() const { return dump_path_; }

  void Record(EventKind kind, std::size_t iteration, double value);

  // A check with a finite measure also becomes the last-good iterate.
  void OnBegin(const SeaOptions& opts) override;
  void OnCheck(const IterationEvent& ev) override;
  void OnGuardrail(SolveStatus trip, std::size_t iteration,
                   double value) override;
  void OnRecovery(std::size_t iteration, std::uint8_t rung,
                  std::uint64_t recovered) override;
  // Records the termination event and, when the status is one of the four
  // guardrail failure classes and a dump path is set, writes the
  // postmortem. Its header carries end.recovered: "the ladder rescued N
  // trips before this one ended the run".
  void OnEnd(const SolveEnd& end) override;

  // Writes the postmortem JSONL (header, last-good summary, ring events
  // oldest to newest) atomically. Fail-soft: returns false and leaves any
  // existing file untouched on a write failure (failpoint
  // sea.obs.postmortem_write forces that path).
  bool WritePostmortem(const std::string& path) const;

  std::size_t capacity() const { return ring_.size(); }
  std::size_t recorded() const { return recorded_; }
  bool dumped() const { return dumped_; }

 private:
  struct Event {
    double seconds = 0.0;  // since recorder construction
    EventKind kind = EventKind::kBegin;
    std::size_t iteration = 0;
    double value = 0.0;
  };

  std::vector<Event> ring_;
  std::size_t recorded_ = 0;  // total events ever recorded
  Stopwatch clock_;           // one time base across chained solves
  std::string dump_path_;
  SolveEnd end_;  // the latest end, without its result pointers
  std::size_t last_good_iteration_ = 0;
  double last_good_measure_ = 0.0;
  bool have_good_ = false;
  bool dumped_ = false;
};

}  // namespace sea::obs
