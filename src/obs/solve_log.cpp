#include "obs/solve_log.hpp"

#include <ctime>
#include <ostream>
#include <utility>

#include "support/atomic_file.hpp"

namespace sea::obs {

namespace {

std::string IsoTimestampUtc() {
  const std::time_t now = std::time(nullptr);
  std::tm tm_utc{};
  gmtime_r(&now, &tm_utc);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
  return buf;
}

std::string HexU64(std::uint64_t v) {
  static const char* kDigits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[v & 0xF];
    v >>= 4;
  }
  return out;
}

}  // namespace

std::string RenderWideEvent(const SolveWideEvent& event) {
  // The document is FLAT by contract (readable with obs::ReadTraceJsonl,
  // which rejects nesting), so the rung sequence renders as a compact
  // string: "1,2,3".
  std::string rungs;
  for (std::uint8_t r : event.recovery_rungs) {
    if (!rungs.empty()) rungs += ',';
    rungs += std::to_string(static_cast<unsigned>(r));
  }
  JsonObj doc;
  doc.Field("schema", kTelemetrySchemaVersion)
      .Field("type", "solve")
      .Field("timestamp", IsoTimestampUtc())
      .Field("tool", event.tool)
      .Field("mode", event.mode)
      .Field("rows", event.rows)
      .Field("cols", event.cols)
      .Field("epsilon", event.epsilon)
      .Field("criterion", event.criterion)
      .Field("threads", event.threads)
      .Field("schedule", event.schedule)
      .Field("sort", event.sort)
      .Field("options_fingerprint", HexU64(event.options_fingerprint))
      .Field("status", event.status)
      .Field("exit_code", event.exit_code)
      .Field("iterations", event.iterations)
      .Field("checks_compared", event.checks_compared)
      .Field("final_residual", event.final_residual)
      .Field("objective", event.objective)
      .Field("feasibility_max_abs", event.feasibility_max_abs)
      .Field("feasibility_max_rel", event.feasibility_max_rel)
      .Field("wall_seconds", event.wall_seconds)
      .Field("cpu_seconds", event.cpu_seconds)
      .Field("row_phase_seconds", event.row_phase_seconds)
      .Field("col_phase_seconds", event.col_phase_seconds)
      .Field("check_phase_seconds", event.check_phase_seconds)
      .Field("recoveries", event.recoveries)
      .Field("recovery_rungs", rungs)
      .Field("resumed", event.resumed)
      .Field("peak_rss_bytes", event.peak_rss_bytes)
      .Field("listen_port", event.listen_port);
  if (!event.cache_tier.empty()) {
    doc.Field("cache_tier", event.cache_tier)
        .Field("queue_seconds", event.queue_seconds);
  }
  if (!event.error.empty()) doc.Field("error", event.error);
  return doc.Str();
}

SolveLogWriter::SolveLogWriter(std::string path) : path_(std::move(path)) {}

bool SolveLogWriter::Emit(const SolveWideEvent& event) {
  if (path_.empty()) return true;
  const std::string line = RenderWideEvent(event);
  // Retry: unlike a status snapshot, a wide event has no successor to
  // supersede it — losing the line is losing the invocation's record.
  support::AtomicFileWriter writer(
      support::RetryPolicy{/*max_attempts=*/3, /*initial_backoff_ms=*/1.0,
                           /*backoff_multiplier=*/4.0});
  if (!writer.Append(path_, [&](std::ostream& f) { f << line << '\n'; }))
    return false;
  ++emitted_;
  return true;
}

}  // namespace sea::obs
