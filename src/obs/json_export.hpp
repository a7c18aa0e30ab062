// Machine-readable export of solver results and telemetry.
//
// A deliberately small JSON layer — the repository bakes in no third-party
// JSON dependency — with two halves:
//   * JsonObj / JsonArr: append-only builders that render doubles with
//     shortest round-trip formatting (std::to_chars), so exported numbers
//     are bit-identical to the in-memory values the printed tables were
//     formatted from;
//   * ToJson overloads for the solver report types (SeaResult,
//     GeneralSeaResult), MetricsSnapshot, and PoolStats.
//
// All documents carry a `"schema"` version; the schema is append-only (new
// fields may appear, existing ones never change meaning —
// docs/OBSERVABILITY.md). Version 2 added the bench provenance fields
// (git_sha/build_type/timestamp/wall/cpu/peak-RSS) and the per-phase
// profiler breakdown. Version 3 added the forensics documents: per-market
// attribution JSONL, flight-recorder postmortems, and the --status-file
// snapshot (obs/market_stats.hpp, obs/flight_recorder.hpp,
// obs/status_file.hpp). Version 4 added the telemetry-plane documents:
// /timeseries and its index (obs/sampler.hpp), /varz, and the wide-event
// solve log (obs/solve_log.hpp). Version 5 is the one break from
// append-only: the single market kernel left nothing to name, so the
// `backend` fields of the solve log, the result JSON (`kernel_backend`),
// sea_solve's metrics JSON and /varz were removed, along with the
// sea.kernel.backend gauge; sea.kernel.<backend>.markets became
// sea.kernel.markets.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace sea {

struct SeaResult;
struct GeneralSeaResult;
struct PoolStats;

namespace obs {

// Current version stamped into every exported document and trace event.
inline constexpr int kTelemetrySchemaVersion = 5;

std::string JsonEscape(const std::string& s);
// Shortest decimal that round-trips to the same double; "null" for
// non-finite values (JSON has no NaN/Inf).
std::string JsonNumber(double v);

// Ordered {"k":v,...} builder. Values are escaped/formatted per type; Raw
// splices an already-rendered JSON fragment (nested objects/arrays).
class JsonObj {
 public:
  JsonObj& Field(const std::string& key, const std::string& value);
  JsonObj& Field(const std::string& key, const char* value);
  JsonObj& Field(const std::string& key, double value);
  JsonObj& Field(const std::string& key, bool value);
  JsonObj& Field(const std::string& key, std::uint64_t value);
  JsonObj& Field(const std::string& key, int value);
  JsonObj& Raw(const std::string& key, const std::string& json);

  std::string Str() const { return "{" + body_ + "}"; }

 private:
  JsonObj& Append(const std::string& key, const std::string& rendered);
  std::string body_;
};

// Ordered [v,...] builder; Raw appends a rendered fragment.
class JsonArr {
 public:
  JsonArr& Add(double value);
  JsonArr& Add(std::uint64_t value);
  JsonArr& Add(const std::string& value);
  JsonArr& Raw(const std::string& json);

  std::string Str() const { return "[" + body_ + "]"; }

 private:
  JsonArr& Append(const std::string& rendered);
  std::string body_;
};

// Result objects (converged, iterations, residuals, phase seconds, op
// counts). These are fragments, meant to be spliced into a document with
// JsonObj::Raw.
std::string ToJson(const SeaResult& result);
std::string ToJson(const GeneralSeaResult& result);
std::string ToJson(const MetricsSnapshot& snapshot);
std::string ToJson(const HistogramSnapshot& h);
std::string ToJson(const PoolStats& stats);

}  // namespace obs
}  // namespace sea
