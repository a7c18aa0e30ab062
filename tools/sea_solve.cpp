// sea_solve — command-line constrained matrix estimation.
//
// Reads a base matrix and totals from CSV, solves the selected regime with
// the splitting equilibration algorithm, writes the estimate as CSV, and
// prints a solve report.
//
// Usage:
//   sea_solve --mode fixed    --matrix base.csv --row-totals r.csv
//             --col-totals c.csv [--weights chi2|unit|sqrt]
//             [--epsilon 1e-6] [--criterion rel|abs|xchange]
//             [--check-every K] [--max-iters N] [--threads N]
//             [--progress] [--out estimate.csv]
//             [--metrics-json m.json] [--trace-jsonl t.jsonl]
//   sea_solve --mode elastic  ... (same flags; totals are treated as
//             estimates with unit weights)
//   sea_solve --mode interval ... (same flags; totals may move within
//             +-slack, --slack <frac>, default 0.05)
//   sea_solve --mode sam      --matrix base.csv --totals t.csv ...
//   sea_solve --mode check    --matrix base.csv --row-totals r.csv
//             --col-totals c.csv
//             (max-flow feasibility of the totals on the matrix's support —
//              tells you whether RAS can possibly converge before you run it)
//
// Totals files: one value per line (or a single CSV row).
// Telemetry (docs/OBSERVABILITY.md): --metrics-json writes one JSON document
// with the solve result, metric counters/histograms, and thread-pool
// utilization; --metrics-prom writes the same registry in Prometheus text
// exposition format; --trace-jsonl streams one JSON event per convergence
// check (readable with tools/trace_report).
//
// Convergence forensics (docs/OBSERVABILITY.md, "Convergence forensics"):
// --attribution-json records per-market residual/breakpoint/active-set
// attribution (summarize with tools/market_report); --postmortem-json arms
// the flight recorder to dump a JSONL postmortem when the solve ends in a
// guardrail failure class; --status-file maintains a live, atomically
// replaced JSON snapshot of the running solve. The SEA_FAILPOINTS
// environment variable ("site[:at_hit[:count]],...") arms fault-injection
// failpoints for CI smokes (docs/ROBUSTNESS.md).
//
// Live telemetry plane (docs/OBSERVABILITY.md, "Live endpoints"):
// --listen <port> starts an embedded loopback HTTP server (port 0 picks an
// ephemeral port; --listen-port-file publishes the bound port) exposing
// /healthz, /metrics (Prometheus text exposition), /statusz (the live
// status snapshot), /timeseries (sampler rings; ?metric=...&last=K), and
// /varz (build/config identity). A background sampler
// (--sample-interval-ms, default 250) turns the metrics registry into
// bounded time series while the solve runs. --solve-log <path> appends one
// flat JSON wide event per invocation — success, infeasible, cancelled, or
// error — for fleet-level forensics (docs/OBSERVABILITY.md, "Wide-event
// solve log").
//
// Durability + self-healing (docs/ROBUSTNESS.md): --checkpoint <path> writes
// a crash-safe resume checkpoint every --checkpoint-every N compared checks
// (and at cancellation / budget expiry / the iteration cap); --resume <path>
// restores one and continues bit-identically; --recover walks the automatic
// recovery ladder on stall/breakdown instead of terminating
// (--recovery-retries attempts per rung). Inspect any checkpoint with
// tools/checkpoint_info. SIGINT/SIGTERM trip cooperative cancellation: the
// solve stops at the next check, flushes telemetry, writes the final
// checkpoint and postmortem, and exits with code 6.
//
// Exit codes (docs/ROBUSTNESS.md) follow sea::ExitCodeFor:
//   0 converged          5 time budget exceeded   8 numerical breakdown
//   2 usage error        6 cancelled              9 infeasible input
//   3 input/IO error     7 stalled                  (pre-flight or check
//   4 iteration limit                                mode cut)
#include <csignal>
#include <iostream>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>

#include "core/checkpoint.hpp"

#include "core/diagonal_sea.hpp"
#include "core/solve_status.hpp"
#include "datasets/weights.hpp"
#include "io/csv.hpp"
#include "net/http_server.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/json_export.hpp"
#include "obs/market_stats.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/sampler.hpp"
#include "obs/solve_log.hpp"
#include "obs/status_file.hpp"
#include "obs/trace_sink.hpp"
#include "parallel/thread_pool.hpp"
#include "problems/feasibility.hpp"
#include "problems/validate.hpp"
#include "sparse/feasibility_flow.hpp"
#include "support/atomic_file.hpp"
#include "support/check.hpp"
#include "support/failpoint.hpp"
#include "support/hash.hpp"
#include "support/rusage.hpp"
#include "support/stopwatch.hpp"

#ifndef SEA_GIT_SHA
#define SEA_GIT_SHA "unknown"
#endif
#ifndef SEA_BUILD_TYPE
#define SEA_BUILD_TYPE "unknown"
#endif

namespace {

using namespace sea;

// SIGINT/SIGTERM handler: async-signal-safe cancellation. The token's
// Cancel() is a lock-free atomic store; the engine notices at the next
// check iteration and unwinds normally (final checkpoint, telemetry flush,
// exit code 6) — no state is touched from signal context.
CancelToken g_cancel;

extern "C" void OnTerminationSignal(int /*signum*/) { g_cancel.Cancel(); }

[[noreturn]] void Usage(const char* argv0, const std::string& why = {}) {
  if (!why.empty()) std::cerr << "error: " << why << '\n';
  std::cerr
      << "usage: " << argv0
      << " --mode fixed|elastic|interval|sam --matrix base.csv\n"
         "  fixed/elastic/interval: --row-totals r.csv --col-totals c.csv\n"
         "  sam:                    --totals t.csv\n"
         "  options: --weights chi2|unit|sqrt (default chi2)\n"
         "           --epsilon <tol>          (default 1e-6)\n"
         "           --criterion rel|abs|xchange (default rel)\n"
         "           --check-every <K>        (default 1: verify every "
         "iteration)\n"
         "           --max-iters <N>          (default 200000)\n"
         "           --time-budget <seconds>  (wall-clock deadline; exit 5 "
         "when exceeded)\n"
         "           --slack <frac>           (interval mode: totals may "
         "move within +-frac, default 0.05)\n"
         "           --threads <N>            (default 1)\n"
         "           --schedule static|cost|dynamic (sweep partitioning; "
         "default static)\n"
         "           --grain <N>              (dynamic-schedule chunk size; "
         "0 = auto)\n"
         "           --sort auto|insertion|heapsort|reuse (breakpoint sort "
         "policy; default auto)\n"
         "           --progress               (print residual per check "
         "iteration)\n"
         "           --out estimate.csv       (default: stdout summary "
         "only)\n"
         "           --stall-checks <N>       (stall detector window; 0 "
         "disables, default 50)\n"
         "           --metrics-json <path>    (write result + metrics as "
         "JSON)\n"
         "           --metrics-prom <path>    (write metrics in Prometheus "
         "text exposition format)\n"
         "           --trace-jsonl <path>     (stream per-check trace "
         "events)\n"
         "           --attribution-json <path> (per-market attribution "
         "JSONL; summarize with market_report)\n"
         "           --postmortem-json <path> (flight-recorder dump on "
         "stall/breakdown/cancel/budget failures)\n"
         "           --status-file <path>     (live solve snapshot, "
         "atomically replaced per check)\n"
         "           --listen <port>          (serve /healthz /metrics "
         "/statusz /timeseries /varz on 127.0.0.1; 0 = ephemeral port)\n"
         "           --listen-port-file <path> (write the bound port, "
         "atomically)\n"
         "           --sample-interval-ms <ms> (metrics sampler cadence, "
         "default 250)\n"
         "           --solve-log <path>       (append one JSON wide event "
         "per invocation)\n"
         "           --checkpoint <path>      (crash-safe resume checkpoint, "
         "atomically replaced)\n"
         "           --checkpoint-every <N>   (checkpoint cadence in "
         "compared checks, default 1)\n"
         "           --resume <path>          (restore a checkpoint and "
         "continue bit-identically)\n"
         "           --recover                (walk the recovery ladder on "
         "stall/breakdown instead of terminating)\n"
         "           --recovery-retries <N>   (rescue attempts per ladder "
         "rung, default 2)\n"
         "           --profile-json <path>    (export phase spans as Chrome "
         "trace JSON for Perfetto)\n"
         "           --profile-summary        (print the per-phase profile "
         "table)\n";
  std::exit(2);
}

// Flags that consume the following token vs. value-less switches. Anything
// else is rejected instead of silently ignored.
const std::set<std::string>& ValueFlags() {
  static const std::set<std::string> flags{
      "mode",      "matrix",     "row-totals",   "col-totals", "totals",
      "weights",   "epsilon",    "criterion",    "check-every", "max-iters",
      "slack",     "threads",    "out",          "metrics-json",
      "trace-jsonl", "time-budget", "profile-json",
      "schedule",  "grain",      "sort",
      "stall-checks", "metrics-prom", "attribution-json",
      "postmortem-json", "status-file", "checkpoint", "checkpoint-every",
      "resume", "recovery-retries", "listen", "listen-port-file",
      "sample-interval-ms", "solve-log"};
  return flags;
}

const std::set<std::string>& SwitchFlags() {
  static const std::set<std::string> flags{"progress", "profile-summary",
                                           "recover"};
  return flags;
}

// std::stod/std::stoul wrappers that reject garbage and trailing junk with
// a message naming the flag (or file) the value came from.
double ParseDouble(const std::string& value, const std::string& context) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(value, &pos);
    if (pos != value.size()) throw std::invalid_argument("trailing junk");
    return v;
  } catch (const std::exception&) {
    throw InvalidArgument("malformed number '" + value + "' for " + context);
  }
}

std::size_t ParseSize(const std::string& value, const std::string& context) {
  try {
    std::size_t pos = 0;
    const unsigned long v = std::stoul(value, &pos);
    if (pos != value.size() || value[0] == '-')
      throw std::invalid_argument("trailing junk");
    return static_cast<std::size_t>(v);
  } catch (const std::exception&) {
    throw InvalidArgument("malformed count '" + value + "' for " + context);
  }
}

Vector ReadTotals(const std::string& path) { return ReadVectorCsv(path); }

// Exit-path telemetry flush: even when the solve never ran (pre-flight
// infeasibility cut, input error), a requested --metrics-json still gets a
// parseable document carrying whatever solver.status.* counters were
// recorded before the failure (docs/OBSERVABILITY.md, "Exit-path flush").
void WriteFailureMetrics(const std::string& path, const std::string& mode,
                         const std::string& error,
                         const obs::MetricsRegistry& metrics) {
  std::ofstream f(path);
  if (!f.good()) {
    std::cerr << "warning: cannot open metrics file for writing: " << path
              << '\n';
    return;
  }
  obs::JsonObj doc;
  doc.Field("schema", obs::kTelemetrySchemaVersion)
      .Field("tool", "sea_solve")
      .Field("mode", mode)
      .Field("error", error)
      .Raw("metrics", obs::ToJson(metrics.Snapshot()));
  f << doc.Str() << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) Usage(argv[0], "unexpected argument '" + key + "'");
    key = key.substr(2);
    if (SwitchFlags().count(key)) {
      args[key] = "1";
    } else if (ValueFlags().count(key)) {
      if (i + 1 >= argc) Usage(argv[0], "missing value for --" + key);
      args[key] = argv[++i];
    } else {
      Usage(argv[0], "unknown flag --" + key);
    }
  }

  const std::string mode = args.count("mode") ? args["mode"] : "";
  if (!args.count("matrix") ||
      (mode != "fixed" && mode != "elastic" && mode != "interval" &&
       mode != "sam" && mode != "check"))
    Usage(argv[0]);

  // CI fault injection (docs/ROBUSTNESS.md): arm any failpoints named in
  // the SEA_FAILPOINTS environment variable before the solve starts.
  if (const std::size_t armed = fail::ArmFromEnv(); armed > 0)
    std::cerr << "note: armed " << armed
              << " failpoint(s) from SEA_FAILPOINTS\n";

  // The registry outlives the try block so failure paths can still flush
  // the solver.status.* counters recorded before the exit.
  obs::MetricsRegistry metrics;

  // Wide-event solve log (docs/OBSERVABILITY.md): exactly one line per
  // invocation, whatever the exit path. The event accumulates fields as
  // they become known; EmitWideEvent stamps wall/cpu/RSS and appends once.
  Stopwatch invocation_clock;
  obs::SolveLogWriter solve_log(
      args.count("solve-log") ? args["solve-log"] : "");
  obs::SolveWideEvent wide;
  wide.mode = mode;
  bool wide_emitted = false;
  const auto emit_wide_event = [&](const std::string& status, int exit_code,
                                   const std::string& error) {
    if (wide_emitted) return;
    wide_emitted = true;
    wide.status = status;
    wide.exit_code = exit_code;
    wide.error = error;
    // The engine stamps solve-only timings; invocation totals cover IO and
    // failure paths that never reached the engine.
    if (wide.wall_seconds == 0.0)
      wide.wall_seconds = invocation_clock.Seconds();
    if (wide.cpu_seconds == 0.0) wide.cpu_seconds = ProcessCpuSeconds();
    wide.peak_rss_bytes = support::PeakRssBytes();
    if (!solve_log.Emit(wide))
      std::cerr << "warning: could not append solve log to "
                << solve_log.path() << '\n';
  };
  const bool want_metrics_json = args.count("metrics-json") > 0;
  const bool want_metrics_prom = args.count("metrics-prom") > 0;
  const auto flush_failure_metrics = [&](const std::string& error) {
    if (want_metrics_json)
      WriteFailureMetrics(args["metrics-json"], mode, error, metrics);
    if (want_metrics_prom) {
      std::ofstream pf(args["metrics-prom"]);
      if (pf.good()) metrics.WritePrometheus(pf);
    }
  };

  try {
    const DenseMatrix x0 = ReadMatrixCsv(args["matrix"]);
    wide.rows = static_cast<std::uint64_t>(x0.rows());
    wide.cols = static_cast<std::uint64_t>(x0.cols());

    if (mode == "check") {
      if (!args.count("row-totals") || !args.count("col-totals"))
        Usage(argv[0]);
      const Vector s0 = ReadTotals(args["row-totals"]);
      const Vector d0 = ReadTotals(args["col-totals"]);
      const auto rep =
          CheckPatternFeasibility(SparseMatrix::FromDense(x0), s0, d0);
      std::cout << "support:        " << SparseMatrix::FromDense(x0).nnz()
                << " of " << x0.size() << " cells\n"
                << "required flow:  " << rep.required << '\n'
                << "max flow:       " << rep.max_flow << '\n'
                << "feasible:       " << (rep.feasible ? "yes" : "NO") << '\n';
      if (!rep.feasible) {
        std::cout << "violated cut:   rows {";
        for (std::size_t i : rep.deficient_rows) std::cout << ' ' << i;
        std::cout << " } feed only columns {";
        for (std::size_t j : rep.reachable_cols) std::cout << ' ' << j;
        std::cout << " }\n";
      }
      const int code = rep.feasible ? 0 : ExitCodeFor(SolveStatus::kInfeasible);
      emit_wide_event(rep.feasible ? "feasible" : "infeasible", code, "");
      return code;
    }

    const std::string scheme =
        args.count("weights") ? args["weights"] : "chi2";
    DenseMatrix gamma;
    if (scheme == "chi2") {
      gamma = sea::datasets::ChiSquareWeights(x0);
    } else if (scheme == "unit") {
      gamma = sea::datasets::UnitWeights(x0.rows(), x0.cols());
    } else if (scheme == "sqrt") {
      gamma = sea::datasets::SqrtWeights(x0);
    } else {
      Usage(argv[0], "unknown weights scheme '" + scheme + "'");
    }

    DiagonalProblem problem;
    if (mode == "sam") {
      if (!args.count("totals")) Usage(argv[0]);
      Vector t = ReadTotals(args["totals"]);
      Vector alpha(t.size());
      for (std::size_t i = 0; i < t.size(); ++i)
        alpha[i] = 1.0 / std::max(t[i], 1e-3);
      problem = DiagonalProblem::MakeSam(x0, gamma, t, alpha);
    } else {
      if (!args.count("row-totals") || !args.count("col-totals"))
        Usage(argv[0]);
      Vector s0 = ReadTotals(args["row-totals"]);
      Vector d0 = ReadTotals(args["col-totals"]);
      if (mode == "fixed") {
        // Pre-flight on the raw parts (the constructor throws on the first
        // defect; the report lists all of them): shape, signs, Σs = Σd, and
        // zero-support rows/columns, per the paper's Section 3 feasibility
        // conditions.
        const ValidationReport preflight =
            ValidateProblem(x0, gamma, s0, d0);
        if (!preflight.ok()) {
          std::cerr << "infeasible problem ("
                    << preflight.diagnoses.size() << " diagnos"
                    << (preflight.diagnoses.size() == 1 ? "is" : "es")
                    << "):\n"
                    << preflight.Summary() << '\n';
          metrics
              .GetCounter(std::string("solver.status.") +
                          ToString(SolveStatus::kInfeasible))
              .Add(1);
          flush_failure_metrics("preflight infeasible");
          emit_wide_event(ToString(SolveStatus::kInfeasible),
                          ExitCodeFor(SolveStatus::kInfeasible),
                          "preflight infeasible");
          return ExitCodeFor(SolveStatus::kInfeasible);
        }
        problem = DiagonalProblem::MakeFixed(x0, gamma, s0, d0);
      } else if (mode == "elastic") {
        problem = DiagonalProblem::MakeElastic(
            x0, gamma, s0, Vector(s0.size(), 1.0), d0,
            Vector(d0.size(), 1.0));
      } else {  // interval: totals elastic within +-slack box bounds
        const double slack =
            args.count("slack") ? ParseDouble(args["slack"], "--slack")
                                : 0.05;
        if (slack < 0.0) Usage(argv[0], "--slack must be nonnegative");
        Vector s_lo = s0, s_hi = s0, d_lo = d0, d_hi = d0;
        for (std::size_t i = 0; i < s0.size(); ++i) {
          s_lo[i] = (1.0 - slack) * s0[i];
          s_hi[i] = (1.0 + slack) * s0[i];
        }
        for (std::size_t j = 0; j < d0.size(); ++j) {
          d_lo[j] = (1.0 - slack) * d0[j];
          d_hi[j] = (1.0 + slack) * d0[j];
        }
        problem = DiagonalProblem::MakeInterval(
            x0, gamma, s0, Vector(s0.size(), 1.0), std::move(s_lo),
            std::move(s_hi), d0, Vector(d0.size(), 1.0), std::move(d_lo),
            std::move(d_hi));
      }
    }

    SeaOptions opts;
    opts.epsilon = args.count("epsilon")
                       ? ParseDouble(args["epsilon"], "--epsilon")
                       : 1e-6;
    const std::string crit =
        args.count("criterion") ? args["criterion"] : "rel";
    if (crit == "rel") {
      opts.criterion = StopCriterion::kResidualRel;
    } else if (crit == "abs") {
      opts.criterion = StopCriterion::kResidualAbs;
    } else if (crit == "xchange") {
      opts.criterion = StopCriterion::kXChange;
    } else {
      Usage(argv[0], "unknown criterion '" + crit + "'");
    }
    if (args.count("check-every")) {
      opts.check_every = ParseSize(args["check-every"], "--check-every");
      if (opts.check_every == 0) Usage(argv[0], "--check-every must be >= 1");
    }
    if (args.count("max-iters")) {
      opts.max_iterations = ParseSize(args["max-iters"], "--max-iters");
      if (opts.max_iterations == 0) Usage(argv[0], "--max-iters must be >= 1");
    }
    if (args.count("stall-checks"))
      opts.stall_checks = ParseSize(args["stall-checks"], "--stall-checks");
    if (args.count("time-budget")) {
      opts.time_budget_seconds =
          ParseDouble(args["time-budget"], "--time-budget");
      if (opts.time_budget_seconds <= 0.0)
        Usage(argv[0], "--time-budget must be positive");
    }
    if (args.count("progress")) {
      opts.progress = [](const IterationEvent& ev) {
        std::cout << "progress: iter=" << ev.iteration << " residual=";
        if (ev.measure_defined) {
          std::cout << ev.measure;
        } else {
          std::cout << "n/a";
        }
        if (ev.converged) std::cout << " (converged)";
        std::cout << '\n';
      };
    }
    const std::size_t threads =
        args.count("threads") ? ParseSize(args["threads"], "--threads") : 1;
    ThreadPool pool(threads);
    if (threads > 1) opts.pool = &pool;
    const std::string schedule =
        args.count("schedule") ? args["schedule"] : "static";
    if (schedule == "static") {
      opts.sweep_schedule = ScheduleKind::kStatic;
    } else if (schedule == "cost") {
      opts.sweep_schedule = ScheduleKind::kCostGuided;
    } else if (schedule == "dynamic") {
      opts.sweep_schedule = ScheduleKind::kDynamic;
    } else {
      Usage(argv[0], "unknown schedule '" + schedule + "'");
    }
    if (args.count("grain"))
      opts.sweep_grain = ParseSize(args["grain"], "--grain");
    const std::string sort = args.count("sort") ? args["sort"] : "auto";
    if (sort == "auto") {
      opts.sort_policy = SortPolicy::kAuto;
    } else if (sort == "insertion") {
      opts.sort_policy = SortPolicy::kInsertion;
    } else if (sort == "heapsort") {
      opts.sort_policy = SortPolicy::kHeapsort;
    } else if (sort == "reuse") {
      opts.sort_policy = SortPolicy::kReuse;
    } else {
      Usage(argv[0], "unknown sort policy '" + sort + "'");
    }

    // Opt-in telemetry: structured trace + metrics registry + pool stats.
    std::unique_ptr<obs::JsonlTraceSink> trace_sink;
    if (args.count("trace-jsonl")) {
      trace_sink = std::make_unique<obs::JsonlTraceSink>(args["trace-jsonl"]);
      opts.trace_sink = trace_sink.get();
    }
    if (want_metrics_json || want_metrics_prom) {
      opts.metrics = &metrics;
      pool.EnableStats(true);
    }

    // Convergence forensics: per-market attribution table, guardrail flight
    // recorder, and live status snapshot — pay-for-use, wired on request.
    obs::MarketAttribution attribution;
    if (args.count("attribution-json")) opts.attribution = &attribution;
    obs::FlightRecorder recorder;
    if (args.count("postmortem-json")) {
      recorder.SetDumpPath(args["postmortem-json"]);
      opts.flight_recorder = &recorder;
    }
    // --listen implies a (possibly path-less) status writer: /statusz
    // serves its latest snapshot without requiring --status-file.
    std::unique_ptr<obs::StatusFileWriter> status_writer;
    if (args.count("status-file") || args.count("listen")) {
      status_writer = std::make_unique<obs::StatusFileWriter>(
          args.count("status-file") ? args["status-file"] : std::string(),
          opts.epsilon);
      opts.status_file = status_writer.get();
    }

    // Durability + self-healing (docs/ROBUSTNESS.md): checkpoint cadence,
    // resume restore (validated against the problem before the solve sees
    // it), and the recovery ladder.
    std::unique_ptr<CheckpointWriter> checkpoint_writer;
    if (args.count("checkpoint")) {
      std::uint64_t every = 1;
      if (args.count("checkpoint-every")) {
        every = ParseSize(args["checkpoint-every"], "--checkpoint-every");
        if (every == 0) Usage(argv[0], "--checkpoint-every must be >= 1");
      }
      checkpoint_writer =
          std::make_unique<CheckpointWriter>(args["checkpoint"], every);
      opts.checkpoint = checkpoint_writer.get();
    } else if (args.count("checkpoint-every")) {
      Usage(argv[0], "--checkpoint-every requires --checkpoint");
    }
    CheckpointState resume_state;
    if (args.count("resume")) {
      CheckpointLoadResult loaded = LoadCheckpoint(args["resume"]);
      std::optional<Diagnosis> bad = std::move(loaded.diagnosis);
      if (!bad.has_value())
        bad = ValidateCheckpointFor(loaded.state, FingerprintProblem(problem),
                                    problem.m(), problem.n(), opts.criterion);
      if (bad.has_value()) {
        std::cerr << "error: cannot resume from " << args["resume"] << ": "
                  << ToString(bad->code) << ": " << bad->message << '\n';
        flush_failure_metrics("resume rejected: " + bad->message);
        emit_wide_event("error", 3, "resume rejected: " + bad->message);
        return 3;
      }
      resume_state = std::move(loaded.state);
      opts.resume = &resume_state;
    }
    if (args.count("recover")) opts.recover = true;
    if (args.count("recovery-retries"))
      opts.recovery_retries =
          ParseSize(args["recovery-retries"], "--recovery-retries");

    // Ctrl-C / kill become a clean guardrail exit instead of an abort: the
    // handler trips the cancel token, the engine stops at the next check,
    // and every flush below (final checkpoint, metrics, postmortem) runs.
    opts.cancel = &g_cancel;
    std::signal(SIGINT, OnTerminationSignal);
    std::signal(SIGTERM, OnTerminationSignal);

    // Wide-event identity: the configuration fields plus an FNV-1a
    // fingerprint over everything that affects the numerics — equal
    // fingerprints mean comparable rows in fleet-level queries.
    wide.epsilon = opts.epsilon;
    wide.criterion = ToString(opts.criterion);
    wide.threads = static_cast<std::uint64_t>(threads);
    wide.schedule = schedule;
    wide.sort = sort;
    wide.resumed = opts.resume != nullptr;
    {
      support::Fnv1a fp;
      const auto mix_str = [&fp](const std::string& s) {
        fp.MixU64(s.size());
        fp.MixBytes(s.data(), s.size());
      };
      mix_str(mode);
      mix_str(scheme);
      mix_str(ToString(opts.criterion));
      mix_str(schedule);
      mix_str(sort);
      fp.MixBytes(&opts.epsilon, sizeof(opts.epsilon));
      fp.MixU64(static_cast<std::uint64_t>(opts.check_every));
      fp.MixU64(static_cast<std::uint64_t>(opts.max_iterations));
      fp.MixU64(static_cast<std::uint64_t>(opts.stall_checks));
      fp.MixU64(static_cast<std::uint64_t>(threads));
      fp.MixU64(static_cast<std::uint64_t>(opts.sweep_grain));
      fp.MixU64(opts.recover ? 1 : 0);
      fp.MixU64(static_cast<std::uint64_t>(opts.recovery_retries));
      wide.options_fingerprint = fp.value();
    }

    // Live telemetry plane: background sampler feeding ring time series +
    // embedded loopback HTTP server. The handlers only touch internally
    // synchronized telemetry (registry snapshots, sampler rings, the
    // status writer's latest snapshot) — never the solve state — which is
    // why sampler on/off cannot change solver results.
    std::unique_ptr<obs::MetricsSampler> sampler;
    std::unique_ptr<net::HttpServer> server;
    if (args.count("listen")) {
      opts.metrics = &metrics;  // rates need a populated registry
      pool.EnableStats(true);
      obs::SamplerOptions sampler_opts;
      if (args.count("sample-interval-ms")) {
        sampler_opts.interval_ms =
            ParseDouble(args["sample-interval-ms"], "--sample-interval-ms");
        if (!(sampler_opts.interval_ms > 0.0))
          Usage(argv[0], "--sample-interval-ms must be positive");
      }
      sampler = std::make_unique<obs::MetricsSampler>(&metrics, sampler_opts);
      sampler->Start();

      const std::size_t port = ParseSize(args["listen"], "--listen");
      if (port > 65535) Usage(argv[0], "--listen port must be <= 65535");
      server =
          std::make_unique<net::HttpServer>(/*handler_threads=*/2, &g_cancel);
      server->Handle("/healthz", [](const net::HttpRequest&) {
        net::HttpResponse resp;
        resp.body = "ok\n";
        return resp;
      });
      server->Handle("/metrics", [&metrics](const net::HttpRequest&) {
        net::HttpResponse resp;
        resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
        std::ostringstream out;
        metrics.WritePrometheus(out);
        resp.body = out.str();
        return resp;
      });
      server->Handle("/statusz",
                     [status = status_writer.get()](const net::HttpRequest&) {
                       net::HttpResponse resp;
                       resp.content_type = "application/json";
                       resp.body = status->LatestJson() + "\n";
                       return resp;
                     });
      server->Handle(
          "/timeseries",
          [rings = sampler.get()](const net::HttpRequest& req) {
            net::HttpResponse resp;
            resp.content_type = "application/json";
            const std::string metric = req.Param("metric");
            if (metric.empty()) {
              resp.body = rings->SeriesIndexJson() + "\n";
              return resp;
            }
            std::size_t last = 0;
            try {
              last = ParseSize(req.Param("last", "0"), "last");
            } catch (const std::exception&) {
              resp.status = 400;
              resp.body = "{\"error\":\"malformed 'last' parameter\"}\n";
              return resp;
            }
            resp.body = rings->TimeSeriesJson(metric, last) + "\n";
            return resp;
          });
      // /varz is immutable for the process lifetime: render once.
      const std::string varz =
          obs::JsonObj()
              .Field("schema", obs::kTelemetrySchemaVersion)
              .Field("type", "varz")
              .Field("tool", "sea_solve")
              .Field("git_sha", SEA_GIT_SHA)
              .Field("build_type", SEA_BUILD_TYPE)
              .Field("mode", mode)
              .Field("weights", scheme)
              .Field("epsilon", opts.epsilon)
              .Field("criterion", ToString(opts.criterion))
              .Field("threads", static_cast<std::uint64_t>(threads))
              .Field("schedule", schedule)
              .Field("sort", sort)
              .Field("sample_interval_ms", sampler_opts.interval_ms)
              .Str();
      server->Handle("/varz", [varz](const net::HttpRequest&) {
        net::HttpResponse resp;
        resp.content_type = "application/json";
        resp.body = varz + "\n";
        return resp;
      });
      std::string bind_error;
      if (!server->Start(static_cast<std::uint16_t>(port), &bind_error))
        throw InvalidArgument("cannot start telemetry server: " + bind_error);
      wide.listen_port = server->port();
      std::cerr << "telemetry: listening on http://127.0.0.1:"
                << server->port() << '\n';
      if (args.count("listen-port-file")) {
        support::AtomicFileWriter port_writer;
        const std::uint16_t bound = server->port();
        if (!port_writer.Write(args["listen-port-file"],
                               [bound](std::ostream& f) { f << bound << '\n'; }))
          std::cerr << "warning: could not write port file "
                    << args["listen-port-file"] << '\n';
      }
    }

    // Profiler: attached for the solve only, so the trace/summary covers
    // exactly the algorithm (docs/OBSERVABILITY.md, "Profiling").
    const bool profiling =
        args.count("profile-json") || args.count("profile-summary");
    obs::Profiler profiler;
    if (profiling) profiler.Attach();

    const auto run = SolveDiagonal(problem, opts);

    if (profiling) profiler.Detach();
    // Telemetry-plane shutdown, in dependency order: the engine has just
    // recorded its result metrics, so the sampler's terminal sample (taken
    // by Stop) captures them; the server stops after, once the final
    // /statusz and /timeseries states exist. Exceptional exits run the
    // same joins via the destructors.
    if (sampler) sampler->Stop();
    if (server) server->Stop();
    const auto rep = CheckFeasibility(problem, run.solution);

    wide.iterations = static_cast<std::uint64_t>(run.result.iterations);
    wide.checks_compared =
        static_cast<std::uint64_t>(run.result.checks_compared);
    wide.final_residual = run.result.final_residual;
    wide.objective = run.result.objective;
    wide.feasibility_max_abs = rep.MaxAbs();
    wide.feasibility_max_rel = rep.MaxRel();
    wide.wall_seconds = run.result.wall_seconds;
    wide.cpu_seconds = run.result.cpu_seconds;
    wide.row_phase_seconds = run.result.row_phase_seconds;
    wide.col_phase_seconds = run.result.col_phase_seconds;
    wide.check_phase_seconds = run.result.check_phase_seconds;
    wide.recoveries = run.result.recovered_count;
    wide.recovery_rungs = run.result.recovery_rungs;

    std::cout << "mode:           " << mode << " (" << x0.rows() << " x "
              << x0.cols() << ", weights: " << scheme << ")\n"
              << "status:         " << ToString(run.result.status) << '\n'
              << "converged:      " << (run.result.converged() ? "yes" : "NO")
              << " in " << run.result.iterations << " iterations\n"
              << "final measure:  " << run.result.final_residual << " ("
              << ToString(opts.criterion) << ")\n"
              << "objective:      " << run.result.objective << '\n'
              << "max residual:   " << rep.MaxAbs() << " (abs), "
              << rep.MaxRel() << " (rel)\n"
              << "cpu seconds:    " << run.result.cpu_seconds << '\n';

    if (opts.resume != nullptr)
      std::cout << "resumed:        " << args["resume"] << " (from iteration "
                << resume_state.iteration << ")\n";
    if (run.result.recovered_count > 0) {
      std::cout << "recoveries:     " << run.result.recovered_count
                << " (rungs:";
      for (std::uint8_t rung : run.result.recovery_rungs)
        std::cout << ' ' << static_cast<unsigned>(rung);
      std::cout << ")\n";
    }
    if (checkpoint_writer) {
      std::cout << "checkpoint:     " << checkpoint_writer->path() << " ("
                << checkpoint_writer->writes() << " writes";
      if (checkpoint_writer->write_failures() > 0)
        std::cout << ", " << checkpoint_writer->write_failures()
                  << " failures";
      std::cout << ")\n";
    }

    if (profiling) {
      const auto spans = obs::ToRawSpans(profiler.Events());
      if (args.count("profile-summary")) {
        std::cout << '\n';
        obs::PrintProfileSummary(std::cout, obs::SummarizeSpans(spans),
                                 run.result.wall_seconds);
      }
      if (args.count("profile-json")) {
        // Fail-soft: a trace-write failure degrades the export, never the
        // solve or its exit code (docs/ROBUSTNESS.md).
        if (obs::WriteChromeTrace(args["profile-json"], spans, "sea_solve")) {
          std::cout << "profile trace:  " << args["profile-json"] << " ("
                    << spans.size() << " spans, " << profiler.thread_count()
                    << " threads)\n";
        } else {
          std::cerr << "warning: could not write profile trace to "
                    << args["profile-json"] << '\n';
        }
      }
      if (profiler.dropped() > 0)
        std::cerr << "warning: profiler dropped " << profiler.dropped()
                  << " spans (per-thread buffer cap)\n";
    }

    if (trace_sink) {
      trace_sink->Flush();
      std::cout << "trace jsonl:    " << args["trace-jsonl"] << " ("
                << trace_sink->events_written() << " events)\n";
    }
    if (args.count("attribution-json")) {
      // Fail-soft like the profile export: a write failure degrades the
      // forensics output, never the solve or its exit code.
      if (attribution.WriteJsonl(args["attribution-json"], opts.epsilon,
                                 ToString(opts.criterion))) {
        std::cout << "attribution:    " << args["attribution-json"] << " ("
                  << attribution.checks().size() << " checks, "
                  << attribution.markets() << " markets)\n";
      } else {
        std::cerr << "warning: could not write attribution to "
                  << args["attribution-json"] << '\n';
      }
    }
    if (status_writer && !status_writer->path().empty())
      std::cout << "status file:    " << status_writer->path() << " ("
                << status_writer->writes() << " writes)\n";
    if (server)
      std::cout << "telemetry:      http://127.0.0.1:" << server->port()
                << " (" << server->requests_ok() << " ok, "
                << server->requests_error() << " error, "
                << sampler->samples_taken() << " samples)\n";
    if (!solve_log.path().empty())
      std::cout << "solve log:      " << solve_log.path() << '\n';
    if (opts.flight_recorder != nullptr && recorder.dumped())
      std::cout << "postmortem:     " << args["postmortem-json"] << " ("
                << recorder.recorded() << " events recorded)\n";
    if (want_metrics_json || want_metrics_prom)
      obs::RecordPoolMetrics(metrics, pool.Stats());
    if (want_metrics_json) {
      std::ofstream f(args["metrics-json"]);
      SEA_CHECK_MSG(f.good(), "cannot open metrics file for writing: " +
                                  args["metrics-json"]);
      obs::JsonObj doc;
      doc.Field("schema", obs::kTelemetrySchemaVersion)
          .Field("tool", "sea_solve")
          .Field("mode", mode)
          .Field("rows", static_cast<std::uint64_t>(x0.rows()))
          .Field("cols", static_cast<std::uint64_t>(x0.cols()))
          .Field("weights", scheme)
          .Field("epsilon", opts.epsilon)
          .Field("criterion", ToString(opts.criterion))
          .Field("threads", static_cast<std::uint64_t>(threads))
          .Field("schedule", schedule)
          .Field("sort", sort)
          .Raw("result", obs::ToJson(run.result))
          .Raw("feasibility", obs::JsonObj()
                                  .Field("max_abs", rep.MaxAbs())
                                  .Field("max_rel", rep.MaxRel())
                                  .Str())
          .Raw("metrics", obs::ToJson(metrics.Snapshot()))
          .Raw("pool", obs::ToJson(pool.Stats()));
      f << doc.Str() << '\n';
      std::cout << "metrics json:   " << args["metrics-json"] << '\n';
    }
    if (want_metrics_prom) {
      std::ofstream pf(args["metrics-prom"]);
      SEA_CHECK_MSG(pf.good(), "cannot open prometheus file for writing: " +
                                   args["metrics-prom"]);
      metrics.WritePrometheus(pf);
      std::cout << "metrics prom:   " << args["metrics-prom"] << '\n';
    }

    if (args.count("out")) {
      WriteMatrixCsv(args["out"], run.solution.x);
      std::cout << "estimate:       " << args["out"] << '\n';
    }
    emit_wide_event(ToString(run.result.status),
                    ExitCodeFor(run.result.status), "");
    return ExitCodeFor(run.result.status);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    flush_failure_metrics(e.what());
    emit_wide_event("error", 3, e.what());
    return 3;
  }
}
