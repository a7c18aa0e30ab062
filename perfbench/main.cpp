// perfbench — the repository benchmark binary (README.md in this
// directory). Runs one named workload from a seed for a number of seconds,
// checks every output, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics) as the last line of stdout.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>] [--sea-serve <path>]
//
// Exit codes: 0 result printed, 1 the workload could not run, 2 usage
// error.
#include <cstdlib>
#include <iostream>
#include <string>

#include "common.hpp"

namespace {

using namespace perfbench;

// Every workload reports all of these with --trace 0. success_rate is
// the complement of the failure rate, which is 0 on a healthy build.
// Serve latency goes to the context line instead (README.md says why).
const std::vector<std::pair<const char*, const char*>>& EndToEndMetrics() {
  static const std::vector<std::pair<const char*, const char*>> kMetrics = {
      {"solve_s", "s"},          {"cpu_s", "s"},
      {"setup_s", "s"},          {"peak_rss_mb", "MB"},
      {"success_rate", "ratio"}, {"capacity_rps", "1/s"},
  };
  return kMetrics;
}

[[noreturn]] void Usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload dense_fixed|spe_elastic|"
               "serve_mixed --seed <n> --seconds <s> "
               "--trace <0|1> [--out-dir <dir>] [--sea-serve <path>]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(flag + " needs a value");
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") args.workload = value;
      else if (flag == "--seed") args.seed = std::stoull(value);
      else if (flag == "--seconds") args.seconds = std::stod(value);
      else if (flag == "--trace") args.trace = std::stoi(value) != 0;
      else if (flag == "--out-dir") args.out_dir = value;
      else if (flag == "--sea-serve") args.sea_serve = value;
      else Usage("unknown flag " + flag);
    } catch (const std::exception&) {
      Usage("malformed value '" + value + "' for " + flag);
    }
  }
  if (!(args.seconds > 0.0)) Usage("--seconds must be positive");

  Report report;
  AddHostContext(report);
  int rc = 0;
  if (args.workload == "dense_fixed" || args.workload == "spe_elastic")
    rc = RunSolverWorkload(args, report);
  else if (args.workload == "serve_mixed")
    rc = RunServeWorkload(args, report);
  else
    Usage("unknown workload '" + args.workload + "'");
  if (rc != 0) return rc;  // the workload could not run; no result

  const auto& expected = args.trace ? PerLayerMetrics() : EndToEndMetrics();
  for (const auto& [name, unit] : expected)
    if (!report.HasMetric(name)) {
      if (!args.trace) report.Fail(std::string("missing metric ") + name);
      report.Metric(name, 0.0, unit);  // a layer this workload does not use
    }
  for (const std::string& name : report.UnknownMetrics(expected))
    report.Fail("unknown metric " + name);
  report.Print();
  return 0;
}
