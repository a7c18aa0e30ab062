// serve_load — load generator and latency bench for the sea_serve daemon
// (docs/SERVING.md, "Load testing").
//
// Replays a deterministic mixed request script against a running daemon:
//
//   * cold    — unique problems (fresh centers => fresh structure), the
//               cache can never help;
//   * repeat  — byte-identical re-submissions of a base problem, served by
//               the exact tier (zero-iteration replay);
//   * perturb — the base structure with rescaled totals, served by the
//               nearby tier (warm-started solve).
//
// The mix is interleaved round-robin across --threads client connections,
// per-request latency is recorded, and the run appends ONE JSONL line to
// --json (default BENCH_serve.json; schema 5, same record shape as the
// bench/ documents so tools/bench_diff gates trajectories): p50/p95/p99
// latency, sustained requests/second, cache hit rate, error count.
//
// Exit codes: 0 all requests answered 2xx, 1 any error/shed response,
// 2 usage, 3 cannot reach the daemon.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/http_client.hpp"
#include "obs/bench_reader.hpp"
#include "obs/json_export.hpp"
#include "problems/diagonal_problem.hpp"
#include "serve/protocol.hpp"
#include "support/rng.hpp"

namespace {

using namespace sea;

[[noreturn]] void Usage(const char* argv0, const std::string& why = "") {
  if (!why.empty()) std::cerr << "error: " << why << '\n';
  std::cerr
      << "usage: " << argv0 << " [options]\n"
      << "  --port <port>          daemon port (or --port-file)\n"
      << "  --port-file <path>     read the port from a --listen-port-file\n"
      << "  --requests <n>         total requests (default 2000)\n"
      << "  --threads <n>          client threads (default 4)\n"
      << "  --rows <m> --cols <n>  problem shape (default 12x12)\n"
      << "  --repeat-pct <p>       exact repeats, percent (default 40)\n"
      << "  --perturb-pct <p>      perturbed totals, percent (default 40)\n"
      << "  --epsilon <eps>        request tolerance (default 1e-6)\n"
      << "  --json <path>          bench JSONL out (default "
         "BENCH_serve.json)\n"
      << "  --json-truncate        start the JSON file fresh\n"
      << "  --quick                small preset (200 requests)\n";
  std::exit(2);
}

std::size_t ParseSize(const std::string& s, const char* flag) {
  try {
    std::size_t pos = 0;
    const unsigned long long v = std::stoull(s, &pos);
    if (pos != s.size()) throw std::invalid_argument(s);
    return static_cast<std::size_t>(v);
  } catch (const std::exception&) {
    std::cerr << "error: malformed number '" << s << "' for " << flag << '\n';
    std::exit(2);
  }
}

double ParseDouble(const std::string& s, const char* flag) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(s, &pos);
    if (pos != s.size()) throw std::invalid_argument(s);
    return v;
  } catch (const std::exception&) {
    std::cerr << "error: malformed number '" << s << "' for " << flag << '\n';
    std::exit(2);
  }
}

// Deterministic fixed-mode problem: positive centers, unit-ish weights,
// consistent totals derived from the centers (always feasible).
DiagonalProblem MakeProblem(std::size_t m, std::size_t n, std::uint64_t seed,
                            double totals_scale) {
  Rng rng(seed);
  DenseMatrix x0(m, n);
  DenseMatrix gamma(m, n);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      x0(i, j) = rng.Uniform(1.0, 10.0);
      gamma(i, j) = rng.Uniform(0.5, 2.0);
    }
  Vector s0 = x0.RowSums();
  Vector d0(n, 0.0);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) d0[j] += x0(i, j);
  // Scaling both sides by the same factor keeps sum(s0) == sum(d0), so a
  // perturbed request is still feasible — it just has different totals
  // (same structure fingerprint, different exact fingerprint).
  for (double& v : s0) v *= totals_scale;
  for (double& v : d0) v *= totals_scale;
  return DiagonalProblem::MakeFixed(std::move(x0), std::move(gamma),
                                    std::move(s0), std::move(d0));
}

struct RequestResult {
  double seconds = 0.0;
  int status = 0;
  std::string cache_tier;
  bool ok = false;
};

std::string TimestampUtc() {
  char buf[32];
  const std::time_t now = std::time(nullptr);
  std::tm tm_utc{};
  gmtime_r(&now, &tm_utc);
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
  return buf;
}

double Percentile(std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  bool quick = false, json_truncate = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--quick") {
      quick = true;
    } else if (flag == "--json-truncate") {
      json_truncate = true;
    } else if (flag.rfind("--", 0) == 0) {
      if (i + 1 >= argc) Usage(argv[0], flag + " needs a value");
      args[flag.substr(2)] = argv[++i];
    } else {
      Usage(argv[0], "unexpected operand " + flag);
    }
  }
  const auto arg = [&args](const char* key) { return args.count(key) != 0; };

  std::size_t port = 0;
  if (arg("port")) {
    port = ParseSize(args["port"], "--port");
  } else if (arg("port-file")) {
    std::ifstream in(args["port-file"]);
    if (!(in >> port)) {
      std::cerr << "error: cannot read port from " << args["port-file"]
                << '\n';
      return 3;
    }
  } else {
    Usage(argv[0], "need --port or --port-file");
  }
  if (port == 0 || port > 65535) Usage(argv[0], "port out of range");

  const std::size_t total =
      arg("requests") ? ParseSize(args["requests"], "--requests")
                      : (quick ? 200 : 2000);
  const std::size_t threads =
      arg("threads") ? ParseSize(args["threads"], "--threads") : 4;
  const std::size_t m = arg("rows") ? ParseSize(args["rows"], "--rows") : 12;
  const std::size_t n = arg("cols") ? ParseSize(args["cols"], "--cols") : 12;
  const std::size_t repeat_pct =
      arg("repeat-pct") ? ParseSize(args["repeat-pct"], "--repeat-pct") : 40;
  const std::size_t perturb_pct =
      arg("perturb-pct") ? ParseSize(args["perturb-pct"], "--perturb-pct")
                         : 40;
  if (repeat_pct + perturb_pct > 100)
    Usage(argv[0], "--repeat-pct + --perturb-pct must be <= 100");
  const double epsilon =
      arg("epsilon") ? ParseDouble(args["epsilon"], "--epsilon") : 1e-6;
  const std::string json_path =
      arg("json") ? args["json"] : "BENCH_serve.json";
  if (total == 0 || threads == 0 || m == 0 || n == 0)
    Usage(argv[0], "counts must be positive");

  // Reachability probe before spawning the fleet.
  {
    const auto health = net::HttpGet("127.0.0.1",
                                     static_cast<std::uint16_t>(port),
                                     "/healthz");
    if (!health.ok || health.status != 200) {
      std::cerr << "error: daemon unreachable on port " << port << ": "
                << (health.ok ? "status " + std::to_string(health.status)
                              : health.error)
                << '\n';
      return 3;
    }
  }

  // Pre-encode the script: request i is repeat / perturb / cold by its
  // residue mod 100 — a fixed interleave, so every run of the same flags
  // replays the identical byte stream.
  // Totals are scaled away from the centers' own row sums so every solve
  // does real work (scale 1.0 would make x = x0 optimal immediately).
  serve::SolveRequest base;
  base.problem = MakeProblem(m, n, /*seed=*/42, /*totals_scale=*/1.1);
  base.epsilon = epsilon;
  const std::string base_frame = serve::EncodeRequestFrame(base);

  std::vector<std::string> frames(total);
  std::vector<int> kinds(total);  // 0 = cold, 1 = repeat, 2 = perturb
  for (std::size_t i = 0; i < total; ++i) {
    const std::size_t r = i % 100;
    if (r < repeat_pct) {
      kinds[i] = 1;
      frames[i] = base_frame;
    } else if (r < repeat_pct + perturb_pct) {
      kinds[i] = 2;
      serve::SolveRequest req = base;
      // Distinct totals per request (the scale is strictly increasing in
      // i): same structure, a different exact key every time, so each one
      // is a nearby-tier warm start rather than an exact replay.
      req.problem = MakeProblem(
          m, n, /*seed=*/42,
          1.1 + 0.1 * static_cast<double>(i + 1) /
                    static_cast<double>(total + 1));
      frames[i] = serve::EncodeRequestFrame(req);
    } else {
      kinds[i] = 0;
      serve::SolveRequest req = base;
      req.problem = MakeProblem(m, n, /*seed=*/1000 + i, 1.1);
      frames[i] = serve::EncodeRequestFrame(req);
    }
  }

  std::vector<RequestResult> results(total);
  std::atomic<std::size_t> next{0};
  const auto worker = [&]() {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= total) return;
      const auto t0 = std::chrono::steady_clock::now();
      const auto fetched =
          net::HttpPost("127.0.0.1", static_cast<std::uint16_t>(port),
                        "/solve", frames[i]);
      auto& r = results[i];
      r.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
      r.status = fetched.status;
      r.ok = fetched.ok && fetched.status == 200;
      if (r.ok) {
        try {
          for (const auto& [key, value] :
               obs::JsonObjectFields(fetched.body)) {
            if (key == "cache_tier" && value.size() >= 2)
              r.cache_tier = value.substr(1, value.size() - 2);
          }
        } catch (const std::exception&) {
          r.ok = false;
        }
      }
    }
  };

  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::thread> fleet;
  for (std::size_t t = 0; t < threads; ++t) fleet.emplace_back(worker);
  for (auto& t : fleet) t.join();
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - wall_start)
                          .count();

  std::vector<double> lat;
  std::vector<double> lat_cold, lat_warmable;
  std::uint64_t errors = 0, exact = 0, warm = 0, cold = 0;
  for (std::size_t i = 0; i < total; ++i) {
    const auto& r = results[i];
    if (!r.ok) {
      ++errors;
      continue;
    }
    lat.push_back(r.seconds);
    if (kinds[i] == 0)
      lat_cold.push_back(r.seconds);
    else
      lat_warmable.push_back(r.seconds);
    if (r.cache_tier == "exact")
      ++exact;
    else if (r.cache_tier == "warm")
      ++warm;
    else
      ++cold;
  }
  std::sort(lat.begin(), lat.end());
  std::sort(lat_cold.begin(), lat_cold.end());
  std::sort(lat_warmable.begin(), lat_warmable.end());

  const double p50 = Percentile(lat, 0.50);
  const double p95 = Percentile(lat, 0.95);
  const double p99 = Percentile(lat, 0.99);
  const double rps = wall > 0.0 ? static_cast<double>(lat.size()) / wall : 0.0;
  const double hit_rate =
      lat.empty() ? 0.0
                  : static_cast<double>(exact + warm) /
                        static_cast<double>(lat.size());

  std::cout << "serve_load: " << total << " requests (" << m << "x" << n
            << "), " << threads << " threads\n"
            << "  answered:  " << lat.size() << " ok, " << errors
            << " errors\n"
            << "  tiers:     exact=" << exact << " warm=" << warm
            << " cold=" << cold << " (hit rate "
            << static_cast<int>(hit_rate * 100.0) << "%)\n"
            << "  latency:   p50=" << p50 * 1e3 << "ms p95=" << p95 * 1e3
            << "ms p99=" << p99 * 1e3 << "ms\n"
            << "  sustained: " << rps << " requests/sec over " << wall
            << "s\n";
  if (!lat_cold.empty() && !lat_warmable.empty())
    std::cout << "  p99 cold-only=" << Percentile(lat_cold, 0.99) * 1e3
              << "ms vs repeat/perturbed="
              << Percentile(lat_warmable, 0.99) * 1e3 << "ms\n";

  // One JSONL line, bench-diff comparable (metric names carry "seconds"
  // so latency regressions gate as lower-is-better).
  {
    const std::string dataset = std::to_string(m) + "x" + std::to_string(n);
    const auto record = [&dataset](const char* metric, double measured) {
      return obs::JsonObj()
          .Field("experiment", "serve_load")
          .Field("dataset", dataset)
          .Field("metric", metric)
          .Field("measured", measured)
          .Raw("paper", "null")
          .Field("note", "")
          .Str();
    };
    obs::JsonArr records;
    records.Raw(record("p50_seconds", p50))
        .Raw(record("p95_seconds", p95))
        .Raw(record("p99_seconds", p99))
        .Raw(record("p99_cold_seconds",
                    lat_cold.empty() ? 0.0 : Percentile(lat_cold, 0.99)))
        .Raw(record("p99_warmable_seconds",
                    lat_warmable.empty() ? 0.0
                                         : Percentile(lat_warmable, 0.99)))
        .Raw(record("requests_per_second", rps))
        .Raw(record("cache_hit_rate", hit_rate))
        .Raw(record("errors", static_cast<double>(errors)));
    const std::string doc =
        obs::JsonObj()
            .Field("schema", obs::kTelemetrySchemaVersion)
            .Field("bench", "serve")
            .Field("quick", quick)
            .Field("git_sha", SEA_GIT_SHA)
            .Field("build_type", SEA_BUILD_TYPE)
            .Field("timestamp", TimestampUtc())
            .Field("requests", static_cast<std::uint64_t>(total))
            .Field("threads", static_cast<std::uint64_t>(threads))
            .Field("wall_seconds", wall)
            .Raw("records", records.Str())
            .Str();
    std::ofstream out(json_path, json_truncate ? std::ios::trunc
                                               : std::ios::app);
    out << doc << '\n';
    if (!out) {
      std::cerr << "error: cannot write " << json_path << '\n';
      return 3;
    }
    std::cout << "  bench json: " << json_path << '\n';
  }

  return errors == 0 ? 0 : 1;
}
