// sea_serve — long-running batching solve daemon (docs/SERVING.md).
//
// Accepts solve requests over the embedded loopback HTTP server
// (POST /solve, binary frame or JSON — src/serve/protocol.hpp), multiplexes
// them across a bounded admission queue with graceful shedding, and
// warm-starts repeat/perturbed requests from a sharded LRU cache of
// converged multipliers (src/serve/warm_cache.hpp).
//
// Endpoints:
//   POST /solve     submit one problem; JSON reply (schema 5)
//   GET  /healthz   liveness ("ok")
//   GET  /varz      daemon identity + live serve/cache/admission counters
//   GET  /metrics   Prometheus text exposition of the metrics registry
//
// Lifecycle: SIGTERM/SIGINT begins a graceful drain — the listener stops
// accepting, queued waiters are answered 503, in-flight solves run to
// completion (bounded by their time budgets), then the process exits 0.
// A second signal trips the hard-abort token: in-flight solves return
// kCancelled at their next check iteration and the drain completes.
//
// Exit codes: 0 clean drain, 2 usage error, 3 startup failure.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "net/http_server.hpp"
#include "obs/json_export.hpp"
#include "obs/metrics.hpp"
#include "obs/solve_log.hpp"
#include "serve/admission.hpp"
#include "serve/protocol.hpp"
#include "serve/solve_service.hpp"
#include "serve/warm_cache.hpp"
#include "support/atomic_file.hpp"
#include "support/cancel.hpp"

namespace {

using namespace sea;

CancelToken g_term;   // first signal: graceful drain
CancelToken g_abort;  // second signal: cancel in-flight solves
std::atomic<int> g_signals{0};

void OnTerminationSignal(int) {
  const int n = g_signals.fetch_add(1) + 1;
  if (n == 1)
    g_term.Cancel();
  else
    g_abort.Cancel();
}

[[noreturn]] void Usage(const char* argv0, const std::string& why = "") {
  if (!why.empty()) std::cerr << "error: " << why << '\n';
  std::cerr
      << "usage: " << argv0 << " [options]\n"
      << "  --listen <port>            bind 127.0.0.1:<port> (default 0 = "
         "ephemeral)\n"
      << "  --listen-port-file <path>  write the bound port to <path>\n"
      << "  --handler-threads <n>      HTTP worker threads (default 4)\n"
      << "  --max-concurrent <n>       concurrent solves (default 4)\n"
      << "  --max-queued <n>           waiting requests before shedding "
         "(default 64)\n"
      << "  --cache-capacity <n>       warm-cache entries, 0 disables "
         "(default 1024)\n"
      << "  --cache-shards <n>         warm-cache shards (default 8)\n"
      << "  --max-body-bytes <n>       request-body cap (default 8 MiB)\n"
      << "  --max-time-budget <secs>   per-solve budget cap and default "
         "(default 30)\n"
      << "  --max-iters <n>            per-solve iteration cap (default "
         "200000)\n"
      << "  --solve-log <path>         append one wide event per request\n";
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

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0) Usage(argv[0], "unexpected operand " + flag);
    if (i + 1 >= argc) Usage(argv[0], flag + " needs a value");
    args[flag.substr(2)] = argv[++i];
  }
  const auto arg = [&args](const char* key) { return args.count(key) != 0; };

  std::size_t port = 0;
  if (arg("listen")) port = ParseSize(args["listen"], "--listen");
  if (port > 65535) Usage(argv[0], "--listen port must be <= 65535");
  const std::size_t handler_threads =
      arg("handler-threads") ? ParseSize(args["handler-threads"],
                                         "--handler-threads")
                             : 4;
  const std::size_t max_concurrent =
      arg("max-concurrent") ? ParseSize(args["max-concurrent"],
                                        "--max-concurrent")
                            : 4;
  const std::size_t max_queued =
      arg("max-queued") ? ParseSize(args["max-queued"], "--max-queued") : 64;
  const std::size_t cache_capacity =
      arg("cache-capacity") ? ParseSize(args["cache-capacity"],
                                        "--cache-capacity")
                            : 1024;
  const std::size_t cache_shards =
      arg("cache-shards") ? ParseSize(args["cache-shards"], "--cache-shards")
                          : 8;

  serve::ServiceLimits limits;
  limits.cancel = &g_abort;
  if (arg("max-time-budget")) {
    limits.max_time_budget_seconds =
        ParseDouble(args["max-time-budget"], "--max-time-budget");
    if (!(limits.max_time_budget_seconds > 0.0))
      Usage(argv[0], "--max-time-budget must be positive");
  }
  if (arg("max-iters"))
    limits.max_iterations = ParseSize(args["max-iters"], "--max-iters");

  obs::MetricsRegistry metrics;
  serve::WarmStartCache cache(cache_capacity, cache_shards);
  serve::AdmissionQueue admission(max_concurrent, max_queued);
  obs::SolveLogWriter solve_log(arg("solve-log") ? args["solve-log"] : "");
  serve::SolveService service(&cache, &metrics, &solve_log, limits);

  net::HttpServer server(handler_threads, &g_term);
  if (arg("max-body-bytes"))
    server.set_max_body_bytes(
        ParseSize(args["max-body-bytes"], "--max-body-bytes"));

  server.Handle("/healthz", [](const net::HttpRequest&) {
    net::HttpResponse resp;
    resp.body = "ok\n";
    return resp;
  });
  server.Handle("/metrics", [&metrics](const net::HttpRequest&) {
    net::HttpResponse resp;
    resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
    std::ostringstream out;
    metrics.WritePrometheus(out);
    resp.body = out.str();
    return resp;
  });
  // /varz is the operational snapshot the CI gauntlet asserts on: cache
  // hits prove warm starts happened, errors must stay zero.
  server.Handle("/varz", [&](const net::HttpRequest&) {
    const serve::WarmCacheStats stats = cache.Stats();
    net::HttpResponse resp;
    resp.content_type = "application/json";
    resp.body =
        obs::JsonObj()
            .Field("schema", obs::kTelemetrySchemaVersion)
            .Field("type", "varz")
            .Field("tool", "sea_serve")
            .Field("git_sha", SEA_GIT_SHA)
            .Field("build_type", SEA_BUILD_TYPE)
            .Field("requests", service.requests())
            .Field("errors", service.errors())
            .Field("cache_hits_exact", stats.hits_exact)
            .Field("cache_hits_nearby", stats.hits_nearby)
            .Field("cache_misses", stats.misses)
            .Field("cache_inserts", stats.inserts)
            .Field("cache_evictions", stats.evictions)
            .Field("cache_size", stats.size)
            .Field("cache_capacity",
                   static_cast<std::uint64_t>(cache_capacity))
            .Field("admitted", admission.admitted())
            .Field("shed", admission.shed())
            .Field("in_flight",
                   static_cast<std::uint64_t>(admission.in_flight()))
            .Field("peak_queued",
                   static_cast<std::uint64_t>(admission.peak_queued()))
            .Field("draining", admission.draining())
            .Str() +
        "\n";
    return resp;
  });
  server.HandlePost("/solve", [&](const net::HttpRequest& req) {
    net::HttpResponse resp;
    resp.content_type = "application/json";

    const auto queue_start = std::chrono::steady_clock::now();
    const auto outcome = admission.Acquire();
    const double queue_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      queue_start)
            .count();
    if (outcome != serve::AdmissionQueue::Outcome::kAdmitted) {
      resp.status = 503;
      resp.headers.push_back("Retry-After: 1");
      resp.body =
          outcome == serve::AdmissionQueue::Outcome::kShed
              ? "{\"error\":\"overloaded: admission queue full\"}\n"
              : "{\"error\":\"draining: daemon is shutting down\"}\n";
      return resp;
    }

    struct SlotGuard {
      serve::AdmissionQueue* q;
      ~SlotGuard() { q->Release(); }
    } guard{&admission};

    const serve::DecodedRequest decoded = serve::DecodeRequest(req.body);
    if (!decoded.ok()) {
      resp.status = 422;
      resp.body = obs::JsonObj().Field("error", decoded.error).Str() + "\n";
      return resp;
    }

    const serve::ServeOutcome out =
        service.Handle(decoded.request, queue_seconds);
    if (!out.ok) resp.status = 500;
    resp.body = serve::SolveService::RenderReplyJson(
                    out, decoded.request.want_multipliers) +
                "\n";
    return resp;
  });

  std::signal(SIGINT, OnTerminationSignal);
  std::signal(SIGTERM, OnTerminationSignal);

  std::string bind_error;
  if (!server.Start(static_cast<std::uint16_t>(port), &bind_error)) {
    std::cerr << "error: cannot start server: " << bind_error << '\n';
    return 3;
  }
  std::cerr << "sea_serve: listening on http://127.0.0.1:" << server.port()
            << " (concurrent=" << max_concurrent << " queued=" << max_queued
            << " cache=" << cache_capacity << ")\n";
  if (arg("listen-port-file")) {
    support::AtomicFileWriter port_writer;
    const std::uint16_t bound = server.port();
    if (!port_writer.Write(args["listen-port-file"],
                           [bound](std::ostream& f) { f << bound << '\n'; }))
      std::cerr << "warning: could not write port file "
                << args["listen-port-file"] << '\n';
  }

  // Serve until the first termination signal, then drain: stop admitting
  // (waiters wake to 503), let in-flight solves finish, stop the server.
  while (!g_term.cancelled())
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::cerr << "sea_serve: draining\n";
  admission.BeginDrain();
  admission.AwaitIdle();
  server.Stop();

  const serve::WarmCacheStats stats = cache.Stats();
  std::cerr << "sea_serve: drained: requests=" << service.requests()
            << " errors=" << service.errors()
            << " hits_exact=" << stats.hits_exact
            << " hits_nearby=" << stats.hits_nearby
            << " misses=" << stats.misses << " shed=" << admission.shed()
            << '\n';
  return 0;
}
