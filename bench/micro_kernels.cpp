// Microbenchmarks for the library's hot kernels, in two parts.
//
// 1. Full market pipeline timings (arc build + clearing solve + writeback)
//    across market sizes, cold kAuto and warm kReuse, plus the attribution
//    and sampler overhead records. Always runs and emits the bench schema v2
//    JSON (BENCH_micro_kernels.json) that tools/bench_diff tracks across
//    revisions. Accepts the standard bench flags (--quick/--csv/--json/...;
//    see bench_common.hpp).
//
// 2. The original google-benchmark suite (sort paths, row sweeps, dense
//    matvec — the quantities behind the paper's per-iteration cost model
//    N = T n^2 (9 + log n)). Runs only when a --benchmark* flag is passed
//    (e.g. --benchmark_filter=.*), keeping part 1 cheap for CI perf-smoke.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/diagonal_sea.hpp"
#include "datasets/large_diagonal.hpp"
#include "equilibration/breakpoint_solver.hpp"
#include "equilibration/equilibrator.hpp"
#include "io/table_printer.hpp"
#include "linalg/kernels.hpp"
#include "obs/market_stats.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"

namespace {

using namespace sea;

void FillArcs(std::vector<Arc>& arcs, std::size_t n, Rng& rng) {
  arcs.resize(n);
  for (auto& a : arcs)
    a = {rng.Uniform(-100.0, 100.0), rng.Uniform(0.01, 5.0)};
}

// ---------------------------------------------------------------------------
// Part 1: market pipeline timings (always runs; feeds bench_diff).

// One full market pipeline: arc build + clearing solve + allocation
// writeback — the exact per-market work of a sweep.
double TimeMarketUs(std::size_t n, std::size_t reps, SortPolicy policy) {
  Rng rng(7);
  std::vector<double> centers(n), weights(n), other(n), x(n);
  for (std::size_t j = 0; j < n; ++j) {
    centers[j] = rng.Uniform(-100.0, 100.0);
    weights[j] = rng.Uniform(0.05, 5.0);
    other[j] = rng.Uniform(-10.0, 10.0);
  }
  const double u = 0.6 * static_cast<double>(n);
  BreakpointWorkspace ws;
  MarketOrder order;
  MarketOrder* order_ptr = policy == SortPolicy::kReuse ? &order : nullptr;
  // Warm-up solve (establishes the kReuse permutation, faults pages).
  ws.Resize(n);
  BuildArcs(centers, weights, other, ws.p(), ws.q());
  (void)SolveMarket(ws, u, 0.0, policy, order_ptr);
  // Best of three repetition means: this container has no CPU pinning, so a
  // single mean is at the mercy of scheduler migrations.
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 3; ++rep) {
    Stopwatch sw;
    for (std::size_t r = 0; r < reps; ++r) {
      ws.Resize(n);
      BuildArcs(centers, weights, other, ws.p(), ws.q());
      const auto res = SolveMarket(ws, u, 0.0, policy, order_ptr);
      Writeback(ws.p(), ws.q(), res.lambda, x);
      benchmark::DoNotOptimize(x.data());
    }
    best = std::min(best, sw.Seconds() * 1e6 / static_cast<double>(reps));
  }
  return best;
}

void RunMarketPipeline(const bench::BenchOptions& opts, ExperimentLog& log) {
  TablePrinter t({"market n", "sort", "us / solve"});
  for (std::size_t n : {10u, 120u, 1000u, 10000u}) {
    std::size_t reps = std::max<std::size_t>(20, 200000 / n);
    if (opts.quick) reps = std::max<std::size_t>(5, reps / 10);
    for (SortPolicy policy : {SortPolicy::kAuto, SortPolicy::kReuse}) {
      const char* sort_name = policy == SortPolicy::kReuse ? "reuse" : "auto";
      const double us = TimeMarketUs(n, reps, policy);
      t.AddRow({TablePrinter::Int(static_cast<long>(n)), sort_name,
                TablePrinter::Num(us, 3)});
      const std::string ds = "n=" + std::to_string(n) + ",sort=" + sort_name;
      log.Add("kernel", ds, "us_per_solve", us);
    }
  }
  t.Print(std::cout);
}

// ---------------------------------------------------------------------------
// Attribution overhead: full SolveDiagonal on a table1-style dense instance
// with per-market attribution off vs on. The disabled path is a single
// pointer test per sweep, so the "on" column upper-bounds it; the trajectory
// record lets bench_diff flag any PR that makes forensics stop being
// pay-for-what-you-use (the <2% wall-clock claim in OBSERVABILITY.md).
// Rounds are interleaved off/on so scheduler drift hits both arms equally.

void RunAttributionOverhead(const bench::BenchOptions& opts,
                            ExperimentLog& log) {
  std::cout << "\nattribution overhead (full solve, table1-style dense):\n";
  TablePrinter t({"m x n", "off (ms)", "on (ms)", "on/off"});
  const std::size_t rounds = opts.quick ? 9 : 25;
  for (std::size_t n : {96u, 160u}) {
    if (opts.quick && n > 96u) continue;
    Rng rng(11);
    const auto p = datasets::MakeLargeDiagonal(n, n, rng);
    SeaOptions base;
    base.epsilon = 1e-8;
    obs::MarketAttribution attr;
    const auto solve_ms = [&](bool enabled) {
      SeaOptions o = base;
      o.attribution = enabled ? &attr : nullptr;
      Stopwatch sw;
      const auto res = SolveDiagonal(p, o);
      benchmark::DoNotOptimize(&res);
      return sw.Seconds() * 1e3;
    };
    // Warm-ups fault pages and settle the allocator before timing.
    (void)solve_ms(false);
    (void)solve_ms(true);
    double off = std::numeric_limits<double>::infinity();
    double on = std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < rounds; ++r) {
      off = std::min(off, solve_ms(false));
      on = std::min(on, solve_ms(true));
    }
    const double ratio = off > 0.0 ? on / off : 0.0;
    const std::string dim =
        std::to_string(n) + " x " + std::to_string(n);
    t.AddRow({dim, TablePrinter::Num(off, 3), TablePrinter::Num(on, 3),
              TablePrinter::Num(ratio, 4)});
    const std::string ds = "n=" + std::to_string(n) + ",dense";
    log.Add("attribution_overhead", ds, "solve_off_ms", off);
    log.Add("attribution_overhead", ds, "solve_on_ms", on);
    log.Add("attribution_overhead", ds, "overhead_ratio", ratio, std::nullopt,
            "on/off, min over interleaved rounds; disabled path is one "
            "branch per sweep");
  }
  t.Print(std::cout);
}

// ---------------------------------------------------------------------------
// Sampler overhead: full solve with a metrics registry attached, background
// sampler off vs on at the default cadence. The sampler thread only READS
// registry atomics, so the "on" arm should be indistinguishable from "off";
// the trajectory record lets bench_diff flag any PR that couples the
// sampler to the solve path (the <=2% wall-clock claim in OBSERVABILITY.md
// — report-only, like the attribution record above). Rounds interleave
// off/on so scheduler drift hits both arms equally.

void RunSamplerOverhead(const bench::BenchOptions& opts, ExperimentLog& log) {
  std::cout << "\nsampler overhead (full solve, metrics attached):\n";
  TablePrinter t({"m x n", "off (ms)", "on (ms)", "on/off"});
  const std::size_t rounds = opts.quick ? 9 : 25;
  for (std::size_t n : {96u, 160u}) {
    if (opts.quick && n > 96u) continue;
    Rng rng(13);
    const auto p = datasets::MakeLargeDiagonal(n, n, rng);
    const auto solve_ms = [&](bool sampler_on) {
      obs::MetricsRegistry metrics;
      SeaOptions o;
      o.epsilon = 1e-8;
      o.metrics = &metrics;
      obs::MetricsSampler sampler(&metrics);  // default 250 ms cadence
      if (sampler_on) sampler.Start();
      Stopwatch sw;
      const auto res = SolveDiagonal(p, o);
      const double ms = sw.Seconds() * 1e3;
      benchmark::DoNotOptimize(&res);
      sampler.Stop();
      return ms;
    };
    // Warm-ups fault pages and settle the allocator before timing.
    (void)solve_ms(false);
    (void)solve_ms(true);
    double off = std::numeric_limits<double>::infinity();
    double on = std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < rounds; ++r) {
      off = std::min(off, solve_ms(false));
      on = std::min(on, solve_ms(true));
    }
    const double ratio = off > 0.0 ? on / off : 0.0;
    const std::string dim = std::to_string(n) + " x " + std::to_string(n);
    t.AddRow({dim, TablePrinter::Num(off, 3), TablePrinter::Num(on, 3),
              TablePrinter::Num(ratio, 4)});
    const std::string ds = "n=" + std::to_string(n) + ",dense";
    log.Add("sampler_overhead", ds, "solve_off_ms", off);
    log.Add("sampler_overhead", ds, "solve_on_ms", on);
    log.Add("sampler_overhead", ds, "overhead_ratio", ratio, std::nullopt,
            "on/off, min over interleaved rounds; sampler reads registry "
            "atomics from its own thread at the default 250 ms cadence");
  }
  t.Print(std::cout);
}

// ---------------------------------------------------------------------------
// Part 2: google-benchmark suite (opt-in via --benchmark* flags).

void BM_MarketSolveHeapsort(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  std::vector<Arc> arcs;
  BreakpointWorkspace ws;
  for (auto _ : state) {
    state.PauseTiming();
    FillArcs(arcs, n, rng);
    ws.Assign(arcs);
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        SolveMarket(ws, 100.0, 0.0, SortPolicy::kHeapsort));
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_MarketSolveHeapsort)->RangeMultiplier(4)->Range(64, 4096)
    ->Complexity(benchmark::oNLogN);

void BM_MarketSolveInsertion(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  std::vector<Arc> arcs;
  BreakpointWorkspace ws;
  for (auto _ : state) {
    state.PauseTiming();
    FillArcs(arcs, n, rng);
    ws.Assign(arcs);
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        SolveMarket(ws, 100.0, 0.0, SortPolicy::kInsertion));
  }
}
BENCHMARK(BM_MarketSolveInsertion)->DenseRange(16, 128, 28);

void BM_RowSweep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  DenseMatrix centers(n, n), weights(n, n);
  for (double& v : centers.Flat()) v = rng.Uniform(0.1, 100.0);
  for (double& v : weights.Flat()) v = rng.Uniform(0.01, 1.0);
  Vector mu(n, 0.0), mult(n);
  Vector s0 = centers.RowSums();
  MarketSide side;
  side.mode = TotalsMode::kFixed;
  side.t0 = s0;
  SweepOptions opts;
  for (auto _ : state) {
    EquilibrateSide(centers, weights, mu, side, mult, nullptr, opts);
    benchmark::DoNotOptimize(mult.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_RowSweep)->Arg(128)->Arg(512)->Arg(1024);

void BM_DenseGemv(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  DenseMatrix a(n, n);
  for (double& v : a.Flat()) v = rng.Uniform(-1.0, 1.0);
  Vector x = rng.UniformVector(n, -1.0, 1.0), y(n);
  for (auto _ : state) {
    Gemv(a, x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n) *
                          static_cast<int64_t>(n) * 8);
}
BENCHMARK(BM_DenseGemv)->Arg(512)->Arg(2304)->Arg(4096);

}  // namespace

int main(int argc, char** argv) {
  // Split the command line: --benchmark* flags go to google-benchmark, the
  // rest to the shared bench harness (which rejects flags it doesn't know).
  std::vector<char*> bench_args{argv[0]};
  std::vector<char*> gbench_args{argv[0]};
  bool run_gbench = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark", 11) == 0) {
      gbench_args.push_back(argv[i]);
      run_gbench = true;
    } else {
      bench_args.push_back(argv[i]);
    }
  }
  int bench_argc = static_cast<int>(bench_args.size());
  const auto opts = sea::bench::ParseArgs(bench_argc, bench_args.data());

  sea::bench::PrintHeader(
      "micro_kernels: market pipeline",
      "full market pipeline (arc build + clearing solve + writeback), "
      "single thread, best of three means over fixed reps");
  sea::ExperimentLog log;
  RunMarketPipeline(opts, log);
  RunAttributionOverhead(opts, log);
  RunSamplerOverhead(opts, log);
  sea::bench::Finish(log, opts, "micro_kernels");

  if (run_gbench) {
    int gbench_argc = static_cast<int>(gbench_args.size());
    benchmark::Initialize(&gbench_argc, gbench_args.data());
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  return 0;
}
