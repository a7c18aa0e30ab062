// Solver workloads: dense_fixed (paper Table 1 protocol) and spe_elastic
// (Table 5 protocol). spe_elastic also solves its instance on a ThreadPool
// of nproc threads outside the timed loop: every run checks the
// thread-count bit-identity contract there, and the traced run reports
// the pool's per-layer numbers. The pooled solve time is not gated; on a
// shared host it flips between about 0.2 s and 1.0-1.4 s (README.md).
//
// Every solve goes through DiagonalSea's public API with the library's
// default SeaOptions except the paper's epsilon, criterion and check
// cadence, so a later change of default sort policy, kernel backend or
// schedule shows in the numbers. All observer hooks stay null.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/diagonal_sea.hpp"
#include "datasets/large_diagonal.hpp"
#include "parallel/thread_pool.hpp"
#include "problems/feasibility.hpp"
#include "spe/spe_generator.hpp"
#include "support/rng.hpp"

namespace perfbench {
namespace {

using sea::DiagonalProblem;
using sea::DiagonalSea;
using sea::DiagonalSeaRun;
using sea::SeaOptions;

struct Spec {
  bool spe = false;      // Table 5 instance instead of Table 1
  std::size_t n = 0;     // square problem size
  int setup_reps = 0;    // set-ups per run; setup_s is their median
  int min_solves = 0;    // solves per run even if --seconds runs out
  // Largest accepted max_i |sum_j x_ij - s_i| / max(1, |s_i|) over rows
  // and columns. dense_fixed converges to round-off (measured ~6e-15).
  // On spe the criterion bounds the x-change, not the residual, and
  // converged rows are measured 1.5-2.5% off; 0.1 leaves room for that.
  double residual_tol = 0.0;
};

Spec SpecFor(const std::string& workload) {
  if (workload == "dense_fixed") return {false, 2000, 3, 3, 1e-9};
  return {true, 100, 31, 5, 0.1};  // spe_elastic
}

SeaOptions PaperOptions(const Spec& spec) {
  SeaOptions opts;  // library defaults for everything else
  opts.epsilon = 0.01;
  opts.criterion = sea::StopCriterion::kXChange;
  opts.check_every = spec.spe ? 2 : 1;  // paper Section 4.2
  return opts;
}

// One set-up: the seeded problem and the solver built over it.
struct Instance {
  std::unique_ptr<DiagonalProblem> problem;
  std::unique_ptr<DiagonalSea> solver;  // holds a pointer to *problem
  double gen_s = 0.0;
  double ctor_s = 0.0;
};

Instance SetUp(const Spec& spec, std::uint64_t seed, SpanLog& spans) {
  Instance inst;
  const double t0 = Now();
  if (spec.spe) {
    sea::Rng rng(SubSeed(seed, 2));
    const auto spe = sea::spe::Generate(spec.n, spec.n, rng);
    inst.problem = std::make_unique<DiagonalProblem>(spe.ToDiagonalProblem());
  } else {
    sea::Rng rng(SubSeed(seed, 1));
    inst.problem = std::make_unique<DiagonalProblem>(
        sea::datasets::MakeLargeDiagonal(spec.n, spec.n, rng));
  }
  const double t1 = Now();
  inst.solver = std::make_unique<DiagonalSea>(*inst.problem);
  const double t2 = Now();
  inst.gen_s = t1 - t0;
  inst.ctor_s = t2 - t1;
  const std::uint64_t root = spans.Add("bench.setup", t0, t2);
  spans.Add("datasets.gen", t0, t1, 0, root);
  spans.Add("core.ctor", t1, t2, 0, root);
  return inst;
}

// The output check behind `failed`: converged, and the primal meets its
// row and column targets.
bool SolveIsCorrect(const DiagonalProblem& problem, const DiagonalSeaRun& run,
                    double tol) {
  if (run.result.status != sea::SolveStatus::kConverged) return false;
  const auto rep = sea::CheckFeasibility(problem, run.solution);
  return rep.MaxRel() <= tol && rep.min_x >= 0.0;
}

struct Sample {
  double wall = 0.0;
  double cpu = 0.0;
  sea::SeaResult result;
};

}  // namespace

int RunSolverWorkload(const Args& args, Report& report) {
  const Spec spec = SpecFor(args.workload);
  SpanLog spans(args.trace);
  const SeaOptions opts = PaperOptions(spec);

  // Set-up, several times; the last instance is the one measured.
  std::vector<double> setup_s, gen_s, ctor_s;
  Instance inst;
  for (int r = 0; r < spec.setup_reps; ++r) {
    inst = Instance{};  // release the previous copy before building anew
    inst = SetUp(spec, args.seed, spans);
    setup_s.push_back(inst.gen_s + inst.ctor_s);
    gen_s.push_back(inst.gen_s);
    ctor_s.push_back(inst.ctor_s);
  }
  const DiagonalProblem& problem = *inst.problem;

  // Measured loop. A traced run alternates untraced and traced solves so
  // the tracing overhead is measured against the same stretch of time.
  std::vector<Sample> plain, traced;
  std::vector<bool> ok;  // per solve
  std::uint64_t fingerprint = 0;
  DiagonalSeaRun run;
  const double start = Now();
  for (std::size_t k = 0;; ++k) {
    const bool trace_this = args.trace && k % 2 == 1;
    run = DiagonalSeaRun{};  // the previous primal must not add to the peak
    const double c0 = ProcessCpuSeconds();
    const double t0 = Now();
    run = inst.solver->Solve(opts);
    const double t1 = Now();
    const double c1 = ProcessCpuSeconds();
    if (trace_this) spans.Add("core.solve", t0, t1, k + 1);
    (trace_this ? traced : plain).push_back({t1 - t0, c1 - c0, run.result});

    const std::uint64_t fp = FingerprintX(run.solution.x.Flat());
    if (k == 0) fingerprint = fp;
    // Same input, same output: every repeat must be bit-identical.
    ok.push_back(SolveIsCorrect(problem, run, spec.residual_tol) &&
                 fp == fingerprint);
    // Stop when the next solve would overrun --seconds.
    const std::size_t done = plain.size() + traced.size();
    const double elapsed = Now() - start;
    if (elapsed * static_cast<double>(done + 1) / static_cast<double>(done) > args.seconds &&
        done >= static_cast<std::size_t>(spec.min_solves) * (args.trace ? 2 : 1))
      break;
  }

  // Thread-count bit-identity contract, outside the timed loop: the same
  // instance solved on a pool must give the serial primal bit for bit.
  // The traced run keeps the pool's stats from a few such solves.
  std::unique_ptr<sea::ThreadPool> pool;
  std::vector<sea::PoolStats> pool_stats;
  if (spec.spe) {
    pool = std::make_unique<sea::ThreadPool>(Nproc());
    pool->EnableStats(args.trace);
    SeaOptions pooled = opts;
    pooled.pool = pool.get();
    for (int r = 0; r < (args.trace ? 5 : 1); ++r) {
      pool->ResetStats();
      const double t0 = Now();
      const DiagonalSeaRun par = inst.solver->Solve(pooled);
      spans.Add("core.solve.pooled", t0, Now());
      pool_stats.push_back(pool->Stats());
      ok.push_back(SolveIsCorrect(problem, par, spec.residual_tol) &&
                   FingerprintX(par.solution.x.Flat()) == fingerprint);
      if (!ok.back()) report.Fail("pooled primal differs from the serial solve");
    }
  }
  const std::uint64_t attempted = ok.size();
  const std::uint64_t failed =
      static_cast<std::uint64_t>(std::count(ok.begin(), ok.end(), false));

  // Self-check: a corrupted primal must be caught by the same check.
  {
    DiagonalSeaRun bad = run;
    double row0 = 0.0;
    for (std::size_t j = 0; j < problem.n(); ++j) row0 += bad.solution.x(0, j);
    bad.solution.x(0, 0) += 0.5 * std::max(1.0, row0);
    if (SolveIsCorrect(problem, bad, spec.residual_tol))
      report.Fail("self-check: a corrupted primal passed the output check");
  }
  report.Count(attempted, failed);
  if (failed > 0) report.Fail(std::to_string(failed) + " solves failed their check");

  // Run context.
  const std::size_t n = spec.n;
  const sea::SeaResult& res = run.result;
  report.Context("workload", args.workload);
  report.Context("size", std::to_string(n) + "x" + std::to_string(n));
  report.Context("kernel_backend", res.kernel_backend);
  report.Context("sort_policy", SortPolicyInEffect(opts.sort_policy, n));
  report.Context("pool_threads", pool ? static_cast<double>(pool->num_threads()) : 0.0);
  report.Context("iterations", static_cast<double>(res.iterations));
  // Computed working set: centers, weights, their transposes, the primal
  // and the previous primal kept by the x-change check, 8 bytes each.
  const double ws_bytes = 6.0 * 8.0 * static_cast<double>(n * n);
  report.Context("working_set_bytes_computed", ws_bytes);
  report.Context("working_set_over_llc",
                 LlcBytes() ? ws_bytes / static_cast<double>(LlcBytes()) : 0.0);

  const auto walls = [](const std::vector<Sample>& v) {
    std::vector<double> w;
    for (const Sample& s : v) w.push_back(s.wall);
    return w;
  };

  if (!args.trace) {
    std::vector<double> wall = walls(plain), cpu;
    for (const Sample& s : plain) cpu.push_back(s.cpu);
    report.Metric("solve_s", Median(wall), "s");
    report.Metric("cpu_s", Median(cpu), "s");
    report.Metric("setup_s", Median(setup_s), "s");
    report.Metric("peak_rss_mb", PeakRssMb(), "MB");
    report.Metric("success_rate",
                  static_cast<double>(attempted - failed) / static_cast<double>(attempted),
                  "ratio");
    // Too few solves for a p99: the tail is the highest percentile with
    // ten solves beyond it.
    const double tail = TailPercentile(wall.size());
    report.Context("latency_tail_percentile", tail);
    report.Context("latency_tail_ms", 1e3 * std::max(Median(wall), Percentile(wall, tail)));
    // Solves per second one caller sustains at the median solve time.
    report.Metric("capacity_rps", 1.0 / Median(wall), "1/s");
    report.Context("solves", static_cast<double>(wall.size()));
    return 0;
  }

  // Per-layer metrics from the traced solves.
  std::vector<double> row, col, chk, unattr;
  for (const Sample& s : traced) {
    row.push_back(s.result.row_phase_seconds);
    col.push_back(s.result.col_phase_seconds);
    chk.push_back(s.result.check_phase_seconds);
    unattr.push_back(s.wall - s.result.row_phase_seconds -
                     s.result.col_phase_seconds - s.result.check_phase_seconds);
  }
  std::vector<double> regions, region_wall, util, imbalance, chunks;
  for (const sea::PoolStats& p : pool_stats) {
    regions.push_back(static_cast<double>(p.regions));
    chunks.push_back(static_cast<double>(p.chunks));
    region_wall.push_back(p.region_wall_seconds);
    imbalance.push_back(p.mean_imbalance);
    const double denom = p.region_wall_seconds * static_cast<double>(p.threads);
    util.push_back(denom > 0 ? p.BusySecondsTotal() / denom : 0.0);
  }
  const double wall_traced = Median(walls(traced));
  const double iters = static_cast<double>(res.iterations);
  // Arcs one solve touched: every market of a square dense problem has n.
  const double arcs = static_cast<double>(res.kernel_markets) * static_cast<double>(n);
  report.Layer("datasets.gen_s", Median(gen_s));
  report.Layer("core.ctor_s", Median(ctor_s));
  report.Layer("core.iterations", iters);
  report.Layer("core.checks_compared", static_cast<double>(res.checks_compared));
  report.Layer("core.s_per_iter", iters > 0 ? wall_traced / iters : 0.0);
  report.Layer("core.row_phase_s", Median(row));
  report.Layer("core.col_phase_s", Median(col));
  report.Layer("core.check_phase_s", Median(chk));
  report.Layer("core.unattributed_s", Median(unattr));
  report.Layer("equilibration.markets", static_cast<double>(res.kernel_markets));
  report.Layer("equilibration.comparisons_per_arc",
               arcs > 0 ? static_cast<double>(res.ops.comparisons) / arcs : 0.0);
  report.Layer("equilibration.flops_per_arc",
               arcs > 0 ? static_cast<double>(res.ops.flops) / arcs : 0.0);
  report.Layer("equilibration.inversions", static_cast<double>(res.ops.inversions));
  report.Layer("equilibration.order_reuses", static_cast<double>(res.order_reuses));

  // Kernel replay: one row sweep at the initial (mu = 0) and the converged
  // multipliers, median of a few repetitions each.
  std::vector<double> first, final_;
  const sea::Vector zero(problem.n(), 0.0);
  for (int r = 0; r < (spec.spe ? 21 : 3); ++r) {
    double t0 = Now();
    first.push_back(ReplayRowSweep(problem, zero));
    spans.Add("equilibration.replay.first", t0, t0 + first.back());
    t0 = Now();
    final_.push_back(ReplayRowSweep(problem, run.solution.mu));
    spans.Add("equilibration.replay.final", t0, t0 + final_.back());
  }
  const double sweep_arcs = static_cast<double>(n * n);
  report.Layer("equilibration.replay_ns_per_arc.first", 1e9 * Median(first) / sweep_arcs);
  report.Layer("equilibration.replay_ns_per_arc.final", 1e9 * Median(final_) / sweep_arcs);
  const double row_sweep_s = iters > 0 ? Median(row) / iters : 0.0;
  report.Layer("equilibration.replay_share",
               row_sweep_s > 0 ? Median(final_) / row_sweep_s : 0.0);
  // Computed, not measured: per arc and sweep, the kernel streams the
  // center and weight in and the allocation out, 8 bytes each.
  report.Layer("equilibration.bytes_per_arc", 24.0);

  report.Layer("parallel.regions", Median(regions));
  report.Layer("parallel.region_wall_s", Median(region_wall));
  report.Layer("parallel.utilization", Median(util));
  report.Layer("parallel.mean_imbalance", Median(imbalance));
  report.Layer("parallel.chunks", Median(chunks));
  report.Layer("trace.overhead_frac", wall_traced / Median(walls(plain)) - 1.0);

  spans.WriteJsonl(args.out_dir + "/trace_" + args.workload + "_seed" +
                   std::to_string(args.seed) + ".jsonl");
  return 0;
}

}  // namespace perfbench
