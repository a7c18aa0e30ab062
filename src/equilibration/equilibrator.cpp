#include "equilibration/equilibrator.hpp"

#include <algorithm>
#include <cmath>

#include "obs/market_stats.hpp"
#include "obs/profiler.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/schedule.hpp"
#include "support/check.hpp"
#include "support/stopwatch.hpp"

namespace sea {

// Clearing target for market i of the given side.
void ClearingTarget(const MarketSide& side, std::size_t i, double& u,
                    double& v) {
  switch (side.mode) {
    case TotalsMode::kFixed:
      u = side.t0[i];
      v = 0.0;
      break;
    case TotalsMode::kElastic:
    case TotalsMode::kInterval:
      u = side.t0[i];
      v = -1.0 / (2.0 * side.weight[i]);
      break;
    case TotalsMode::kSam: {
      const double inv2a = 1.0 / (2.0 * side.weight[i]);
      u = side.t0[i] - side.coupling[i] * inv2a;
      v = -inv2a;
      break;
    }
  }
}

BreakpointResult EquilibrateMarket(std::span<const double> centers,
                                   std::span<const double> weights,
                                   std::span<const double> other_mult,
                                   double u, double v, BreakpointWorkspace& ws,
                                   std::span<double> x_out,
                                   SortPolicy policy, MarketOrder* order) {
  SEA_DCHECK(centers.size() == weights.size());
  SEA_DCHECK(centers.size() == other_mult.size());
  ws.Resize(centers.size());
  BuildArcs(centers, weights, other_mult, ws.p(), ws.q());
  BreakpointResult res = SolveMarket(ws, u, v, policy, order);
  res.ops.flops += 2 * centers.size();  // arc construction
  if (!x_out.empty()) {
    SEA_DCHECK(x_out.size() == centers.size());
    Writeback(ws.p(), ws.q(), res.lambda, x_out);
    res.ops.flops += 2 * centers.size();
  }
  return res;
}

SweepStats EquilibrateSide(const DenseMatrix& centers,
                           const DenseMatrix& weights,
                           std::span<const double> other_mult,
                           const MarketSide& side, std::span<double> mult_out,
                           DenseMatrix* x_out, const SweepOptions& opts) {
  const std::size_t markets = centers.rows();
  const std::size_t arcs = centers.cols();
  SEA_CHECK(weights.SameShape(centers));
  SEA_CHECK(other_mult.size() == arcs);
  SEA_CHECK(mult_out.size() == markets);
  SEA_CHECK(side.t0.size() == markets);
  if (side.mode != TotalsMode::kFixed)
    SEA_CHECK(side.weight.size() == markets);
  if (side.mode == TotalsMode::kSam)
    SEA_CHECK(side.coupling.size() == markets);
  if (side.mode == TotalsMode::kInterval)
    SEA_CHECK(side.lo.size() == markets && side.hi.size() == markets);
  if (x_out != nullptr) SEA_CHECK(x_out->SameShape(centers));

  SweepStats stats;
  // The scheduler's cost feedback rides on the same per-market work numbers
  // the simulator uses, so its presence forces recording.
  const bool record_costs = opts.record_task_costs || opts.scheduler != nullptr;
  if (record_costs) stats.task_costs.assign(markets, 0.0);
  if (opts.sort_cache != nullptr)
    SEA_CHECK_MSG(opts.sort_cache->size() == markets,
                  "sort cache not sized for this sweep side");

  const std::size_t workers = WorkerCount(opts.pool);
  std::vector<BreakpointWorkspace> ws(workers);
  std::vector<OpCounts> worker_ops(workers);
  std::vector<std::uint64_t> worker_reuses(workers, 0);

  ScheduleSpec sched;
  if (opts.scheduler != nullptr) sched = opts.scheduler->Next(markets, workers);

  const char* phase =
      opts.profile_phase != nullptr ? opts.profile_phase : "equilibrate.sweep";
  // Under a dynamic schedule a worker runs this body once per claimed chunk,
  // so per-worker accumulators use += throughout.
  obs::MarketAttribution* attr = opts.attribution;
  ForRangeWorker(opts.pool, markets,
                 [&](std::size_t begin, std::size_t end, std::size_t w) {
    obs::ProfScope prof(phase);
    BreakpointWorkspace& wksp = ws[w];
    OpCounts local;
    std::uint64_t reuses = 0;
    Stopwatch market_sw;
    for (std::size_t i = begin; i < end; ++i) {
      double u = 0.0, v = 0.0;
      ClearingTarget(side, i, u, v);
      std::span<double> xrow =
          (x_out != nullptr) ? x_out->Row(i) : std::span<double>{};
      MarketOrder* order =
          opts.sort_cache != nullptr ? opts.sort_cache->At(i) : nullptr;
      if (attr != nullptr) market_sw.Restart();
      BreakpointResult res;
      if (side.mode == TotalsMode::kInterval) {
        wksp.Resize(arcs);
        BuildArcs(centers.Row(i), weights.Row(i), other_mult, wksp.p(),
                  wksp.q());
        res = SolveMarketBox(wksp, u, v, side.lo[i], side.hi[i],
                             opts.sort_policy, order);
        res.ops.flops += 2 * arcs;
        if (!xrow.empty()) {
          Writeback(wksp.p(), wksp.q(), res.lambda, xrow);
          res.ops.flops += 2 * arcs;
        }
      } else {
        res = EquilibrateMarket(centers.Row(i), weights.Row(i), other_mult, u,
                                v, wksp, xrow, opts.sort_policy, order);
      }
      SEA_INTERNAL_CHECK(res.feasible);
      mult_out[i] = res.lambda;
      if (attr != nullptr)
        attr->RecordSolve(opts.attribution_base + i, res.active_count,
                          res.ops.breakpoints, market_sw.Seconds());
      if (record_costs) stats.task_costs[i] = res.ops.Work();
      if (res.order_reused) ++reuses;
      local += res.ops;
    }
    worker_ops[w] += local;
    worker_reuses[w] += reuses;
  }, sched);

  for (const auto& o : worker_ops) stats.total_ops += o;
  for (std::uint64_t r : worker_reuses) stats.order_reuses += r;
  stats.markets = markets;
  if (opts.scheduler != nullptr) {
    opts.scheduler->Update(stats.task_costs);
    if (!opts.record_task_costs) stats.task_costs.clear();
  }
  return stats;
}

}  // namespace sea
