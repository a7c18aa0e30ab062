// Background metrics sampler: turns the point-in-time MetricsRegistry into
// queryable time series with bounded memory (docs/OBSERVABILITY.md, "Live
// endpoints").
//
// A scrape of /metrics answers "what is the counter NOW"; judging a running
// solve needs "how fast is it moving and how has that changed" — iteration
// RATE collapsing is exactly the slow-convergence signature the "limit
// points of iterative scaling" literature warns about, and the rate series
// is the natural input for judging acceleration (PAPERS.md). MetricsSampler
// owns one background thread that snapshots a MetricsRegistry every
// `interval_ms` and appends to fixed-capacity per-series rings:
//
//   * counters   -> per-second rates (delta / dt, clamped at 0 so a
//                   registry swap / counter reset yields a 0 sample, not a
//                   huge negative spike),
//   * gauges     -> last-written values,
//   * histograms -> one series per configured quantile ("<name>.p50", ...)
//                   via HistogramQuantile.
//
// Memory is bounded by construction: series_count x ring_capacity samples,
// no allocation after the first sampling pass registers the series set.
// Readers (the /timeseries endpoint, tests) and the sampler thread
// synchronize on one mutex; the solve thread is never touched — sampling
// only reads the registry's atomics, which is why sampler-on results are
// bit-identical to sampler-off (asserted by the CI telemetry smoke).
//
// Ingest(snapshot, t) is the thread-free core (exposed for tests and for
// embedders with their own cadence): SampleOnce() stamps the monotonic
// clock and calls it; the background thread calls SampleOnce() on its
// timer. Stop() (or destruction) takes a final sample so the series always
// include the terminal state, then joins — every sea_solve exit path runs
// it (docs/ROBUSTNESS.md, "Flush-on-exit").
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "support/stopwatch.hpp"

namespace sea::obs {

struct SamplerOptions {
  double interval_ms = 250.0;      // cadence of the background thread
  std::size_t ring_capacity = 256; // samples kept per series (~64s history)
  std::vector<double> quantiles = {0.5, 0.95, 0.99};  // histogram series
};

class MetricsSampler {
 public:
  enum class SeriesKind { kRate, kGauge, kQuantile };

  MetricsSampler(const MetricsRegistry* registry, SamplerOptions opts = {});
  ~MetricsSampler();

  MetricsSampler(const MetricsSampler&) = delete;
  MetricsSampler& operator=(const MetricsSampler&) = delete;

  // Spawn / join the background thread. Start is idempotent while running;
  // Stop takes one final sample before joining and is safe to call twice.
  void Start();
  void Stop();

  // Take one sample now, on the caller's thread (also used by the
  // background thread). Safe concurrently with readers.
  void SampleOnce();

  // Test/embedder seam: fold an externally produced snapshot taken at
  // monotonic time `t_seconds` into the rings, exactly as the sampler
  // thread would. Counter deltas are computed against the previous ingest.
  void Ingest(const MetricsSnapshot& snapshot, double t_seconds);

  // One series as JSON:
  //   {"schema":5,"type":"timeseries","metric":"sea.iterations",
  //    "kind":"rate","interval_ms":250,"samples":[{"t":1.25,"v":120.0},...]}
  // `last` > 0 returns only the most recent `last` samples. An unknown
  // metric returns {"error":"unknown metric","metrics":[...names...]}.
  std::string TimeSeriesJson(const std::string& metric,
                             std::size_t last = 0) const;
  // Every known series name with kind and sample count, as a JSON array —
  // the /timeseries index when no metric is named.
  std::string SeriesIndexJson() const;

  std::vector<std::string> SeriesNames() const;
  std::uint64_t samples_taken() const;
  bool running() const;
  const SamplerOptions& options() const { return opts_; }

 private:
  struct Ring {
    std::string name;
    SeriesKind kind = SeriesKind::kGauge;
    // For kQuantile: source histogram + q; for kRate: previous raw count.
    double quantile = 0.0;
    std::uint64_t prev_count = 0;
    bool have_prev = false;
    // Fixed-capacity circular buffer of (t, v).
    std::vector<double> t;
    std::vector<double> v;
    std::size_t head = 0;  // next write slot
    std::size_t size = 0;

    void Push(double ts, double val, std::size_t capacity);
  };

  void ThreadLoop();
  Ring& FindOrCreate(const std::string& name, SeriesKind kind,
                     double quantile);
  const Ring* Find(const std::string& name) const;

  const MetricsRegistry* registry_;
  SamplerOptions opts_;
  Stopwatch clock_;

  mutable std::mutex mu_;        // guards rings_ + sample bookkeeping
  std::vector<Ring> rings_;
  double prev_t_ = -1.0;         // previous ingest time (rate denominators)
  std::uint64_t samples_taken_ = 0;

  mutable std::mutex thread_mu_; // guards thread lifecycle + stop flag
  std::condition_variable stop_cv_;
  std::thread thread_;
  bool stop_requested_ = false;
  bool running_ = false;
};

const char* ToString(MetricsSampler::SeriesKind kind);

}  // namespace sea::obs
