#ifndef PQSDA_BENCH_BENCH_UTIL_H_
#define PQSDA_BENCH_BENCH_UTIL_H_

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "eval/harness.h"
#include "graph/click_graph.h"
#include "graph/multi_bipartite.h"
#include "log/sessionizer.h"
#include "obs/metrics.h"
#include "suggest/engine.h"
#include "synthetic/generator.h"

namespace pqsda::bench {

/// Reads an integer knob from the environment (PQSDA_<NAME>), falling back
/// to `fallback`. Lets every bench scale up toward the paper's sizes
/// without recompiling, e.g. PQSDA_USERS=5000 PQSDA_TESTS=10000.
size_t EnvSize(const char* name, size_t fallback);

/// Runs every test request through the engine, recording each served
/// request's latency into `latency_us` (microseconds, via obs::ScopedTimer)
/// when non-null. Returns the mean per-served-request latency in seconds
/// (0 when nothing was served) — the Fig. 7 measurement, now with p50/p95/
/// p99 available from the histogram.
double MeanSuggestLatency(const SuggestionEngine& engine,
                          const std::vector<TestQuery>& tests, size_t k = 10,
                          obs::Histogram* latency_us = nullptr);

/// Standard bench dataset: a synthetic log shaped like the paper's (§VI-A),
/// scaled by PQSDA_USERS (default 300).
GeneratorConfig BenchGeneratorConfig(size_t users);

/// Everything the figure benches share: the dataset, its sessions and both
/// weightings of both representations.
struct BenchEnv {
  explicit BenchEnv(size_t users);

  SyntheticDataset data;
  std::vector<Session> sessions;
  MultiBipartite mb_raw;
  MultiBipartite mb_weighted;
  ClickGraph cg_raw;
  ClickGraph cg_weighted;
};

/// Mean of a vector (0 for empty) — tiny helper for metric averaging.
double MeanOf(const std::vector<double>& v);

/// Median of a vector (0 for empty; the mean of the middle two for even
/// sizes).
double MedianOf(std::vector<double> v);

/// Verdict of one paired overhead gate (see PairedOverheadGate).
struct OverheadVerdict {
  size_t pairs = 0;
  /// Median over pairs of 100 * (on - off) / off.
  double median_overhead_pct = 0.0;
  /// Lower edge of the bootstrap 95% interval of that median.
  double lower_bound_pct = 0.0;
  /// The budget in percent: the relative budget plus the absolute one as a
  /// share of the median off-side value.
  double budget_pct = 0.0;
  /// False when lower_bound_pct is above budget_pct, or no pair was given.
  bool pass = false;
};

/// The rule behind bench_serving's overhead gates. `off_us[i]` and
/// `on_us[i]` are one interleaved pair: the same workload measured without
/// and with the cost under test, back to back, so host drift lands on both
/// sides. The median paired overhead is resampled over pairs (bootstrap,
/// fixed seed: one input, one verdict) and the gate fails only when the
/// lower edge of its 95% interval is above `budget_pct` percent plus
/// `budget_us` — noise widens the interval instead of failing the gate.
OverheadVerdict PairedOverheadGate(const std::vector<double>& off_us,
                                   const std::vector<double>& on_us,
                                   double budget_pct, double budget_us);

/// k values reported by the paper's figures.
inline const std::vector<size_t> kRanks = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};

/// Renders kRanks as x-axis labels.
std::vector<std::string> RankLabels();

}  // namespace pqsda::bench

#endif  // PQSDA_BENCH_BENCH_UTIL_H_
