// Reproduces Fig. 7 of the paper: relative per-suggestion latency of the
// methods as the number of utilized queries grows. Log size is swept by
// scaling the user population; per-request time is averaged over sampled
// test queries and reported relative to the fastest cell (the paper reports
// relative consumed time).
//
// Scale knobs: PQSDA_SCALES (comma count fixed; default user scales
// 100,200,400,800), PQSDA_TESTS (default 30 requests per cell).
// PQSDA_STATS=1 additionally emits a per-stage latency breakdown of the
// PQS-DA pipeline (expansion / solve / selection) as registry JSON.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>

#include "bench_util.h"
#include "eval/report.h"
#include "eval/synthetic_adapters.h"
#include "obs/metrics.h"
#include "obs/stage_profiler.h"
#include "suggest/concept_suggester.h"
#include "suggest/dqs_suggester.h"
#include "suggest/hitting_time_suggester.h"
#include "suggest/pqsda_diversifier.h"
#include "suggest/random_walk_suggester.h"

namespace pqsda::bench {
namespace {

// PQSDA_STATS=1 mode: re-runs the PQS-DA requests, each bracketed by the
// stage profiler, feeding each stage's wall time into a cell-local registry,
// and prints the registry as JSON — the per-stage breakdown behind the
// Fig. 7 totals, in the stage names /profilez uses.
void EmitStageBreakdown(const PqsdaDiversifier& pqsda,
                        const std::vector<TestQuery>& tests, size_t users) {
  obs::MetricsRegistry registry;
  obs::Histogram& total = registry.GetHistogram("pqsda.suggest.latency_us");
  obs::StageProfiler& profiler = obs::StageProfiler::Default();
  for (const TestQuery& t : tests) {
    obs::StageCosts costs;
    profiler.BeginRequest();
    auto out = pqsda.Diversify(t.request, 10);
    profiler.EndRequest(/*rung=*/0, &costs);
    if (!out.ok()) continue;
    auto us = [&costs](obs::ProfileStage stage) {
      return static_cast<double>(costs[static_cast<size_t>(stage)].wall_ns) *
             1e-3;
    };
    total.Observe(us(obs::ProfileStage::kRequest));
    for (obs::ProfileStage stage :
         {obs::ProfileStage::kExpansion, obs::ProfileStage::kSolve,
          obs::ProfileStage::kSelection}) {
      registry
          .GetHistogram(std::string("pqsda.suggest.stage.") +
                        obs::ProfileStageName(stage) + "_us")
          .Observe(us(stage));
    }
  }
  std::printf("  stats users=%zu %s\n", users,
              registry.ExportJson().c_str());
}

void Main() {
  const char* stats_env = std::getenv("PQSDA_STATS");
  const bool emit_stats = stats_env != nullptr && std::strcmp(stats_env, "1") == 0;
  const size_t num_tests = EnvSize("TESTS", 30);
  std::vector<size_t> scales = {100, 200, 400, 800};
  std::printf("fig7: per-suggestion latency vs number of utilized queries\n");
  std::printf("(%zu requests per cell; values relative to the fastest "
              "cell)\n\n", num_tests);

  std::vector<std::string> labels;
  std::vector<std::vector<double>> latencies(5);  // per method
  const std::vector<std::string> names = {"PQS-DA", "DQS", "HT", "FRW", "CM"};

  for (size_t users : scales) {
    BenchEnv env(users);
    labels.push_back(std::to_string(env.mb_weighted.num_queries()));
    auto tests = SampleTestQueries(env.data, num_tests, /*seed=*/99);

    PqsdaDiversifier pqsda(env.mb_weighted);
    DqsSuggester dqs(env.cg_weighted);
    HittingTimeSuggester ht(env.cg_weighted);
    RandomWalkSuggester frw(env.cg_weighted, WalkDirection::kForward);
    SyntheticPageContentProvider provider(env.data.facets);
    ConceptSuggester cm(env.cg_weighted, env.data.records, provider);

    const SuggestionEngine* engines[5] = {&pqsda, &dqs, &ht, &frw, &cm};
    for (size_t m = 0; m < 5; ++m) {
      obs::Histogram hist(obs::Histogram::DefaultLatencyBoundsUs());
      double latency = MeanSuggestLatency(*engines[m], tests, 10, &hist);
      latencies[m].push_back(latency);
      std::printf(
          "  users=%4zu  %-7s %8.2f ms/suggestion  "
          "(p50 %.2f / p95 %.2f / p99 %.2f ms)\n",
          users, names[m].c_str(), latency * 1e3, hist.Quantile(0.5) * 1e-3,
          hist.Quantile(0.95) * 1e-3, hist.Quantile(0.99) * 1e-3);
    }
    if (emit_stats) EmitStageBreakdown(pqsda, tests, users);
  }

  double min_latency = 1e100;
  for (const auto& row : latencies) {
    for (double v : row) {
      if (v > 0.0) min_latency = std::min(min_latency, v);
    }
  }
  FigureTable table;
  table.title = "Fig. 7 Relative consumed time vs #utilized queries";
  table.x_label = "queries";
  table.x_values = labels;
  for (size_t m = 0; m < 5; ++m) {
    std::vector<double> rel;
    for (double v : latencies[m]) rel.push_back(v / min_latency);
    table.AddSeries(names[m], rel);
  }
  std::printf("\n");
  table.Print();
}

}  // namespace
}  // namespace pqsda::bench

int main() { pqsda::bench::Main(); }
