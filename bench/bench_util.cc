#include "bench_util.h"

#include <algorithm>
#include <random>

namespace pqsda::bench {

size_t EnvSize(const char* name, size_t fallback) {
  std::string full = std::string("PQSDA_") + name;
  const char* v = std::getenv(full.c_str());
  if (v == nullptr) return fallback;
  long parsed = std::atol(v);
  return parsed > 0 ? static_cast<size_t>(parsed) : fallback;
}

GeneratorConfig BenchGeneratorConfig(size_t users) {
  GeneratorConfig config;
  config.num_users = static_cast<uint32_t>(users);
  config.sessions_per_user_min = 14;
  config.sessions_per_user_max = 26;
  // Every facet is a member of some ambiguous concept: short head queries
  // are ambiguous, the paper's central premise ("query uncertainty widely
  // exists in the scenario of general web search", §I).
  config.facet_config.num_facets = 48;
  config.facet_config.num_concepts = 16;
  config.facet_config.facets_per_concept = 3;
  return config;
}

BenchEnv::BenchEnv(size_t users)
    : data(GenerateLog(BenchGeneratorConfig(users))),
      sessions(Sessionize(data.records)),
      mb_raw(MultiBipartite::Build(data.records, sessions,
                                   EdgeWeighting::kRaw)),
      mb_weighted(MultiBipartite::Build(data.records, sessions,
                                        EdgeWeighting::kCfIqf)),
      cg_raw(ClickGraph::Build(data.records, EdgeWeighting::kRaw)),
      cg_weighted(ClickGraph::Build(data.records, EdgeWeighting::kCfIqf)) {}

double MeanSuggestLatency(const SuggestionEngine& engine,
                          const std::vector<TestQuery>& tests, size_t k,
                          obs::Histogram* latency_us) {
  obs::Histogram local(obs::Histogram::DefaultLatencyBoundsUs());
  obs::Histogram& hist = latency_us != nullptr ? *latency_us : local;
  const double sum_before = hist.Sum();
  size_t served = 0;
  for (const TestQuery& t : tests) {
    obs::ScopedTimer timer(hist);
    auto out = engine.Suggest(t.request, k);
    if (out.ok()) ++served;
  }
  if (served == 0) return 0.0;
  // Failed requests return almost instantly, so the histogram's new wall
  // time is the served requests' total for the Fig. 7 mean.
  return (hist.Sum() - sum_before) * 1e-6 / static_cast<double>(served);
}

double MeanOf(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double MedianOf(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  if (v.size() % 2 == 1) return v[mid];
  return 0.5 * (v[mid] + *std::max_element(v.begin(), v.begin() + mid));
}

OverheadVerdict PairedOverheadGate(const std::vector<double>& off_us,
                                   const std::vector<double>& on_us,
                                   double budget_pct, double budget_us) {
  OverheadVerdict v;
  v.pairs = std::min(off_us.size(), on_us.size());
  if (v.pairs == 0) return v;
  std::vector<double> overhead(v.pairs);
  for (size_t i = 0; i < v.pairs; ++i) {
    overhead[i] =
        off_us[i] > 0.0 ? 100.0 * (on_us[i] - off_us[i]) / off_us[i] : 0.0;
  }
  v.median_overhead_pct = MedianOf(overhead);
  const double off_median =
      MedianOf(std::vector<double>(off_us.begin(), off_us.begin() + v.pairs));
  v.budget_pct =
      budget_pct + (off_median > 0.0 ? 100.0 * budget_us / off_median : 0.0);

  constexpr size_t kResamples = 2000;
  std::mt19937_64 rng(20140331);
  std::uniform_int_distribution<size_t> pick(0, v.pairs - 1);
  std::vector<double> medians(kResamples);
  std::vector<double> sample(v.pairs);
  for (double& median : medians) {
    for (double& x : sample) x = overhead[pick(rng)];
    median = MedianOf(sample);
  }
  std::sort(medians.begin(), medians.end());
  v.lower_bound_pct = medians[kResamples / 40];  // the 2.5th percentile
  v.pass = v.lower_bound_pct <= v.budget_pct;
  return v;
}

std::vector<std::string> RankLabels() {
  std::vector<std::string> out;
  for (size_t k : kRanks) out.push_back(std::to_string(k));
  return out;
}

}  // namespace pqsda::bench
