#include "suggest/suggest_stats.h"

#include <cstdio>

namespace pqsda {

std::string SuggestStats::Render() const {
  std::string out;
  char buf[256];
  for (size_t s = 0; s < obs::kProfileStageCount; ++s) {
    if (stages[s].count == 0) continue;
    std::snprintf(buf, sizeof(buf), "%s%s  %lldus\n", s == 0 ? "" : "  ",
                  obs::ProfileStageName(static_cast<obs::ProfileStage>(s)),
                  static_cast<long long>(stages[s].wall_ns / 1000));
    out += buf;
  }
  // The work lines describe stages that ran: a cache hit (or a request cut
  // short before a stage) has none, and would otherwise print as a failed
  // solve with zero iterations.
  auto ran = [this](obs::ProfileStage stage) {
    return stages[static_cast<size_t>(stage)].count > 0;
  };
  if (ran(obs::ProfileStage::kExpansion)) {
    std::snprintf(buf, sizeof(buf),
                  "compact: %zu queries (%zu seeds, %zu rounds, %zu "
                  "candidates scored)\n",
                  compact_size, expansion.seeds, expansion.rounds,
                  expansion.candidates_scored);
    out += buf;
  }
  if (ran(obs::ProfileStage::kSolve)) {
    std::snprintf(buf, sizeof(buf),
                  "solve: %zu iterations, residual %.3g%s\n",
                  solve.iterations, solve.relative_residual,
                  solve.converged ? "" : " (NOT CONVERGED)");
    out += buf;
  }
  if (ran(obs::ProfileStage::kSelection)) {
    std::snprintf(buf, sizeof(buf),
                  "selection: %zu rounds, %zu candidates scored\n",
                  hitting_rounds, candidates_scored);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), "personalized: %s, %zu suggestions\n",
                personalized ? "yes" : "no", suggestions_returned);
  out += buf;
  static const char* kRungNames[] = {"full", "truncated-solve", "walk-only",
                                     "cache-only"};
  std::snprintf(buf, sizeof(buf), "robustness: rung %zu (%s)%s\n",
                degradation_rung,
                degradation_rung < 4 ? kRungNames[degradation_rung] : "?",
                shed ? ", SHED" : "");
  out += buf;
  return out;
}

}  // namespace pqsda
