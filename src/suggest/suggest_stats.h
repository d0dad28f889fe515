#ifndef PQSDA_SUGGEST_SUGGEST_STATS_H_
#define PQSDA_SUGGEST_SUGGEST_STATS_H_

#include <cstdint>
#include <string>

#include "graph/compact_builder.h"
#include "obs/stage_profiler.h"
#include "solver/linear_solvers.h"

namespace pqsda {

/// Per-request pipeline breakdown, filled when a caller opts in by passing a
/// SuggestStats pointer to PqsdaEngine::Suggest or PqsdaDiversifier::
/// Diversify. The work counters come from the pipeline; the times come from
/// the engine's request record, so they are the same measurement /profilez,
/// /tracez and the request log show.
struct SuggestStats {
  /// Per-stage wall/CPU/work of the request, indexed by obs::ProfileStage
  /// ([kRequest] is the whole request). Filled by PqsdaEngine::Suggest only;
  /// a direct Diversify call leaves it zero — bracket it with
  /// StageProfiler::BeginRequest/EndRequest to time it.
  obs::StageCosts stages{};

  /// §IV-A expansion work (queries expanded, walk steps).
  CompactBuildStats expansion;
  /// Number of queries in the compact representation the stages ran on.
  size_t compact_size = 0;

  /// Eq. 15 solver outcome (iterations, residual at exit, converged).
  SolverResult solve;

  /// Algorithm 1 selection: rounds run and candidates scored across rounds.
  size_t hitting_rounds = 0;
  size_t candidates_scored = 0;

  /// Whether the UPM rerank (§V-B) ran for this request.
  bool personalized = false;
  size_t suggestions_returned = 0;

  /// Degradation rung the request was served at (DegradationRung numeric
  /// value: 0 full PQS-DA, 1 truncated solve, 2 walk-only, 3 cache-only).
  size_t degradation_rung = 0;
  /// True when admission control shed the request before any pipeline work.
  bool shed = false;
  /// True when the NotFound was answered by the negative-result cache — the
  /// engine never touched the index for this request.
  bool negative_cache_hit = false;

  int64_t stage_us(obs::ProfileStage stage) const {
    return stages[static_cast<size_t>(stage)].wall_ns / 1000;
  }
  int64_t total_us() const { return stage_us(obs::ProfileStage::kRequest); }

  /// Multi-line human-readable breakdown (stage times + counters), as
  /// printed by `suggest_cli --stats`.
  std::string Render() const;
};

}  // namespace pqsda

#endif  // PQSDA_SUGGEST_SUGGEST_STATS_H_
