#ifndef PERFBENCH_REDRIVE_H_
#define PERFBENCH_REDRIVE_H_

// Re-execution of served requests and rebuilds through the library's public
// layer functions, so the benchmark can time each layer from its own code
// and check the results against what the engine served.

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/engine_config.h"
#include "core/index_manager.h"
#include "suggest/engine.h"
#include "trace.h"

namespace perfbench {

/// Work counts of one re-driven request.
struct RedriveCounts {
  size_t walk_steps = 0;
  size_t compact_size = 0;
  size_t solve_iterations = 0;
  size_t rounds = 0;
};

/// Re-runs one full-rung request on `snap` in the engine's order —
/// CompactBuilder::Build, BuildF0Into, SolveRegularization, BuildMergedChain,
/// one MergedChainHittingTimeInto per Algorithm 1 round, Personalizer::Rerank
/// — with the snapshot's diversifier options and ThreadPool::Shared(). Each
/// call is recorded as a span under `parent`. Returns the list the engine
/// serves for the request; InvalidArgument for an input query the log does
/// not hold (term-seeded requests are not re-driven).
pqsda::StatusOr<std::vector<pqsda::Suggestion>> RedriveRequest(
    const pqsda::IndexSnapshot& snap, const pqsda::SuggestionRequest& request,
    size_t k, SpanBuffer& buffer, uint64_t request_id, uint32_t parent,
    RedriveCounts* counts);

/// Cache-bypassed re-serve of one request on one pinned snapshot: the
/// snapshot's diversifier, then its personalizer for a known user.
pqsda::StatusOr<std::vector<pqsda::Suggestion>> ReServe(
    const pqsda::IndexSnapshot& snap, const pqsda::SuggestionRequest& request,
    size_t k);

/// Wall times of the rebuild constituents, run one after another on the
/// snapshot's record set with the engine's configuration.
struct RebuildSplit {
  double sessionize_ms = 0.0;
  double multi_bipartite_ms = 0.0;
  double corpus_ms = 0.0;
  double shard_partition_ms = 0.0;
  double upm_train_ms = 0.0;  // 0 when personalization is off
  /// The rebuilt partition's per-component content fingerprints equal the
  /// snapshot's `validation`.
  bool fingerprints_match = false;

  double total_ms() const {
    return sessionize_ms + multi_bipartite_ms + corpus_ms +
           shard_partition_ms + upm_train_ms;
  }
};

RebuildSplit TimeRebuildConstituents(const pqsda::IndexSnapshot& snap,
                                     const pqsda::PqsdaEngineConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_REDRIVE_H_
