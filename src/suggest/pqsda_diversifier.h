#ifndef PQSDA_SUGGEST_PQSDA_DIVERSIFIER_H_
#define PQSDA_SUGGEST_PQSDA_DIVERSIFIER_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/compact_builder.h"
#include "graph/multi_bipartite.h"
#include "solver/regularization.h"
#include "suggest/engine.h"
#include "suggest/hitting_time_suggester.h"
#include "suggest/suggest_stats.h"

namespace pqsda {

/// Options for the PQS-DA diversification component (§IV).
struct PqsdaDiversifierOptions {
  CompactBuilderOptions compact;
  RegularizationOptions regularization;
  /// Truncation horizon l of the cross-bipartite hitting time (Algorithm 1).
  size_t hitting_iterations = 20;
  /// Mixing weights of the U/S/T chains in the cross-bipartite walk (the
  /// paper's no-prior-knowledge N_k is uniform; the representation ablation
  /// zeroes individual bipartites).
  std::array<double, 3> chain_weights = {1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0};
  /// The argmax of Algorithm 1 is taken over the top-`candidate_pool`
  /// queries by F* relevance, so diversity never strays into queries with no
  /// affinity to the input at all. This is the diversity/relevance dial:
  /// larger pools diversify more aggressively at the cost of tail relevance.
  size_t candidate_pool = 40;
  /// Walk-only degradation rung: skip the Eq. 15 solve and Algorithm 1
  /// entirely and rank the compact queries by one mixing step of the
  /// cross-bipartite random walk from the seed vector F^0 — the cheapest
  /// answer that still reflects the input's neighborhood. Deterministic,
  /// like the full pipeline.
  bool walk_only = false;
};

/// Marks the non-candidates of a diversification run: the input query (when
/// the compact-budget walk admitted it) and its context queries. An input or
/// context query absent from `rep` is simply not excluded — never a crash;
/// historically an unadmitted input turned into an uncaught
/// std::out_of_range on the request path. Public for tests.
std::vector<bool> ExcludedCandidates(const CompactRepresentation& rep,
                                     StringId input,
                                     const std::vector<StringId>& context);

/// Diagnostics-rich output of one diversification run.
struct DiversificationOutput {
  /// Selected candidates, in selection (= relevance) order.
  std::vector<Suggestion> candidates;
  /// F* relevance of every compact-representation query (Eq. 15 solution).
  std::vector<double> relevance;
  /// Global query ids of the compact representation rows.
  std::vector<StringId> compact_queries;
  /// CompactBuildStats::components_read of the expansion (0 without an
  /// owner map).
  uint64_t components_read = 0;
};

/// The diversification component of PQS-DA (§IV): compact multi-bipartite
/// construction, regularization-framework first candidate (Eq. 15), then
/// iterative selection of the remaining K-1 candidates by largest
/// cross-bipartite hitting time to the already-selected set (Algorithm 1).
class PqsdaDiversifier : public SuggestionEngine {
 public:
  /// `query_owner`, when non-empty, is the component map the §IV-A
  /// expansion reports its reads against (DiversificationOutput::
  /// components_read; see CompactBuilder). It must outlive the diversifier.
  explicit PqsdaDiversifier(const MultiBipartite& mb,
                            PqsdaDiversifierOptions options = {},
                            std::span<const uint32_t> query_owner = {});

  std::string name() const override { return "PQS-DA"; }

  StatusOr<std::vector<Suggestion>> Suggest(const SuggestionRequest& request,
                                            size_t k) const override;

  /// Full-output variant of Suggest. When `stats` is non-null the call
  /// additionally records the expansion/solver/selection work counters into
  /// it. Stage times go to the caller's StageProfiler bracket (the engine's
  /// request record), not to `stats`.
  StatusOr<DiversificationOutput> Diversify(const SuggestionRequest& request,
                                            size_t k,
                                            SuggestStats* stats = nullptr) const;

  /// Diversify under explicit per-call options — how the engine's
  /// degradation ladder serves the truncated and walk-only rungs without
  /// rebuilding the diversifier. `request.cancel`, when set, is polled
  /// between stages, inside the solver and per selection round; on
  /// cancellation/expiry the call returns kCancelled/kDeadlineExceeded and
  /// never a partial candidate list.
  StatusOr<DiversificationOutput> DiversifyWith(
      const SuggestionRequest& request, size_t k,
      const PqsdaDiversifierOptions& options,
      SuggestStats* stats = nullptr) const;

  const PqsdaDiversifierOptions& options() const { return options_; }

  /// For an input string absent from the log: the queries sharing its terms,
  /// scored by term-bipartite edge weight (descending, capped at 8). Public
  /// for tests.
  std::vector<std::pair<StringId, double>> TermMatchSeeds(
      const std::string& query) const;

 private:
  const MultiBipartite* mb_;
  PqsdaDiversifierOptions options_;
  CompactBuilder builder_;
};

}  // namespace pqsda

#endif  // PQSDA_SUGGEST_PQSDA_DIVERSIFIER_H_
