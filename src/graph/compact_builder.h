#ifndef PQSDA_GRAPH_COMPACT_BUILDER_H_
#define PQSDA_GRAPH_COMPACT_BUILDER_H_

#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "common/flat_hash.h"
#include "common/status.h"
#include "graph/csr_matrix.h"
#include "graph/multi_bipartite.h"

namespace pqsda {

/// The compact multi-bipartite representation of §IV-A: the sub-multi-
/// bipartite induced by the ~Q queries most reachable from the input query
/// and its search context, with the derived per-bipartite matrices the
/// downstream algorithms need.
struct CompactRepresentation {
  /// Local index -> global query id. Entry 0.. are the seeds in seed order.
  std::vector<StringId> queries;
  /// Global query id -> local index. Flat open-addressing map: the suggest
  /// path probes it per candidate (seed construction, exclusion checks), so
  /// lookups stay one cache line instead of a node chase.
  FlatMap<StringId, uint32_t> local_index;
  /// W^X: local queries x local objects, weights copied from the full
  /// representation (raw or cfiqf according to the source MultiBipartite).
  std::array<CsrMatrix, 3> w;
  /// A^X = W^X W^{X^T}: query-affinity through shared objects.
  std::array<CsrMatrix, 3> affinity;
  /// S^X = D^{-1/2} A^X D^{-1/2}: symmetric-normalized affinity used by the
  /// smoothness constraint (Eq. 9) and the linear system (Eq. 15).
  std::array<CsrMatrix, 3> sym_norm;
  /// P^X = row-normalized A^X: intra-bipartite transition probabilities
  /// p^X(q_a | q_b) used by the cross-bipartite hitting time (§IV-C).
  std::array<CsrMatrix, 3> row_norm;

  size_t size() const { return queries.size(); }

  const CsrMatrix& W(BipartiteKind k) const {
    return w[static_cast<size_t>(k)];
  }
  const CsrMatrix& S(BipartiteKind k) const {
    return sym_norm[static_cast<size_t>(k)];
  }
  const CsrMatrix& P(BipartiteKind k) const {
    return row_norm[static_cast<size_t>(k)];
  }
};

/// Options for the expansion.
struct CompactBuilderOptions {
  /// Desired number of queries in the compact representation (the paper's Q).
  size_t target_size = 400;
  /// Maximum expansion rounds (each round is one random-walk step from the
  /// whole frontier).
  size_t max_rounds = 6;
};

/// Work counters of one compact-representation build, filled when the caller
/// passes a stats pointer (the observability layer's hook into §IV-A
/// expansion; the graph layer itself stays metrics-free).
struct CompactBuildStats {
  /// Seed queries the expansion started from.
  size_t seeds = 0;
  /// Expansion rounds actually executed (<= max_rounds).
  size_t rounds = 0;
  /// Two-step walk passes through a bipartite (3 per round).
  size_t walk_steps = 0;
  /// Outsider queries scored across all rounds (admitted or not).
  size_t candidates_scored = 0;
  /// Queries admitted beyond the seeds.
  size_t queries_admitted = 0;
  /// Components-read bitmask, filled only when the builder has an owner
  /// map: bit c is set when the build read a row of a query owned by
  /// component c — every row of every executed round's walk frontier
  /// (zero-sum rows included) and every member row the induction copies.
  /// The delta-aware cache records exactly these components' generations.
  uint64_t components_read = 0;
};

/// Expands the seed set (input query + search context) through the full
/// multi-bipartite representation, scoring candidate queries by accumulated
/// two-step walk probability (query -> object -> query averaged over the
/// three bipartites), and induces the compact representation on the best
/// `target_size` queries.
class CompactBuilder {
 public:
  /// `query_owner`, when non-empty, maps every global query id of `mb` to
  /// its component (< 64) and turns on CompactBuildStats::components_read.
  /// The span must outlive the builder.
  explicit CompactBuilder(const MultiBipartite& mb,
                          std::span<const uint32_t> query_owner = {})
      : mb_(&mb), query_owner_(query_owner) {}

  /// `input_query` must be a valid query id of the source representation;
  /// context ids that are invalid are skipped. `stats`, when non-null,
  /// receives the expansion work counters.
  StatusOr<CompactRepresentation> Build(
      StringId input_query, const std::vector<StringId>& context,
      const CompactBuilderOptions& options,
      CompactBuildStats* stats = nullptr) const;

  /// Seed-set variant: expands from an arbitrary non-empty set of valid
  /// query ids (used for unknown input queries, which are seeded by their
  /// term-bipartite matches).
  StatusOr<CompactRepresentation> BuildFromSeeds(
      const std::vector<StringId>& seeds, const CompactBuilderOptions& options,
      CompactBuildStats* stats = nullptr) const;

 private:
  const MultiBipartite* mb_;
  std::span<const uint32_t> query_owner_;
};

}  // namespace pqsda

#endif  // PQSDA_GRAPH_COMPACT_BUILDER_H_
