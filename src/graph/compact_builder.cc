#include "graph/compact_builder.h"

#include <algorithm>
#include <cmath>

namespace pqsda {

namespace {

// One walk step from `mass` (global query id -> probability) through one
// bipartite: q -> object -> q', using row-normalized transitions. Results are
// accumulated into `out`. The flat maps iterate in insertion order, so the
// accumulation order — and with it the admitted set — is deterministic.
void StepThroughBipartite(const BipartiteGraph& g,
                          const FlatMap<StringId, double>& mass,
                          double scale, FlatMap<StringId, double>& out) {
  const CsrMatrix& q2o = g.query_to_object();
  const CsrMatrix& o2q = g.object_to_query();
  for (const auto& [q, p] : mass) {
    double row_sum = q2o.RowSum(q);
    if (row_sum <= 0.0) continue;
    auto obj_idx = q2o.RowIndices(q);
    auto obj_val = q2o.RowValues(q);
    for (size_t k = 0; k < obj_idx.size(); ++k) {
      double p_obj = obj_val[k] / row_sum;
      uint32_t obj = obj_idx[k];
      double obj_sum = o2q.RowSum(obj);
      if (obj_sum <= 0.0) continue;
      auto q_idx = o2q.RowIndices(obj);
      auto q_val = o2q.RowValues(obj);
      for (size_t k2 = 0; k2 < q_idx.size(); ++k2) {
        out[q_idx[k2]] += scale * p * p_obj * q_val[k2] / obj_sum;
      }
    }
  }
}

}  // namespace

StatusOr<CompactRepresentation> CompactBuilder::Build(
    StringId input_query, const std::vector<StringId>& context,
    const CompactBuilderOptions& options, CompactBuildStats* stats) const {
  if (input_query >= mb_->num_queries()) {
    return Status::InvalidArgument("input query id out of range");
  }
  std::vector<StringId> seeds = {input_query};
  for (StringId c : context) {
    if (c < mb_->num_queries()) seeds.push_back(c);
  }
  return BuildFromSeeds(seeds, options, stats);
}

StatusOr<CompactRepresentation> CompactBuilder::BuildFromSeeds(
    const std::vector<StringId>& seeds, const CompactBuilderOptions& options,
    CompactBuildStats* stats) const {
  if (seeds.empty()) {
    return Status::InvalidArgument("seed set must not be empty");
  }
  for (StringId s : seeds) {
    if (s >= mb_->num_queries()) {
      return Status::InvalidArgument("seed query id out of range");
    }
  }
  if (options.target_size == 0) {
    return Status::InvalidArgument("target_size must be positive");
  }

  CompactRepresentation rep;
  const bool track = stats != nullptr && !query_owner_.empty();
  auto mark = [&](StringId q) {
    stats->components_read |= uint64_t{1} << query_owner_[q];
  };
  auto add_query = [&rep](StringId q) {
    if (rep.local_index.count(q) > 0) return;
    rep.local_index.emplace(q, static_cast<uint32_t>(rep.queries.size()));
    rep.queries.push_back(q);
  };
  for (StringId s : seeds) add_query(s);
  if (stats != nullptr) {
    *stats = CompactBuildStats{};
    stats->seeds = rep.queries.size();
  }

  // Expansion: accumulate two-step walk probability from the current member
  // set, averaged over the three bipartites; each round admits the
  // highest-scoring outsiders.
  FlatMap<StringId, double> mass;
  for (StringId q : rep.queries) {
    mass[q] = 1.0 / static_cast<double>(rep.queries.size());
  }
  for (size_t round = 0;
       round < options.max_rounds && rep.queries.size() < options.target_size;
       ++round) {
    FlatMap<StringId, double> reached;
    for (BipartiteKind kind : kAllBipartites) {
      StepThroughBipartite(mb_->graph(kind), mass, 1.0 / 3.0, reached);
    }
    if (stats != nullptr) {
      ++stats->rounds;
      stats->walk_steps += 3;
      // Every frontier row was read, whether or not it had mass to pass on.
      if (track) {
        for (const auto& entry : mass) mark(entry.first);
      }
    }
    std::vector<std::pair<double, StringId>> outsiders;
    for (const auto& [q, p] : reached) {
      if (rep.local_index.count(q) == 0) outsiders.emplace_back(p, q);
    }
    if (stats != nullptr) stats->candidates_scored += outsiders.size();
    if (outsiders.empty()) break;
    size_t admit = options.target_size - rep.queries.size();
    if (outsiders.size() > admit) {
      std::partial_sort(outsiders.begin(), outsiders.begin() + admit,
                        outsiders.end(), std::greater<>());
      outsiders.resize(admit);
    } else {
      std::sort(outsiders.begin(), outsiders.end(), std::greater<>());
    }
    for (const auto& [p, q] : outsiders) add_query(q);
    if (stats != nullptr) stats->queries_admitted += outsiders.size();
    // Next round walks from everything reached (members included) so deeper
    // neighborhoods can surface.
    mass = std::move(reached);
  }

  // Induce local W^X on the member queries; objects are re-indexed to those
  // actually touched.
  if (track) {
    for (StringId q : rep.queries) mark(q);
  }
  for (BipartiteKind kind : kAllBipartites) {
    size_t ki = static_cast<size_t>(kind);
    const CsrMatrix& q2o = mb_->graph(kind).query_to_object();
    FlatMap<uint32_t, uint32_t> object_index;
    std::vector<Triplet> triplets;
    for (uint32_t local = 0; local < rep.queries.size(); ++local) {
      StringId global = rep.queries[local];
      auto idx = q2o.RowIndices(global);
      auto val = q2o.RowValues(global);
      for (size_t k = 0; k < idx.size(); ++k) {
        auto [it, inserted] = object_index.emplace(
            idx[k], static_cast<uint32_t>(object_index.size()));
        triplets.push_back(Triplet{local, it->second, val[k]});
      }
    }
    rep.w[ki] = CsrMatrix::FromTriplets(rep.queries.size(),
                                        object_index.size(),
                                        std::move(triplets));
    rep.affinity[ki] = rep.w[ki].MultiplySelfTranspose();

    // S^X = D^{-1/2} A D^{-1/2} with D = diag(rowsum(A)).
    const CsrMatrix& a = rep.affinity[ki];
    std::vector<double> inv_sqrt(rep.queries.size(), 0.0);
    for (size_t i = 0; i < rep.queries.size(); ++i) {
      double d = a.RowSum(i);
      inv_sqrt[i] = d > 0.0 ? 1.0 / std::sqrt(d) : 0.0;
    }
    std::vector<Triplet> sym;
    for (uint32_t i = 0; i < rep.queries.size(); ++i) {
      auto idx = a.RowIndices(i);
      auto val = a.RowValues(i);
      for (size_t k = 0; k < idx.size(); ++k) {
        sym.push_back(
            Triplet{i, idx[k], val[k] * inv_sqrt[i] * inv_sqrt[idx[k]]});
      }
    }
    rep.sym_norm[ki] = CsrMatrix::FromTriplets(rep.queries.size(),
                                               rep.queries.size(),
                                               std::move(sym));
    rep.row_norm[ki] = a.RowNormalized();
  }
  return rep;
}

}  // namespace pqsda
