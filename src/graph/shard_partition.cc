#include "graph/shard_partition.h"

#include <bit>

#include "graph/bipartite.h"
#include "graph/csr_matrix.h"

namespace pqsda {

namespace {

// Order-independent pairwise combine: the entries of a CSR row are listed
// in object-id order, and object ids (like query ids) are renumbered by
// every rebuild, so per-entry hashes must be combined commutatively
// (wrapping addition) to make the row fingerprint content-defined.
uint64_t Mix2(uint64_t a, uint64_t b) {
  return ShardRouter::Mix64(a ^ ShardRouter::Mix64(b));
}

uint64_t DoubleBits(double v) { return std::bit_cast<uint64_t>(v); }

}  // namespace

ShardPartition BuildShardPartition(const MultiBipartite& mb,
                                   const ShardPartitionOptions& options) {
  ShardPartition p;
  p.shards = options.shards < 1 ? 1 : options.shards;
  const size_t nq = mb.num_queries();
  p.query_owner.resize(nq);
  p.hot.assign(nq, 0);
  p.shard.resize(p.shards);

  ShardRouter router{p.shards};

  // Content hash of every query string (used both for the session-row
  // content hashes and for the per-row fingerprints).
  std::vector<uint64_t> query_hash(nq);
  for (StringId q = 0; q < nq; ++q) {
    query_hash[q] = ShardRouter::HashBytes(mb.QueryString(q));
  }

  // Content hash of every object, per bipartite: the object's identity
  // (URL/term string; sessions have none — their membership is their
  // identity) mixed with the *content* of its object->query row (query
  // string hashes + value bits, combined order-independently). The row
  // contents are part of every kind's hash, not just the session kind's,
  // because the walk reads the full o2q row — values and RowSum — of every
  // object adjacent to a frontier query: a changed edge count c_zu anywhere
  // in an object's row (a duplicate record, say) changes the contributions
  // flowing through that object to *every* adjacent query, including ones
  // owned by other shards, so it must perturb all of their row
  // fingerprints or the cache's per-shard validation vectors would pass on
  // stale entries.
  std::array<std::vector<uint64_t>, 3> obj_hash;
  for (BipartiteKind kind : kAllBipartites) {
    const size_t ki = static_cast<size_t>(kind);
    const CsrMatrix& o2q = mb.graph(kind).object_to_query();
    obj_hash[ki].resize(o2q.rows());
    for (size_t obj = 0; obj < o2q.rows(); ++obj) {
      uint64_t h = 0;
      if (kind == BipartiteKind::kUrl) {
        h = ShardRouter::HashBytes(mb.urls().Get(static_cast<StringId>(obj)));
      } else if (kind == BipartiteKind::kTerm) {
        h = ShardRouter::HashBytes(mb.terms().Get(static_cast<StringId>(obj)));
      }
      uint64_t row = 0;
      auto idx = o2q.RowIndices(obj);
      auto val = o2q.RowValues(obj);
      for (size_t k = 0; k < idx.size(); ++k) {
        row += Mix2(query_hash[idx[k]], DoubleBits(val[k]));
      }
      obj_hash[ki][obj] = Mix2(h, row);
    }
  }

  // Ownership, hot rows, and per-row fingerprints.
  std::vector<uint64_t> row_fp(nq);
  for (StringId q = 0; q < nq; ++q) {
    p.query_owner[q] =
        static_cast<uint32_t>(router.QueryShardOf(mb.QueryString(q)));
    size_t degree = 0;
    // Sequential FNV-style chain over the three per-kind row hashes: the
    // kind order is fixed, so a chain is safe here; only *within* a row is
    // the combine order-independent.
    uint64_t fp = query_hash[q];
    for (BipartiteKind kind : kAllBipartites) {
      const size_t ki = static_cast<size_t>(kind);
      const CsrMatrix& q2o = mb.graph(kind).query_to_object();
      auto idx = q2o.RowIndices(q);
      auto val = q2o.RowValues(q);
      degree += idx.size();
      uint64_t row = 0;
      for (size_t k = 0; k < idx.size(); ++k) {
        row += Mix2(obj_hash[ki][idx[k]], DoubleBits(val[k]));
      }
      fp = Mix2(fp, row);
    }
    row_fp[q] = fp;
    if (options.hot_row_min_degree > 0 &&
        degree >= options.hot_row_min_degree) {
      p.hot[q] = 1;
      ++p.replicated_rows;
    }
    ShardPartition::PerShard& owner = p.shard[p.query_owner[q]];
    ++owner.owned_queries;
    owner.owned_nnz += degree;
  }

  // Shard fingerprint: wrapping sum of the fingerprints of every row the
  // shard serves (owned rows plus the hot replicas — a hot row that changes
  // changes every shard's content, honestly).
  for (StringId q = 0; q < nq; ++q) {
    for (size_t s = 0; s < p.shards; ++s) {
      if (p.HasRow(s, q)) p.shard[s].content_fingerprint += row_fp[q];
    }
  }
  return p;
}

}  // namespace pqsda
