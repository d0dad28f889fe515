#ifndef PQSDA_GRAPH_SHARD_PARTITION_H_
#define PQSDA_GRAPH_SHARD_PARTITION_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "graph/multi_bipartite.h"

namespace pqsda {

/// Deterministic query placement: queries route by a hash of their
/// *string*, never their interned id — ids shift between index generations
/// as fresh queries interleave into the log, and a placement that moved on
/// every rebuild would defeat the per-component generation accounting of
/// the cache. Pure, so the partition builder, the engine and the tests all
/// derive the same placement independently.
struct ShardRouter {
  size_t shards = 1;

  /// FNV-1a 64 over the bytes (the same family as obs::Fingerprint64, kept
  /// dependency-free here because the graph layer partitions with it).
  static uint64_t HashBytes(std::string_view s) {
    uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
      h ^= c;
      h *= 1099511628211ull;
    }
    return h;
  }

  /// SplitMix64 finalizer, the pairwise mixer of the content fingerprints.
  static uint64_t Mix64(uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  size_t QueryShardOf(std::string_view query) const {
    return shards <= 1 ? 0 : static_cast<size_t>(HashBytes(query) % shards);
  }
};

/// Partitioning knobs.
struct ShardPartitionOptions {
  size_t shards = 1;
  /// Query rows whose total query->object degree (summed over the three
  /// bipartites) reaches this are *hot boundary rows*: they are reached
  /// from nearly every expansion frontier, so they are replicated into
  /// every shard's slice (and fingerprint). 0 disables replication (strict
  /// ownership — what the engine's cache-validation partition uses).
  size_t hot_row_min_degree = 48;
};

/// A query-hash partition of one MultiBipartite: which shard owns each
/// query row, which rows are replicated everywhere, and a content
/// fingerprint per shard that detects whether a rebuild actually changed
/// the shard's slice of the graph.
///
/// The partition is a *view* over the immutable snapshot, not a physical
/// re-layout: it only assigns rows to shards. The engine uses it as the
/// component map of delta-aware cache validation — the §IV-A walk reports
/// which components' rows it read (CompactBuildStats::components_read), and
/// a rebuild bumps a component's generation only when its fingerprint moved.
struct ShardPartition {
  size_t shards = 1;
  /// Owning shard of each global query id (ShardRouter::QueryShardOf over
  /// the query *string*, so ownership survives id renumbering between
  /// generations).
  std::vector<uint32_t> query_owner;
  /// 1 for hot boundary rows replicated to every shard.
  std::vector<uint8_t> hot;
  size_t replicated_rows = 0;

  struct PerShard {
    size_t owned_queries = 0;
    /// query->object nonzeros of the owned rows, summed over the three
    /// bipartites (the shard's share of the walkable graph).
    size_t owned_nnz = 0;
    /// Content fingerprint of everything this shard serves (owned + hot
    /// rows). Defined over query/URL/term *strings* and the full
    /// object->query row contents of every adjacent object — never
    /// interned ids — and combined order-independently, so it is stable
    /// under the id renumbering a rebuild may cause and changes exactly
    /// when the data a walk through the shard's rows can read changes.
    /// Covering adjacent objects' whole rows (not just their identities)
    /// matters: an edge-count delta on a query owned by another shard
    /// still changes the contributions flowing through a shared object
    /// into this shard's rows. The engine bumps a component's generation
    /// only on a fingerprint change, which is what lets a single-component
    /// delta invalidate only the cache entries whose served content it
    /// could actually have affected.
    uint64_t content_fingerprint = 0;
  };
  std::vector<PerShard> shard;

  bool Owns(size_t s, StringId q) const { return query_owner[q] == s; }
  /// Whether query row `q` is part of shard `s`'s slice (owned or hot).
  bool HasRow(size_t s, StringId q) const {
    return query_owner[q] == s || hot[q] != 0;
  }
};

/// Partitions `mb` into `options.shards` shards. Deterministic: same
/// representation and options, same partition (including fingerprints).
ShardPartition BuildShardPartition(const MultiBipartite& mb,
                                   const ShardPartitionOptions& options);

}  // namespace pqsda

#endif  // PQSDA_GRAPH_SHARD_PARTITION_H_
