// Unit tests of the query-hash partition behind delta-aware cache
// validation, and of the cache behaviour it exists for:
//
//  1. Routing/partition units: query-hash routing is deterministic and
//     in-range; ownership covers every query exactly once; hot-row
//     replication honors its threshold; per-component content fingerprints
//     are id-renumbering-proof and move only for components whose slice
//     changed.
//  2. The components-read mask of the §IV-A expansion (CompactBuildStats::
//     components_read) against a reference computed here, on a hand-built
//     log: a zero-row-sum frontier row, a reached-but-never-admitted row
//     and the term-seeded path for unknown queries.
//  3. The engine-level contract: a delta that changes one validation
//     component invalidates only the cache entries that read it.

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/index_manager.h"
#include "core/pqsda_engine.h"
#include "graph/compact_builder.h"
#include "graph/shard_partition.h"
#include "obs/metrics.h"
#include "synthetic/generator.h"

namespace pqsda {
namespace {

// ------------------------------------------------------- shared rig ----

// Same structured synthetic log the ingest equivalence suite uses: enough
// co-session/co-click signal for multi-entry lists.
std::vector<QueryLogRecord> ShardLog() {
  GeneratorConfig config;
  config.num_users = 20;
  config.sessions_per_user_min = 6;
  config.sessions_per_user_max = 12;
  config.seed = 23;
  return GenerateLog(config).records;
}

// Finds a query string the router places on `shard` (the tests craft
// corpora with known shard geometry this way — hashes are opaque but
// queryable).
std::string QueryOnShard(const ShardRouter& router, size_t shard,
                         const std::string& stem) {
  for (int i = 0;; ++i) {
    std::string q = stem + std::to_string(i);
    if (router.QueryShardOf(q) == shard) return q;
  }
}

class ShardingTest : public testing::Test {};

// ------------------------------------------- routing / partitioning ----

TEST_F(ShardingTest, RouterIsDeterministicAndInRange) {
  ShardRouter router{4};
  std::vector<size_t> hits(4, 0);
  for (int i = 0; i < 64; ++i) {
    const std::string q = "probe query " + std::to_string(i);
    const size_t s = router.QueryShardOf(q);
    ASSERT_LT(s, 4u);
    EXPECT_EQ(s, router.QueryShardOf(q));  // stable
    ++hits[s];
  }
  // Not degenerate: 64 distinct strings must spread over >1 shard.
  EXPECT_GT(std::count_if(hits.begin(), hits.end(),
                          [](size_t h) { return h > 0; }),
            1);
  // N=1 routes everything to shard 0.
  ShardRouter single{1};
  EXPECT_EQ(single.QueryShardOf("anything"), 0u);
}

TEST_F(ShardingTest, PartitionOwnershipCoversEveryQueryExactlyOnce) {
  PqsdaEngineConfig config;
  config.personalize = false;
  auto snap = BuildIndexSnapshot(ShardLog(), config, 0);
  ASSERT_TRUE(snap.ok());
  const MultiBipartite& mb = *(*snap)->mb;

  ShardPartitionOptions options;
  options.shards = 4;
  options.hot_row_min_degree = 0;  // strict ownership
  const ShardPartition part = BuildShardPartition(mb, options);

  size_t owned = 0;
  for (const auto& shard : part.shard) owned += shard.owned_queries;
  EXPECT_EQ(owned, mb.num_queries());
  EXPECT_EQ(part.replicated_rows, 0u);

  ShardRouter router{4};
  for (StringId q = 0; q < mb.num_queries(); ++q) {
    const size_t owner = part.query_owner[q];
    EXPECT_EQ(owner, router.QueryShardOf(mb.QueryString(q)));
    for (size_t s = 0; s < 4; ++s) {
      EXPECT_EQ(part.Owns(s, q), s == owner);
      EXPECT_EQ(part.HasRow(s, q), s == owner);  // no hot rows
    }
  }

  // With a low threshold, hot rows exist and are readable everywhere while
  // ownership (and the owned_queries accounting) is unchanged.
  options.hot_row_min_degree = 2;
  const ShardPartition hot = BuildShardPartition(mb, options);
  EXPECT_GT(hot.replicated_rows, 0u);
  size_t hot_owned = 0;
  for (const auto& shard : hot.shard) hot_owned += shard.owned_queries;
  EXPECT_EQ(hot_owned, mb.num_queries());
  for (StringId q = 0; q < mb.num_queries(); ++q) {
    if (!hot.hot[q]) continue;
    for (size_t s = 0; s < 4; ++s) EXPECT_TRUE(hot.HasRow(s, q));
  }
}

// Two disjoint query clusters with known shard geometry (queries crafted
// onto shard 0 / shard 1 of the router), raw weighting so there is no
// global IQF coupling between them.
struct ClusterRig {
  explicit ClusterRig(size_t shards) : router{shards} {}
  ShardRouter router;
  std::vector<std::string> a;  // shard-0 cluster
  std::vector<std::string> b;  // shard-1 cluster
  std::vector<QueryLogRecord> records;
};

ClusterRig MakeClusterRig(size_t shards = 2) {
  ClusterRig rig(shards);
  for (int i = 0; i < 3; ++i) {
    rig.a.push_back(QueryOnShard(rig.router, 0, "alpha" + std::to_string(i)));
    rig.b.push_back(QueryOnShard(rig.router, 1, "beta" + std::to_string(i)));
  }
  // Co-session + co-click structure inside each cluster, nothing across.
  rig.records = {
      {1, rig.a[0], "ua0.com", 100},  {1, rig.a[1], "ua1.com", 150},
      {2, rig.a[1], "ua1.com", 100},  {2, rig.a[2], "ua2.com", 140},
      {7, rig.a[0], "ua0.com", 300},  {7, rig.a[2], "ua2.com", 360},
      {3, rig.b[0], "ub0.com", 100},  {3, rig.b[1], "ub1.com", 150},
      {4, rig.b[1], "ub1.com", 100},  {4, rig.b[2], "ub2.com", 140},
      {8, rig.b[0], "ub0.com", 300},  {8, rig.b[2], "ub2.com", 360},
  };
  return rig;
}

PqsdaEngineConfig ClusterConfig() {
  PqsdaEngineConfig config;
  config.personalize = false;
  config.weighting = EdgeWeighting::kRaw;
  config.cache_capacity = 0;
  return config;
}

// The ValidationVector the engine stored with `request`'s cache entry
// (empty when there is none). Reading it counts as a cache hit.
SuggestionCache::ValidationVector StoredComponents(
    const PqsdaEngine& engine, const SuggestionRequest& request) {
  SuggestionCache::ValidationVector stored;
  std::vector<Suggestion> list;
  engine.cache()->Lookup(
      SuggestionCache::KeyOf(request, 5), &list,
      [&stored](const SuggestionCache::ValidationVector& components) {
        stored = components;
        return CacheValidity::kValid;
      });
  return stored;
}

TEST_F(ShardingTest, ContentFingerprintMovesOnlyForTheChangedShard) {
  ClusterRig rig = MakeClusterRig();
  const auto config = ClusterConfig();
  ShardPartitionOptions options;
  options.shards = 2;
  options.hot_row_min_degree = 0;

  auto base = BuildIndexSnapshot(rig.records, config, 0);
  ASSERT_TRUE(base.ok());
  const ShardPartition part0 = BuildShardPartition(*(*base)->mb, options);

  // Same records again: fingerprints are a pure function of content.
  auto again = BuildIndexSnapshot(rig.records, config, 1);
  ASSERT_TRUE(again.ok());
  const ShardPartition part0b = BuildShardPartition(*(*again)->mb, options);
  EXPECT_EQ(part0.shard[0].content_fingerprint,
            part0b.shard[0].content_fingerprint);
  EXPECT_EQ(part0.shard[1].content_fingerprint,
            part0b.shard[1].content_fingerprint);

  // Add a shard-0 record: interned ids renumber globally, but shard 1's
  // slice is untouched content — its fingerprint must survive while
  // shard 0's moves. This is the property the cache validation vectors
  // stand on.
  auto grown = rig.records;
  grown.push_back({9, QueryOnShard(rig.router, 0, "alphadelta"),
                   "ua9.com", 500});
  auto next = BuildIndexSnapshot(grown, config, 1);
  ASSERT_TRUE(next.ok());
  const ShardPartition part1 = BuildShardPartition(*(*next)->mb, options);
  EXPECT_NE(part0.shard[0].content_fingerprint,
            part1.shard[0].content_fingerprint);
  EXPECT_EQ(part0.shard[1].content_fingerprint,
            part1.shard[1].content_fingerprint);
}

TEST_F(ShardingTest, EdgeCountChangeThroughSharedObjectMovesAdjacentShards) {
  // Regression (stale-cache hazard): the walk reads the *full* object->query
  // row — values and RowSum — of every object adjacent to a frontier row.
  // A change to an edge count c_zu on a query owned by shard 1 therefore
  // changes the contributions flowing through the shared object into
  // shard 0's rows, and shard 0's fingerprint must move even though no
  // shard-0 row was edited; otherwise shard 0's generation would survive
  // the rebuild and the cache's validation vector would pass on entries
  // whose served content the delta changed.
  ShardRouter router{2};
  const std::string a = QueryOnShard(router, 0, "alphaq");
  const std::string b = QueryOnShard(router, 1, "betaq");
  std::vector<QueryLogRecord> records = {
      {1, a, "shared.com", 100},
      {2, b, "shared.com", 100},
  };
  const auto config = ClusterConfig();
  ShardPartitionOptions options;
  options.shards = 2;
  options.hot_row_min_degree = 0;

  auto base = BuildIndexSnapshot(records, config, 0);
  ASSERT_TRUE(base.ok());
  const ShardPartition part0 = BuildShardPartition(*(*base)->mb, options);

  // A duplicate of b's click: no new query, URL, term or user — the only
  // content delta is the edge count c_{b,shared.com} (plus b's session
  // row), exactly the under-captured dependency.
  auto grown = records;
  grown.push_back({2, b, "shared.com", 130});
  auto next = BuildIndexSnapshot(grown, config, 1);
  ASSERT_TRUE(next.ok());
  const ShardPartition part1 = BuildShardPartition(*(*next)->mb, options);

  EXPECT_NE(part0.shard[1].content_fingerprint,
            part1.shard[1].content_fingerprint);
  // The crux: a's walk reads shared.com's whole o2q row, so shard 0's
  // served content changed too.
  EXPECT_NE(part0.shard[0].content_fingerprint,
            part1.shard[0].content_fingerprint);
}

// ------------------------------------------ components-read mask ----

// A query of stopwords only (no term row at all) that the router places on
// `shard`.
std::string StopwordQueryOnShard(const ShardRouter& router, size_t shard) {
  const char* kWords[] = {"the", "of", "a", "in", "to", "and", "for", "is"};
  for (const char* first : kWords) {
    for (const char* second : kWords) {
      std::string q = std::string(first) + " " + second;
      if (router.QueryShardOf(q) == shard) return q;
    }
  }
  ADD_FAILURE() << "no stopword query on shard " << shard;
  return "the";
}

// Reference of CompactBuildStats::components_read: the owners of every row
// the expansion reads — each executed round's frontier (round 1: the
// seeds; round r+1: every query round r reached through an object, as a
// set, without arithmetic) — and of the members it induces.
uint64_t ReferenceMask(const MultiBipartite& mb,
                       const std::vector<uint32_t>& owner,
                       const std::vector<StringId>& seeds, size_t rounds,
                       const std::vector<StringId>& members) {
  uint64_t mask = 0;
  std::set<StringId> frontier(seeds.begin(), seeds.end());
  for (size_t r = 0; r < rounds; ++r) {
    std::set<StringId> reached;
    for (StringId q : frontier) {
      mask |= uint64_t{1} << owner[q];
      for (BipartiteKind kind : kAllBipartites) {
        const CsrMatrix& q2o = mb.graph(kind).query_to_object();
        const CsrMatrix& o2q = mb.graph(kind).object_to_query();
        if (q2o.RowSum(q) <= 0.0) continue;
        for (uint32_t obj : q2o.RowIndices(q)) {
          if (o2q.RowSum(obj) <= 0.0) continue;
          for (uint32_t next : o2q.RowIndices(obj)) reached.insert(next);
        }
      }
    }
    frontier = std::move(reached);
  }
  for (StringId q : members) mask |= uint64_t{1} << owner[q];
  return mask;
}

uint64_t Bit(size_t component) { return uint64_t{1} << component; }

// Four queries on four distinct validation components: `near` and `far`
// share `input`'s click URL (near clicked twice, so it outranks far), and
// `silent` has no click and only stopwords — zero URL and term row sums.
struct MaskRig {
  ShardRouter router{kCacheValidationComponents};
  std::string input = QueryOnShard(router, 0, "input");
  std::string near = QueryOnShard(router, 1, "near");
  std::string far = QueryOnShard(router, 2, "far");
  std::string silent = StopwordQueryOnShard(router, 3);
  std::vector<QueryLogRecord> records = {
      {1, input, "u1.com", 100}, {2, near, "u1.com", 100},
      {3, near, "u1.com", 200},  {4, far, "u1.com", 100},
      {5, silent, "", 100}};
};

TEST_F(ShardingTest, ComponentsReadMaskMatchesReference) {
  MaskRig rig;
  auto snap = BuildIndexSnapshot(rig.records, ClusterConfig(), 0);
  ASSERT_TRUE(snap.ok());
  const MultiBipartite& mb = *(*snap)->mb;
  const std::vector<uint32_t>& owner = (*snap)->validation.query_owner;
  const CompactBuilder builder(mb, owner);
  const StringId input = mb.QueryId(rig.input);
  const StringId silent = mb.QueryId(rig.silent);
  ASSERT_EQ(mb.graph(BipartiteKind::kUrl).query_to_object().RowSum(silent),
            0.0);
  ASSERT_EQ(mb.graph(BipartiteKind::kTerm).query_to_object().RowSum(silent),
            0.0);

  // Budget of one admission: round 1 walks from {input, silent}, reaches
  // near and far, admits near and stops. far was reached but never
  // admitted, so its row — and its component — was never read.
  CompactBuilderOptions capped;
  capped.target_size = 3;
  CompactBuildStats stats;
  auto rep = builder.Build(input, {silent}, capped, &stats);
  ASSERT_TRUE(rep.ok());
  ASSERT_EQ(stats.rounds, 1u);
  ASSERT_EQ(rep->local_index.count(mb.QueryId(rig.near)), 1u);
  ASSERT_EQ(rep->local_index.count(mb.QueryId(rig.far)), 0u);
  EXPECT_EQ(stats.components_read,
            ReferenceMask(mb, owner, {input, silent}, stats.rounds,
                          rep->queries));
  EXPECT_EQ(stats.components_read, Bit(0) | Bit(1) | Bit(3));

  // Unbudgeted: the second round walks from everything reached.
  rep = builder.Build(input, {silent}, CompactBuilderOptions{}, &stats);
  ASSERT_TRUE(rep.ok());
  ASSERT_EQ(stats.rounds, 2u);
  EXPECT_EQ(stats.components_read,
            ReferenceMask(mb, owner, {input, silent}, stats.rounds,
                          rep->queries));
  EXPECT_EQ(stats.components_read, Bit(0) | Bit(1) | Bit(2) | Bit(3));

  // Without an owner map nothing is tracked.
  ASSERT_TRUE(CompactBuilder(mb).Build(input, {silent}, capped, &stats).ok());
  EXPECT_EQ(stats.components_read, 0u);
}

TEST_F(ShardingTest, TermSeededExpansionReportsItsReads) {
  MaskRig rig;
  auto built = BuildIndexSnapshot(rig.records, ClusterConfig(), 0);
  ASSERT_TRUE(built.ok());
  const IndexSnapshot* snap = built->get();
  const MultiBipartite& mb = *snap->mb;
  const std::vector<uint32_t>& owner = snap->validation.query_owner;

  // An unknown query sharing near's term: the expansion is seeded by the
  // term rows, not by a query row of its own.
  SuggestionRequest request;
  request.query = rig.near + " zzunknownzz";
  request.timestamp = 1000;
  ASSERT_EQ(mb.QueryId(request.query), kInvalidStringId);
  std::vector<StringId> seeds;
  for (const auto& [q, w] : snap->diversifier->TermMatchSeeds(request.query)) {
    seeds.push_back(q);
  }
  ASSERT_EQ(seeds, std::vector<StringId>{mb.QueryId(rig.near)});

  const PqsdaDiversifierOptions& options = snap->diversifier->options();
  CompactBuildStats stats;
  auto rep = CompactBuilder(mb, owner).BuildFromSeeds(seeds, options.compact,
                                                      &stats);
  ASSERT_TRUE(rep.ok());
  const uint64_t reference =
      ReferenceMask(mb, owner, seeds, stats.rounds, rep->queries);
  EXPECT_EQ(stats.components_read, reference);
  EXPECT_EQ(reference, Bit(0) | Bit(1) | Bit(2));  // silent is unreachable

  auto out = snap->diversifier->DiversifyWith(request, 5, options);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->components_read, reference);
}

// ------------------------------------------- cache validation ----

// Guards the validation tests below against passing vacuously: on a real
// log every cache fill records exactly the components its walk read plus
// the request's own — which owns the query string, and with it the
// unknown-ness of a term-seeded query — and some fills span several
// components.
TEST_F(ShardingTest, CacheFillsRecordEveryComponentTheWalkRead) {
  PqsdaEngineConfig config;
  config.personalize = false;
  config.cache_capacity = 64;
  auto engine = PqsdaEngine::Build(ShardLog(), config);
  ASSERT_TRUE(engine.ok());
  const auto snap = (*engine)->AcquireIndex();
  const ShardRouter router{kCacheValidationComponents};

  std::vector<SuggestionRequest> probes;
  std::set<std::string> seen;
  for (const QueryLogRecord& record : snap->records) {
    if (!seen.insert(record.query).second) continue;
    if (seen.size() > 12) break;
    SuggestionRequest request;
    request.query = record.query;
    request.timestamp = record.timestamp + 100;
    probes.push_back(request);
  }
  SuggestionRequest term_seeded = probes.front();
  term_seeded.query =
      term_seeded.query.substr(0, term_seeded.query.find(' ')) +
      " zzunknownzz";
  probes.push_back(term_seeded);

  size_t multi_component_fills = 0;
  for (const SuggestionRequest& request : probes) {
    auto out = snap->diversifier->DiversifyWith(
        request, 5, snap->diversifier->options());
    ASSERT_TRUE(out.ok());
    ASSERT_TRUE((*engine)->Suggest(request, 5).ok());
    const uint64_t read =
        out->components_read | Bit(router.QueryShardOf(request.query));
    SuggestionCache::ValidationVector expected;
    for (uint32_t c = 0; c < kCacheValidationComponents; ++c) {
      if (read & Bit(c)) expected.emplace_back(c, 0);
    }
    EXPECT_EQ(StoredComponents(**engine, request), expected)
        << request.query;
    if (expected.size() > 1) ++multi_component_fills;
  }
  EXPECT_GT(multi_component_fills, 0u);
}

TEST_F(ShardingTest, SingleShardSwapInvalidatesOnlyEntriesTouchingIt) {
  ClusterRig rig = MakeClusterRig(kCacheValidationComponents);
  auto config = ClusterConfig();
  config.cache_capacity = 32;
  auto engine = PqsdaEngine::Build(rig.records, config);
  ASSERT_TRUE(engine.ok());

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  obs::Counter& hits = reg.GetCounter("pqsda.cache.hits_total");
  obs::Counter& misses = reg.GetCounter("pqsda.cache.misses_total");
  obs::Counter& stale =
      reg.GetCounter("pqsda.cache.stale_invalidations_total");

  SuggestionRequest probe_a;
  probe_a.query = rig.a[0];
  probe_a.timestamp = 1000;
  SuggestionRequest probe_b;
  probe_b.query = rig.b[0];
  probe_b.timestamp = 1000;

  // Each cluster's expansion stays on its own component (the precondition
  // the crafted corpus exists for).
  ASSERT_TRUE((*engine)->Suggest(probe_a, 5).ok());
  ASSERT_TRUE((*engine)->Suggest(probe_b, 5).ok());
  ASSERT_EQ(StoredComponents(**engine, probe_a),
            (SuggestionCache::ValidationVector{{0, 0}}));
  ASSERT_EQ(StoredComponents(**engine, probe_b),
            (SuggestionCache::ValidationVector{{1, 0}}));

  const uint64_t hits0 = hits.Value();
  ASSERT_TRUE((*engine)->Suggest(probe_a, 5).ok());  // hit
  ASSERT_TRUE((*engine)->Suggest(probe_b, 5).ok());  // hit
  ASSERT_EQ(hits.Value(), hits0 + 2);

  // A component-0-only delta: a fresh query crafted onto component 0 (raw
  // weighting, so no global IQF coupling can reach component 1's rows).
  ASSERT_TRUE((*engine)
                  ->Ingest({9, QueryOnShard(rig.router, 0, "alphadelta"),
                            "ua9.com", 5000})
                  .ok());
  ASSERT_TRUE((*engine)->index_manager().RebuildNow().ok());
  const auto snap = (*engine)->AcquireIndex();
  ASSERT_EQ(snap->validation_generation[0], 1u);
  ASSERT_EQ(snap->validation_generation[1], 0u);

  // Component 1's generation survived the swap: probe_b's entry is still
  // valid. Component 0 moved: probe_a's entry is stale — detected at
  // lookup, erased, recomputed against the new generation.
  const uint64_t stale0 = stale.Value();
  ASSERT_TRUE((*engine)->Suggest(probe_b, 5).ok());
  EXPECT_EQ(hits.Value(), hits0 + 3);
  EXPECT_EQ(stale.Value(), stale0);

  const uint64_t misses_before_a = misses.Value();
  ASSERT_TRUE((*engine)->Suggest(probe_a, 5).ok());
  EXPECT_EQ(stale.Value(), stale0 + 1);
  EXPECT_EQ(misses.Value(), misses_before_a + 1);
  EXPECT_EQ(hits.Value(), hits0 + 3);  // no stale hit served

  // The recomputed entry caches under the new validation vector.
  ASSERT_TRUE((*engine)->Suggest(probe_a, 5).ok());
  EXPECT_EQ(hits.Value(), hits0 + 4);
  EXPECT_EQ(StoredComponents(**engine, probe_a),
            (SuggestionCache::ValidationVector{{0, 1}}));
}
}  // namespace
}  // namespace pqsda
