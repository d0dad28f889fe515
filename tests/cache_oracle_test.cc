// The result-cache acceptance suite: a model-checked LRU-and-staleness
// oracle in four clusters.
//
//  1. Differential LRU oracle: a one-shard SuggestionCache is driven through
//     randomized op traces — Zipf, uniform, scan, loop mixes with
//     out-of-band erases (a validating Lookup that grades kStale) and
//     clears, across a capacity matrix — in lockstep with a transparent
//     reference LRU. Every externally observable decision must be
//     identical: hit/miss, the served list, which keys were evicted (the
//     evictions counter and residency), the stale invalidations and the
//     resident count.
//  2. SuggestionCache composition: the sharded cache over any shard count
//     must equal the composition of per-shard reference LRUs routed by the
//     same key hash, for hits, misses and total size.
//  3. Validation semantics: the tri-state CacheValidity contract — kValid
//     serves, kStale erases exactly once, kMismatch (mid-swap: entry newer
//     than the reader's pinned snapshot) misses but stays resident — for
//     both the positive and the negative cache.
//  4. The staleness property: under randomized interleavings of ingest
//     deltas, rebuild swaps, warmup replays and Suggest traffic
//     (single-threaded schedules and a concurrent storm), every request the
//     engine answered — cache hits included — replays bitwise-identical
//     against its pinned generation with the cache bypassed. A cache that
//     ever served a stale or wrong list fails the fingerprint comparison.
//
// This file is part of the TSAN/ASan suites run_benches.sh re-runs, and
// ctest additionally re-runs clusters 1 and 2 under a fixed seed matrix
// (--gtest_random_seed); the trace generator derives from that seed.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/index_manager.h"
#include "core/pqsda_engine.h"
#include "obs/explain.h"
#include "obs/metrics.h"
#include "obs/request_log.h"
#include "obs/telemetry.h"
#include "suggest/suggestion_cache.h"

namespace pqsda {
namespace {

using obs::ExplainRecord;
using obs::RequestLogEntry;

uint64_t CounterValue(const std::string& name) {
  return obs::MetricsRegistry::Default().GetCounter(name).Value();
}

std::vector<Suggestion> ListFor(const std::string& key) {
  return {{key, 1.0}, {key + "+alt", 0.5}};
}

// ================================================================ oracle ====
//
// A transparent reference LRU over a plain vector, sharing no code with
// src/suggest/suggestion_cache.cc. Everything is O(n) per op on purpose: the
// reference optimizes for being obviously correct, not fast.

struct RefDecision {
  bool hit = false;
  std::vector<std::string> evicted;
};

bool Contains(const std::vector<std::string>& v, const std::string& key) {
  return std::find(v.begin(), v.end(), key) != v.end();
}

void Remove(std::vector<std::string>* v, const std::string& key) {
  v->erase(std::remove(v->begin(), v->end(), key), v->end());
}

class RefLru {
 public:
  explicit RefLru(size_t cap) : cap_(std::max<size_t>(cap, 1)) {}

  RefDecision Access(const std::string& key) {
    RefDecision d;
    if (Contains(mru_, key)) {
      d.hit = true;
      Remove(&mru_, key);
      mru_.insert(mru_.begin(), key);
      return d;
    }
    mru_.insert(mru_.begin(), key);
    while (mru_.size() > cap_) {
      d.evicted.push_back(mru_.back());
      mru_.pop_back();
    }
    return d;
  }

  void Erase(const std::string& key) { Remove(&mru_, key); }
  void Clear() { mru_.clear(); }
  bool IsResident(const std::string& key) const { return Contains(mru_, key); }
  size_t Resident() const { return mru_.size(); }

 private:
  size_t cap_;
  std::vector<std::string> mru_;  // front = MRU
};

// --------------------------------------------------------------- traces ----

struct TraceOp {
  enum Kind { kAccess, kErase, kClear };
  Kind kind = kAccess;
  std::string key;
};

enum class TracePattern { kUniform, kZipf, kScan, kHotLoop };

// `pattern` shapes the access stream; every trace additionally mixes in
// out-of-band erases (~6%, the invalidation path) and rare Clears.
std::vector<TraceOp> MakeTrace(std::mt19937* rng, size_t ops, size_t key_space,
                               size_t capacity, TracePattern pattern) {
  std::vector<TraceOp> trace;
  trace.reserve(ops);
  std::uniform_int_distribution<size_t> uniform(0, key_space - 1);
  std::vector<double> zipf_weights;
  for (size_t i = 0; i < key_space; ++i) {
    zipf_weights.push_back(1.0 / static_cast<double>(i + 1));
  }
  std::discrete_distribution<size_t> zipf(zipf_weights.begin(),
                                          zipf_weights.end());
  std::uniform_int_distribution<int> pct(0, 99);
  size_t scan_next = 0;
  for (size_t i = 0; i < ops; ++i) {
    const int roll = pct(*rng);
    TraceOp op;
    if (roll < 1) {
      op.kind = TraceOp::kClear;
      trace.push_back(op);
      continue;
    }
    size_t key = 0;
    switch (pattern) {
      case TracePattern::kUniform:
        key = uniform(*rng);
        break;
      case TracePattern::kZipf:
        key = zipf(*rng);
        break;
      case TracePattern::kScan:
        // Zipf head with periodic cold sweeps — the pattern that flushes
        // the head out of an LRU.
        if (i % 4 == 3) {
          key = key_space + (scan_next++ % (4 * key_space));
        } else {
          key = zipf(*rng);
        }
        break;
      case TracePattern::kHotLoop:
        // A loop one larger than the capacity (LRU's pathological case)
        // mixed with uniform noise.
        key = (roll % 2 == 0) ? (i % (capacity + 1)) : uniform(*rng);
        break;
      default:
        ADD_FAILURE() << "unhandled TracePattern "
                      << static_cast<int>(pattern);
        break;
    }
    op.kind = roll < 7 ? TraceOp::kErase : TraceOp::kAccess;
    op.key = "q" + std::to_string(key);
    trace.push_back(op);
  }
  return trace;
}

int OracleSeed() {
  // --gtest_random_seed=N makes the whole oracle matrix reproducible; the
  // default 0 is itself a fixed, valid seed.
  return testing::UnitTest::GetInstance()->random_seed();
}

// Drives a one-shard SuggestionCache and the reference LRU through one trace
// in lockstep, comparing every observable decision. An erase is the cache's
// out-of-band path: a validating Lookup whose validator answers kStale,
// which must erase a resident entry exactly once. Entries carry one
// component so the validator runs.
void RunDifferential(size_t capacity, const std::vector<TraceOp>& trace) {
  SuggestionCacheOptions options;
  options.capacity = capacity;
  options.shards = 1;
  SuggestionCache cache(options);
  ASSERT_EQ(cache.capacity(), std::max<size_t>(capacity, 1));
  RefLru ref(capacity);
  const SuggestionCache::Validator stale =
      [](const SuggestionCache::ValidationVector&) {
        return CacheValidity::kStale;
      };
  for (size_t i = 0; i < trace.size(); ++i) {
    const TraceOp& op = trace[i];
    SCOPED_TRACE("op " + std::to_string(i) + " key " + op.key);
    std::vector<Suggestion> out;
    switch (op.kind) {
      case TraceOp::kClear:
        cache.Clear();
        ref.Clear();
        break;
      case TraceOp::kErase: {
        const uint64_t stale_before =
            CounterValue("pqsda.cache.stale_invalidations_total");
        const bool resident = ref.IsResident(op.key);
        ASSERT_FALSE(cache.Lookup(op.key, &out, stale));
        ref.Erase(op.key);
        ASSERT_EQ(CounterValue("pqsda.cache.stale_invalidations_total") -
                      stale_before,
                  resident ? 1u : 0u);
        break;
      }
      case TraceOp::kAccess: {
        const uint64_t evictions_before =
            CounterValue("pqsda.cache.evictions_total");
        const bool hit = cache.Lookup(op.key, &out);
        const RefDecision d = ref.Access(op.key);
        ASSERT_EQ(hit, d.hit);
        if (hit) {
          ASSERT_EQ(out, ListFor(op.key));
        } else {
          cache.Insert(op.key, ListFor(op.key), {{0, 1}});
        }
        ASSERT_EQ(CounterValue("pqsda.cache.evictions_total") -
                      evictions_before,
                  d.evicted.size());
        // The victim is the reference's: it misses now (a miss leaves the
        // LRU order untouched).
        for (const std::string& victim : d.evicted) {
          ASSERT_FALSE(cache.Lookup(victim, nullptr)) << "kept " << victim;
        }
        break;
      }
    }
    ASSERT_EQ(cache.size(), ref.Resident());
  }
}

TEST(LruCacheOracleTest, DifferentialAgainstReferenceLru) {
  const int seed = OracleSeed();
  SCOPED_TRACE("gtest_random_seed " + std::to_string(seed));
  const size_t capacities[] = {1, 2, 3, 4, 7, 16, 64};
  const TracePattern patterns[] = {TracePattern::kUniform, TracePattern::kZipf,
                                   TracePattern::kScan,
                                   TracePattern::kHotLoop};
  for (size_t capacity : capacities) {
    for (TracePattern pattern : patterns) {
      SCOPED_TRACE("capacity " + std::to_string(capacity) + " pattern " +
                   std::to_string(static_cast<int>(pattern)));
      // Key space a small multiple of capacity keeps eviction pressure
      // active; an independent stream per cell.
      std::mt19937 rng(static_cast<uint32_t>(seed) * 2654435761u +
                       static_cast<uint32_t>(capacity) * 97u +
                       static_cast<uint32_t>(pattern));
      const size_t key_space = std::max<size_t>(3 * capacity, 6);
      RunDifferential(capacity,
                      MakeTrace(&rng, 1500, key_space, capacity, pattern));
    }
  }
}

// =========================================================== composition ====

// The sharded cache must equal the composition of per-shard reference LRUs
// routed by the same key hash, for every shard count.
TEST(SuggestionCacheShardingOracleTest, MatchesPerShardReferenceComposition) {
  const int seed = OracleSeed();
  for (size_t shards : {1u, 2u, 3u, 8u}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    const size_t capacity = 24;
    SuggestionCacheOptions options;
    options.capacity = capacity;
    options.shards = shards;
    SuggestionCache cache(options);
    // Production rounds the budget up to shards * ceil(capacity/shards).
    const size_t per_shard = (capacity + shards - 1) / shards;
    ASSERT_EQ(cache.capacity(), per_shard * shards);
    std::vector<RefLru> ref(shards, RefLru(per_shard));
    std::mt19937 rng(static_cast<uint32_t>(seed) * 31u +
                     static_cast<uint32_t>(shards));
    const auto trace = MakeTrace(&rng, 1200, /*key_space=*/64, capacity,
                                 TracePattern::kZipf);
    for (size_t i = 0; i < trace.size(); ++i) {
      const TraceOp& op = trace[i];
      if (op.kind != TraceOp::kAccess) continue;
      SCOPED_TRACE("op " + std::to_string(i) + " key " + op.key);
      const SuggestionCache::CacheKey key(op.key);
      RefLru& shard_ref = ref[key.hash % shards];
      std::vector<Suggestion> out;
      const bool hit = cache.Lookup(key, &out);
      const RefDecision d = shard_ref.Access(op.key);
      ASSERT_EQ(hit, d.hit);
      if (hit) {
        // A hit returns exactly the inserted list.
        ASSERT_EQ(out, ListFor(op.key));
      } else {
        cache.Insert(key, ListFor(op.key));
      }
      size_t want_size = 0;
      for (const RefLru& r : ref) want_size += r.Resident();
      ASSERT_EQ(cache.size(), want_size);
    }
  }
}

// ============================================================ validation ====

SuggestionCache::Validator ValidatorFor(uint64_t current_gen) {
  return [current_gen](const SuggestionCache::ValidationVector& components)
             -> CacheValidity {
    bool stale = false;
    for (const auto& [component, gen] : components) {
      (void)component;
      if (gen > current_gen) return CacheValidity::kMismatch;
      if (gen < current_gen) stale = true;
    }
    return stale ? CacheValidity::kStale : CacheValidity::kValid;
  };
}

TEST(CacheValidationTest, TriStateContract) {
  SuggestionCacheOptions options;
  options.capacity = 8;
  options.shards = 1;
  SuggestionCache cache(options);
  std::vector<Suggestion> out;

  // kValid: components at the reader's generations serve.
  cache.Insert("valid", ListFor("valid"), {{0, 5}});
  EXPECT_TRUE(cache.Lookup("valid", &out, ValidatorFor(5)));

  // kStale: a reader ahead of the entry erases it — exactly once.
  const uint64_t stale_before =
      CounterValue("pqsda.cache.stale_invalidations_total");
  EXPECT_FALSE(cache.Lookup("valid", &out, ValidatorFor(6)));
  EXPECT_EQ(CounterValue("pqsda.cache.stale_invalidations_total"),
            stale_before + 1);
  // Erased: even the old-generation reader misses now, without a second
  // stale invalidation.
  EXPECT_FALSE(cache.Lookup("valid", &out, ValidatorFor(5)));
  EXPECT_EQ(CounterValue("pqsda.cache.stale_invalidations_total"),
            stale_before + 1);

  // kMismatch: the mid-swap case — the entry was filled against a *newer*
  // generation than the reader's pinned snapshot. The reader misses, but
  // the entry survives for current-generation readers.
  cache.Insert("fresh", ListFor("fresh"), {{0, 7}});
  const uint64_t mismatch_before =
      CounterValue("pqsda.cache.mismatch_misses_total");
  EXPECT_FALSE(cache.Lookup("fresh", &out, ValidatorFor(5)));
  EXPECT_EQ(CounterValue("pqsda.cache.mismatch_misses_total"),
            mismatch_before + 1);
  EXPECT_TRUE(cache.Lookup("fresh", &out, ValidatorFor(7)));

  // Entries without components carry their generation in the key and are
  // always valid.
  cache.Insert("keyed", ListFor("keyed"));
  EXPECT_TRUE(cache.Lookup("keyed", &out, ValidatorFor(999)));
}

// The engine's validator grades each recorded component against the
// generation the reader's snapshot serves for it: the validation
// partition's per-component generations, and the UPM's for kUpmComponent.
TEST(CacheValidationTest, EngineValidatorGradesComponentGenerations) {
  using Vector = SuggestionCache::ValidationVector;
  IndexSnapshot snap;
  snap.validation_generation = {3, 3, 5, 3, 3, 3, 3, 3};
  snap.upm_generation = 4;

  // Valid: every component (and the UPM) at the snapshot's generation.
  EXPECT_EQ(
      ValidateCacheEntry(snap, Vector{{0, 3}, {2, 5}, {kUpmComponent, 4}}),
      CacheValidity::kValid);

  // Stale: a component or the UPM rebuilt since the fill, or a component
  // this snapshot does not know.
  EXPECT_EQ(ValidateCacheEntry(snap, Vector{{0, 3}, {2, 4}}),
            CacheValidity::kStale);
  EXPECT_EQ(ValidateCacheEntry(snap, Vector{{0, 3}, {kUpmComponent, 3}}),
            CacheValidity::kStale);
  EXPECT_EQ(ValidateCacheEntry(snap, Vector{{8, 3}}), CacheValidity::kStale);

  // Mismatch: filled against a generation newer than the reader's, for a
  // component or the UPM — even when another component reads as stale.
  EXPECT_EQ(ValidateCacheEntry(snap, Vector{{2, 6}}),
            CacheValidity::kMismatch);
  EXPECT_EQ(ValidateCacheEntry(snap, Vector{{kUpmComponent, 5}}),
            CacheValidity::kMismatch);
  EXPECT_EQ(ValidateCacheEntry(snap, Vector{{0, 2}, {2, 6}}),
            CacheValidity::kMismatch);

  // ... and a mismatched entry stays for readers of the newer generation.
  IndexSnapshot next;
  next.validation_generation = {3, 3, 6, 3, 3, 3, 3, 3};
  next.upm_generation = 5;
  auto graded_by = [](const IndexSnapshot& reader) {
    return [&reader](const Vector& components) {
      return ValidateCacheEntry(reader, components);
    };
  };
  SuggestionCacheOptions options;
  options.capacity = 8;
  options.shards = 1;
  SuggestionCache cache(options);
  std::vector<Suggestion> out;
  cache.Insert("ahead", ListFor("ahead"), {{2, 6}, {kUpmComponent, 5}});
  EXPECT_FALSE(cache.Lookup("ahead", &out, graded_by(snap)));
  EXPECT_TRUE(cache.Lookup("ahead", &out, graded_by(next)));
}

TEST(CacheValidationTest, NegativeCacheTriStateAndBound) {
  NegativeSuggestionCache cache(/*capacity=*/4);

  cache.Insert("miss0", {{2, 5}});
  EXPECT_TRUE(cache.Lookup("miss0", ValidatorFor(5)));

  // kStale erases (an ingest made the component newer — the query may be
  // known now, so the engine must re-ask the index).
  const uint64_t inval_before =
      CounterValue("pqsda.cache.negative_invalidations_total");
  EXPECT_FALSE(cache.Lookup("miss0", ValidatorFor(6)));
  EXPECT_EQ(CounterValue("pqsda.cache.negative_invalidations_total"),
            inval_before + 1);
  EXPECT_FALSE(cache.Lookup("miss0", ValidatorFor(5)));
  EXPECT_EQ(cache.size(), 0u);

  // kMismatch misses but keeps the entry.
  cache.Insert("miss1", {{2, 7}});
  EXPECT_FALSE(cache.Lookup("miss1", ValidatorFor(5)));
  EXPECT_TRUE(cache.Lookup("miss1", ValidatorFor(7)));

  // Bounded: the LRU tail falls off.
  for (int i = 0; i < 10; ++i) {
    cache.Insert("storm" + std::to_string(i), {{2, 7}});
  }
  EXPECT_LE(cache.size(), 4u);
}

// ============================================================= staleness ====

// The corpus: three query clusters (java / astronomy / uk news) across six
// users, same shape as the explain suite's — small enough for fast builds,
// rich enough that expansion crosses clusters.
std::vector<QueryLogRecord> StalenessLog() {
  return {
      {1, "sun", "www.java.com", 100},
      {1, "sun java", "java.sun.com", 150},
      {1, "java download", "www.java.com", 200},
      {4, "sun java", "www.java.com", 100},
      {4, "java download", "java.sun.com", 130},
      {2, "sun", "www.nasa.gov", 100},
      {2, "solar system", "www.nasa.gov", 160},
      {2, "solar energy", "www.energy.gov", 220},
      {5, "solar system", "www.nasa.gov", 90},
      {5, "solar energy", "www.nasa.gov", 140},
      {3, "sun", "www.thesun.co.uk", 100},
      {3, "sun daily uk", "www.thesun.co.uk", 150},
      {6, "sun daily uk", "www.thesun.co.uk", 110},
      {6, "uk news", "www.thesun.co.uk", 170},
  };
}

// Fresh ingest traffic, cycle `n`: a new user reinforcing one cluster with
// timestamps past the training log.
std::vector<QueryLogRecord> FreshDelta(int n) {
  const UserId user = static_cast<UserId>(20 + n);
  const int64_t t = 5000 + 1000 * n;
  switch (n % 3) {
    case 0:
      return {{user, "solar energy", "www.energy.gov", t},
              {user, "solar panels", "www.energy.gov", t + 50}};
    case 1:
      return {{user, "java download", "www.java.com", t},
              {user, "java update", "www.java.com", t + 50}};
    default:
      return {{user, "uk news", "www.thesun.co.uk", t},
              {user, "uk weather", "www.thesun.co.uk", t + 50}};
  }
}

uint64_t FingerprintOf(const std::vector<Suggestion>& list) {
  obs::Fingerprint64 fp;
  for (const Suggestion& s : list) {
    fp.Mix(s.query);
    fp.MixDouble(s.score);
  }
  return fp.value();
}

RequestLogEntry EntryFor(const SuggestionRequest& request, size_t k,
                         const ExplainRecord& record) {
  RequestLogEntry entry;
  entry.request_id = record.request_id;
  entry.user = request.user;
  entry.query = request.query;
  entry.k = k;
  entry.timestamp = request.timestamp;
  entry.context = request.context;
  entry.generation = record.generation;
  entry.rung = static_cast<uint32_t>(record.rung);
  entry.cache_hit = record.cache_hit;
  entry.ok = record.ok;
  entry.fingerprint = record.fingerprint;
  return entry;
}

std::string StalenessLogPath(const std::string& name) {
  return testing::TempDir() + "pqsda_cache_" + name + "_" +
         std::to_string(::getpid()) + ".jsonl";
}

std::unique_ptr<PqsdaEngine> BuildStalenessEngine(
    bool delta_aware, const std::string& warmup_path,
    bool personalize = true) {
  PqsdaEngineConfig config;
  config.upm.base.num_topics = 4;
  config.upm.base.gibbs_iterations = 10;
  config.upm.hyper_rounds = 1;
  config.personalize = personalize;
  config.cache_capacity = 64;
  config.cache_shards = 2;
  config.cache_delta_aware = delta_aware;
  config.negative_cache_capacity = 32;
  config.cache_warmup.log_path = warmup_path;
  config.cache_warmup.max_requests = 64;
  config.ingest.rebuild_min_records = SIZE_MAX;  // rebuilds only on demand
  config.ingest.retired_snapshots = 16;          // every generation replayable
  auto built = PqsdaEngine::Build(StalenessLog(), config);
  EXPECT_TRUE(built.ok());
  return std::move(built).value();
}

// The single-threaded model check: a randomized schedule interleaves
// Suggest traffic (known and unknown queries, alternating users), ingest
// deltas and rebuild swaps (each swap triggers the off-path warmup replay of
// the request log). After *every* served request the schedule immediately
// replays it against its pinned generation with the cache bypassed and
// demands a bitwise-equal fingerprint — a cache hit that survived a swap it
// should not have survived fails on the spot, with the op index in the
// trace.
TEST(CacheStalenessOracleTest, RandomizedSwapScheduleNeverServesStale) {
  const int seed = OracleSeed();
  SCOPED_TRACE("gtest_random_seed " + std::to_string(seed));

  // A fresh request log: the engine's serving path appends to it
  // (sample_every=1) and every rebuild swap warms the new generation from
  // it.
  const std::string log_path = StalenessLogPath("sched_lru");
  std::remove(log_path.c_str());
  obs::ServingTelemetryOptions toptions;
  obs::ServingTelemetry& telemetry = obs::ServingTelemetry::Install(toptions);
  obs::RequestLogOptions loptions;
  loptions.path = log_path;
  loptions.sample_every = 1;
  loptions.slow_us = INT64_MAX;
  auto log = obs::RequestLog::Open(loptions);
  ASSERT_TRUE(log.ok());
  telemetry.AttachRequestLog(std::move(log).value());

  auto engine = BuildStalenessEngine(/*delta_aware=*/true, log_path);
  ASSERT_NE(engine, nullptr);

  const std::vector<std::string> known = {
      "sun",       "sun java",    "solar system", "solar energy",
      "uk news",   "sun daily uk"};
  const std::vector<std::string> unknown = {"zzz qqq", "xylophone"};
  std::mt19937 rng(static_cast<uint32_t>(seed) * 17u);
  std::uniform_int_distribution<int> pct(0, 99);
  std::uniform_int_distribution<size_t> pick_known(0, known.size() - 1);
  std::uniform_int_distribution<size_t> pick_unknown(0, unknown.size() - 1);
  std::uniform_int_distribution<UserId> pick_user(1, 6);

  size_t hits_verified = 0;
  int delta_n = 0;
  for (int op = 0; op < 220; ++op) {
    SCOPED_TRACE("op " + std::to_string(op));
    const int roll = pct(rng);
    if (roll < 6) {
      // Ingest a delta (buffered; the swap happens on the rebuild op).
      for (QueryLogRecord& r : FreshDelta(delta_n)) {
        ASSERT_TRUE(engine->Ingest(std::move(r)).ok());
      }
      ++delta_n;
      continue;
    }
    if (roll < 12) {
      // Swap: publish a new generation; the post-publish hook replays the
      // request log into the new generation's cache before this returns.
      ASSERT_TRUE(engine->index_manager().RebuildNow().ok());
      continue;
    }
    SuggestionRequest request;
    request.query =
        roll < 20 ? unknown[pick_unknown(rng)] : known[pick_known(rng)];
    request.user = roll % 3 == 0 ? kNoUser : pick_user(rng);
    request.timestamp = 400;
    ExplainRecord record;
    auto served = engine->Suggest(request, /*k=*/5, nullptr, &record);
    if (!served.ok()) {
      ASSERT_EQ(served.status().code(), StatusCode::kNotFound)
          << served.status().ToString();
      continue;
    }
    // The staleness property: what the engine just answered — from the
    // cache or not — must equal the cache-bypassed recompute pinned to
    // the same generation.
    ASSERT_EQ(record.fingerprint, FingerprintOf(*served));
    auto replayed = engine->Replay(EntryFor(request, 5, record));
    ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
    ASSERT_EQ(FingerprintOf(*replayed), record.fingerprint);
    if (record.cache_hit) ++hits_verified;
  }
  // The schedule must actually have exercised the property on cache hits
  // (head queries repeat; with warmup they hit right after swaps too).
  EXPECT_GT(hits_verified, 0u) << "schedule produced no cache hits";
  telemetry.AttachRequestLog(nullptr);
  std::remove(log_path.c_str());
}

// The concurrent variant: reader threads storm the engine while a churn
// thread ingests deltas and swaps generations (each swap warming the new
// cache from the live request log). Afterwards every sampled log entry is
// replayed against its pinned generation and must reproduce the logged
// fingerprint bitwise. This is the TSAN stage's main course.
TEST(CacheStalenessOracleTest, ConcurrentChurnVerifiedByLogReplay) {
  const std::string log_path = StalenessLogPath("churn");
  std::remove(log_path.c_str());
  obs::ServingTelemetryOptions toptions;
  obs::ServingTelemetry& telemetry = obs::ServingTelemetry::Install(toptions);
  obs::RequestLogOptions loptions;
  loptions.path = log_path;
  loptions.sample_every = 1;
  loptions.slow_us = INT64_MAX;
  auto log = obs::RequestLog::Open(loptions);
  ASSERT_TRUE(log.ok());
  telemetry.AttachRequestLog(std::move(log).value());

  auto engine = BuildStalenessEngine(/*delta_aware=*/true, log_path);
  ASSERT_NE(engine, nullptr);

  const uint64_t warmup_before =
      CounterValue("pqsda.cache.warmup_replayed_total");

  const std::vector<std::string> pool = {"sun",          "sun java",
                                         "solar system", "solar energy",
                                         "uk news",      "zzz qqq"};
  std::atomic<bool> done{false};
  std::thread churn([&engine, &done] {
    for (int cycle = 0; cycle < 4; ++cycle) {
      for (QueryLogRecord& r : FreshDelta(cycle)) {
        ASSERT_TRUE(engine->Ingest(std::move(r)).ok());
      }
      ASSERT_TRUE(engine->index_manager().RebuildNow().ok());
    }
    done.store(true, std::memory_order_release);
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&engine, &pool, t] {
      for (int i = 0; i < 120; ++i) {
        SuggestionRequest request;
        request.query = pool[(i + t) % pool.size()];
        request.user = (i % 2 == 0) ? static_cast<UserId>(1 + (i + t) % 6)
                                    : kNoUser;
        request.timestamp = 400;
        auto result = engine->Suggest(request, 5);
        if (!result.ok()) {
          ASSERT_EQ(result.status().code(), StatusCode::kNotFound)
              << result.status().ToString();
        }
      }
    });
  }
  churn.join();
  for (auto& r : readers) r.join();

  // Each of the four swaps ran a warmup replay on the rebuild thread.
  EXPECT_GT(CounterValue("pqsda.cache.warmup_replayed_total"), warmup_before);

  ASSERT_NE(telemetry.request_log(), nullptr);
  telemetry.request_log()->Flush();
  auto entries = obs::ReadRequestLog(log_path, /*max_entries=*/0);
  ASSERT_TRUE(entries.ok()) << entries.status().ToString();
  ASSERT_FALSE(entries->empty());

  size_t verified = 0;
  size_t hits_verified = 0;
  for (const RequestLogEntry& entry : *entries) {
    if (!entry.ok) continue;  // NotFound answers carry no fingerprint
    auto replayed = engine->Replay(entry);
    ASSERT_TRUE(replayed.ok())
        << "generation " << entry.generation << ": "
        << replayed.status().ToString();
    ASSERT_EQ(FingerprintOf(*replayed), entry.fingerprint)
        << "query \"" << entry.query << "\" generation " << entry.generation
        << (entry.cache_hit ? " (cache hit)" : " (miss)");
    ++verified;
    if (entry.cache_hit) ++hits_verified;
  }
  EXPECT_GT(verified, 0u);
  EXPECT_GT(hits_verified, 0u) << "storm produced no verifiable cache hits";
  telemetry.AttachRequestLog(nullptr);
  std::remove(log_path.c_str());
}

// Delta-aware retention: with raw edge weights (no global IQF coupling) a
// delta that only touches one graph component carries the untouched
// validation components' generations over, so warm entries whose reads all
// survived keep hitting across the swap — while the whole-generation mode
// starts cold after every swap.
//
// The corpus keeps the warm (java) cluster fully disconnected from the
// cooking cluster — no shared query, term, url or session — so the warm
// requests' expansions can only read java-cluster rows. The delta then
// introduces two brand-new queries with fresh vocabulary and a fresh url:
// under kRaw weighting no existing row changes at all, only the validation
// components that own the new query rows ("risotto milanese" → 3,
// "olive oil" → 2, by the partition hash) pick up the new generation —
// disjoint from the java owners ({5, 0, 4}), so every warm entry survives.
TEST(CacheStalenessOracleTest, DeltaAwareRetainsAcrossSwapWholeGenDoesNot) {
  const std::vector<std::string> warm = {"java download", "java update",
                                         "java install"};
  auto run = [&warm](bool delta_aware) {
    PqsdaEngineConfig config;
    config.weighting = EdgeWeighting::kRaw;  // fingerprints stay local
    config.personalize = false;
    config.cache_capacity = 64;
    config.cache_shards = 1;
    config.cache_delta_aware = delta_aware;
    config.ingest.rebuild_min_records = SIZE_MAX;
    auto built = PqsdaEngine::Build(
        {
            {1, "java download", "www.java.com", 100},
            {1, "java update", "www.java.com", 150},
            {4, "java update", "java.sun.com", 100},
            {4, "java install", "java.sun.com", 130},
            {2, "pasta carbonara", "www.food.com", 100},
            {2, "pasta recipe", "www.food.com", 160},
            {5, "pasta recipe", "www.cooking.com", 90},
            {5, "tomato sauce", "www.cooking.com", 140},
        },
        config);
    EXPECT_TRUE(built.ok());
    std::unique_ptr<PqsdaEngine> engine = std::move(built).value();

    auto suggest = [&engine](const std::string& q) {
      SuggestionRequest request;
      request.query = q;
      request.timestamp = 400;
      return engine->Suggest(request, 5);
    };
    for (const std::string& q : warm) EXPECT_TRUE(suggest(q).ok());

    std::vector<QueryLogRecord> delta = {
        {31, "risotto milanese", "www.rice.it", 5000},
        {31, "olive oil", "www.rice.it", 5050},
    };
    for (QueryLogRecord& r : delta) {
      EXPECT_TRUE(engine->Ingest(std::move(r)).ok());
    }
    EXPECT_TRUE(engine->index_manager().RebuildNow().ok());

    const uint64_t hits_before = CounterValue("pqsda.cache.hits_total");
    for (const std::string& q : warm) EXPECT_TRUE(suggest(q).ok());
    return CounterValue("pqsda.cache.hits_total") - hits_before;
  };

  // Whole-generation keys can never hit across the swap.
  EXPECT_EQ(run(/*delta_aware=*/false), 0u);
  // Delta-aware retention serves every warm query from cache.
  EXPECT_EQ(run(/*delta_aware=*/true), warm.size());
}

}  // namespace
}  // namespace pqsda
