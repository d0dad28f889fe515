// Decision-observability suite: per-candidate score attribution, the
// /explainz surface, and deterministic replay from the request log. Six
// clusters:
//
//  1. Explain plumbing: fingerprint hex round-trip, ExplainScope nesting
//     (replay collects inside a serving thread), ExplainStore ring bounds.
//  2. The reconciliation property the tentpole promises: the attribution
//     terms recompose the served ranking. Without personalization the
//     served order is the Eq. 15 relevance order; with the §V-B rerank the
//     per-candidate Borda points (diversification + weighted preference)
//     sorted descending reproduce it. The record's fingerprint recomputes
//     from the served list.
//  3. Request-log schema round-trip: ToJson → ParseRequestLogEntry → ToJson
//     is the identity, unknown keys are skipped, malformed lines reject.
//  4. Replay determinism: a logged request re-executes bitwise-identical —
//     against the published generation, against a *retired* generation
//     after a rebuild swap (the IndexManager replay ring), through a
//     logged cache hit (re-run at the full rung), and ages out to NotFound
//     once the ring no longer holds the generation.
//  5. /explainz HTTP edge cases: index listing, unknown/malformed/empty
//     ids answer clean 404s, explain-disabled scrapes stay well-formed,
//     and concurrent scrapes race a SuggestBatch storm without tearing
//     (this file is part of the TSAN/ASan suites run_benches.sh re-runs).
//  6. /statusz exemplars age out with their generation: an exemplar whose
//     pinned generation left the replayable ring is dropped from the
//     scrape (a stale id must never advertise a replay command), while
//     live and unknown-generation exemplars keep their replay link. Plus
//     the rebuild lane of /profilez: drain/sessionize/graph_build/publish
//     stages appear after an ingest-triggered rebuild.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/index_manager.h"
#include "core/pqsda_engine.h"
#include "obs/explain.h"
#include "obs/http_exporter.h"
#include "obs/metrics.h"
#include "obs/request_log.h"
#include "obs/stage_profiler.h"
#include "obs/telemetry.h"

namespace pqsda {
namespace {

using obs::ExplainCandidate;
using obs::ExplainRecord;
using obs::ExplainScope;
using obs::ExplainStore;
using obs::Fingerprint64;
using obs::RequestLogEntry;

// ----------------------------------------------------- plumbing ----

TEST(FingerprintTest, HexRoundTripAndRejection) {
  Fingerprint64 f;
  f.Mix("solar energy");
  f.MixDouble(3.25);
  const uint64_t v = f.value();
  const std::string hex = obs::FingerprintToHex(v);
  EXPECT_EQ(hex.size(), 16u);
  uint64_t back = 0;
  ASSERT_TRUE(obs::FingerprintFromHex(hex, &back));
  EXPECT_EQ(back, v);

  // Short hex parses leniently (the log always writes 16 digits, but a
  // hand-typed id works); empty, overlong and non-hex reject.
  uint64_t short_hex = 0;
  ASSERT_TRUE(obs::FingerprintFromHex("123", &short_hex));
  EXPECT_EQ(short_hex, 0x123u);
  uint64_t ignored = 0;
  EXPECT_FALSE(obs::FingerprintFromHex("", &ignored));
  EXPECT_FALSE(obs::FingerprintFromHex("00000000000000zz", &ignored));
  EXPECT_FALSE(obs::FingerprintFromHex("00000000000000000", &ignored));
}

TEST(FingerprintTest, SensitiveToQueryBytesAndScoreBits) {
  Fingerprint64 a, b, c;
  a.Mix("sun");
  a.MixDouble(1.0);
  b.Mix("sun");
  b.MixDouble(1.0 + 1e-16);  // rounds to 1.0: identical bit pattern
  c.Mix("sun");
  c.MixDouble(std::nextafter(1.0, 2.0));  // one ulp: different pattern
  EXPECT_EQ(a.value(), b.value());
  EXPECT_NE(a.value(), c.value());
}

TEST(ExplainScopeTest, NestsAndRestores) {
  EXPECT_EQ(obs::CurrentExplain(), nullptr);
  ExplainRecord outer, inner;
  {
    ExplainScope a(&outer);
    EXPECT_EQ(obs::CurrentExplain(), &outer);
    {
      ExplainScope b(&inner);
      EXPECT_EQ(obs::CurrentExplain(), &inner);
    }
    EXPECT_EQ(obs::CurrentExplain(), &outer);
  }
  EXPECT_EQ(obs::CurrentExplain(), nullptr);
}

TEST(ExplainStoreTest, BoundedRingEvictsOldest) {
  ExplainStore store(8);
  for (uint64_t id = 1; id <= 20; ++id) {
    auto record = std::make_shared<ExplainRecord>();
    record->request_id = id;
    record->query = "q" + std::to_string(id);
    store.Add(std::move(record));
  }
  EXPECT_EQ(store.size(), 8u);
  EXPECT_EQ(store.Find(1), nullptr);
  EXPECT_EQ(store.Find(12), nullptr);
  ASSERT_NE(store.Find(13), nullptr);
  ASSERT_NE(store.Find(20), nullptr);
  EXPECT_EQ(store.Find(20)->query, "q20");
  // Index lists newest first.
  auto index = store.Index();
  ASSERT_EQ(index.size(), 8u);
  EXPECT_EQ(index.front().first, 20u);
  EXPECT_EQ(index.back().first, 13u);
}

// ------------------------------------------------ reconciliation ----

std::vector<QueryLogRecord> ExplainLog() {
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

std::unique_ptr<PqsdaEngine> BuildExplainEngine(
    bool personalize = true, size_t cache_capacity = 0,
    size_t retired_snapshots = 4) {
  PqsdaEngineConfig config;
  config.upm.base.num_topics = 4;
  config.upm.base.gibbs_iterations = 10;
  config.upm.hyper_rounds = 1;
  config.personalize = personalize;
  config.cache_capacity = cache_capacity;
  config.ingest.rebuild_min_records = SIZE_MAX;  // rebuilds only on demand
  config.ingest.retired_snapshots = retired_snapshots;
  auto built = PqsdaEngine::Build(ExplainLog(), config);
  EXPECT_TRUE(built.ok());
  return std::move(built).value();
}

SuggestionRequest ExplainRequest(const std::string& query,
                                 UserId user = kNoUser) {
  SuggestionRequest request;
  request.query = query;
  request.timestamp = 400;
  request.user = user;
  return request;
}

// Served candidates of a record (final_rank assigned), in served order.
std::vector<ExplainCandidate> ServedCandidates(const ExplainRecord& record) {
  std::vector<ExplainCandidate> served;
  for (const ExplainCandidate& c : record.candidates) {
    if (c.final_rank != SIZE_MAX) served.push_back(c);
  }
  return served;
}

TEST(ExplainAttributionTest, RelevanceOrderReconcilesWithoutRerank) {
  auto engine = BuildExplainEngine(/*personalize=*/false);
  ExplainRecord record;
  auto list = engine->Suggest(ExplainRequest("sun"), 10, nullptr, &record);
  ASSERT_TRUE(list.ok()) << list.status().ToString();
  ASSERT_FALSE(list->empty());

  EXPECT_TRUE(record.ok);
  EXPECT_FALSE(record.walk_only);
  EXPECT_FALSE(record.personalized);
  EXPECT_EQ(record.generation, 0u);
  EXPECT_EQ(record.rung, 0u);
  EXPECT_EQ(record.k, 10u);
  EXPECT_EQ(record.query, "sun");

  std::vector<ExplainCandidate> served = ServedCandidates(record);
  ASSERT_EQ(served.size(), list->size());
  size_t round_zero = 0;
  for (size_t i = 0; i < served.size(); ++i) {
    EXPECT_EQ(served[i].final_rank, i);
    EXPECT_EQ(served[i].query, (*list)[i].query);
    EXPECT_EQ(served[i].score, (*list)[i].score);
    if (i > 0) {
      // Algorithm 1 sorts the selected set by F* descending for output:
      // without the rerank, the attribution's relevance column IS the
      // served order.
      EXPECT_GE(served[i - 1].relevance, served[i].relevance)
          << "rank " << i;
    }
    if (served[i].selection_round == 0) {
      ++round_zero;
      // The round-0 pick is the Eq. 15 argmax: no hitting-time sweep ran.
      EXPECT_EQ(served[i].hitting_time, 0.0);
      EXPECT_EQ(served[i].chain_rank[0], SIZE_MAX);
    } else {
      // Later rounds carry the marginal gain and a rank under each
      // single-chain ordering.
      EXPECT_GT(served[i].hitting_time, 0.0);
      for (size_t x = 0; x < obs::kExplainChainCount; ++x) {
        EXPECT_NE(served[i].chain_rank[x], SIZE_MAX)
            << "rank " << i << " chain " << obs::kExplainChainNames[x];
      }
    }
  }
  EXPECT_EQ(round_zero, 1u);

  // The record's fingerprint recomputes from the served list, bitwise.
  Fingerprint64 f;
  for (const Suggestion& s : *list) {
    f.Mix(s.query);
    f.MixDouble(s.score);
  }
  EXPECT_EQ(record.fingerprint, f.value());
  EXPECT_NE(record.fingerprint, 0u);
}

TEST(ExplainAttributionTest, BordaPointsReconcilePersonalizedOrder) {
  auto engine = BuildExplainEngine(/*personalize=*/true);
  ExplainRecord record;
  auto list = engine->Suggest(ExplainRequest("sun", 1), 10, nullptr, &record);
  ASSERT_TRUE(list.ok()) << list.status().ToString();
  ASSERT_GE(list->size(), 2u);
  ASSERT_TRUE(record.personalized);
  EXPECT_GT(record.preference_weight, 0u);

  std::vector<ExplainCandidate> served = ServedCandidates(record);
  ASSERT_EQ(served.size(), list->size());
  for (size_t i = 1; i < served.size(); ++i) {
    const double prev = served[i - 1].borda_diversification +
                        served[i - 1].borda_preference;
    const double cur =
        served[i].borda_diversification + served[i].borda_preference;
    // BordaAggregate stable-sorts total points descending over a universe
    // in diversification-list order, so ties resolve toward the higher
    // diversification award.
    EXPECT_TRUE(prev > cur ||
                (prev == cur && served[i - 1].borda_diversification >
                                    served[i].borda_diversification))
        << "rank " << i << ": " << prev << " then " << cur;
    // The preference award is the weighted Borda of a real ranking: a
    // multiple of the weight, bounded by weight * n.
    EXPECT_LE(served[i].borda_preference,
              static_cast<double>(record.preference_weight * served.size()));
  }
  // At least one candidate carries a nonzero UPM preference — user 1 is in
  // the training log.
  bool any_pref = false;
  for (const ExplainCandidate& c : served) {
    if (c.upm_preference > 0.0) any_pref = true;
  }
  EXPECT_TRUE(any_pref);
}

TEST(ExplainAttributionTest, ExplainJsonCarriesTheTerms) {
  auto engine = BuildExplainEngine(/*personalize=*/true);
  ExplainRecord record;
  auto list = engine->Suggest(ExplainRequest("sun", 1), 5, nullptr, &record);
  ASSERT_TRUE(list.ok());
  const std::string json = record.ToJson();
  EXPECT_NE(json.find("\"relevance\":"), std::string::npos);
  EXPECT_NE(json.find("\"selection_round\":"), std::string::npos);
  EXPECT_NE(json.find("\"hitting_time\":"), std::string::npos);
  EXPECT_NE(json.find("\"upm_preference\":"), std::string::npos);
  EXPECT_NE(json.find("\"borda\":"), std::string::npos);
  EXPECT_NE(json.find("\"generation\":0"), std::string::npos);
  EXPECT_NE(json.find("\"rung_name\":\"full\""), std::string::npos);
  EXPECT_NE(json.find("\"fingerprint\":\"" +
                      obs::FingerprintToHex(record.fingerprint) + "\""),
            std::string::npos);
}

// ------------------------------------------- log schema round-trip ----

TEST(LogSchemaTest, ParseToJsonIsIdentity) {
  RequestLogEntry entry;
  entry.request_id = 91;
  entry.user = 7;
  entry.query = "solar \"flare\" \n\t";
  entry.k = 10;
  entry.timestamp = 1234567;
  entry.context = {{"prior query", 1234000}, {"older \"one\"", 1233000}};
  entry.generation = 3;
  entry.rung = 1;
  entry.total_us = 4321;
  entry.cache_hit = false;
  entry.ok = true;
  entry.fingerprint = 0xfeedfacecafebeefULL;
  entry.stage_us = {{"expansion", 10}, {"regularization_solve", 20}};
  entry.suggestions = {"solar energy", "solar system"};

  const std::string json = obs::RequestLog::ToJson(entry);
  auto parsed = obs::ParseRequestLogEntry(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(obs::RequestLog::ToJson(*parsed), json);
  EXPECT_EQ(parsed->query, entry.query);
  EXPECT_EQ(parsed->context, entry.context);
  EXPECT_EQ(parsed->fingerprint, entry.fingerprint);
  EXPECT_EQ(parsed->generation, 3u);
  EXPECT_EQ(parsed->rung, 1u);

  // A failed entry round-trips too (no fingerprint, no suggestions).
  RequestLogEntry failed;
  failed.request_id = 92;
  failed.query = "zzz";
  failed.k = 10;
  failed.ok = false;
  failed.status = "NotFound: cold";
  const std::string failed_json = obs::RequestLog::ToJson(failed);
  auto failed_parsed = obs::ParseRequestLogEntry(failed_json);
  ASSERT_TRUE(failed_parsed.ok());
  EXPECT_EQ(obs::RequestLog::ToJson(*failed_parsed), failed_json);
  EXPECT_FALSE(failed_parsed->ok);
  EXPECT_EQ(failed_parsed->status, "NotFound: cold");
}

TEST(LogSchemaTest, UnknownKeysSkipMalformedRejects) {
  // Forward compatibility: a newer writer's extra fields parse fine.
  auto with_extras = obs::ParseRequestLogEntry(
      "{\"request_id\":5,\"query\":\"sun\",\"k\":3,"
      "\"future_field\":{\"nested\":[1,2,{\"x\":\"y\"}]},"
      "\"ok\":true,\"suggestions\":[\"a\"]}");
  ASSERT_TRUE(with_extras.ok()) << with_extras.status().ToString();
  EXPECT_EQ(with_extras->request_id, 5u);
  EXPECT_EQ(with_extras->suggestions, std::vector<std::string>{"a"});

  EXPECT_FALSE(obs::ParseRequestLogEntry("").ok());
  EXPECT_FALSE(obs::ParseRequestLogEntry("not json").ok());
  EXPECT_FALSE(obs::ParseRequestLogEntry("{\"request_id\":}").ok());
  EXPECT_FALSE(obs::ParseRequestLogEntry("{\"query\":\"unterminated}").ok());
  EXPECT_FALSE(
      obs::ParseRequestLogEntry("{\"request_id\":1} trailing").ok());
  EXPECT_FALSE(
      obs::ParseRequestLogEntry("{\"fingerprint\":\"xyz\"}").ok());
}

// ---------------------------------------------------- replay ----

// The log entry a served request would have produced, assembled from the
// request and its explain record (what suggest_cli's replay reads back).
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

void ExpectBitwiseEqual(const std::vector<Suggestion>& a,
                        const std::vector<Suggestion>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].query, b[i].query) << "rank " << i;
    // Bitwise, not approximately: replay reproduces the float path exactly.
    EXPECT_EQ(a[i].score, b[i].score) << "rank " << i;
  }
}

TEST(ReplayTest, ReproducesServedListBitwise) {
  auto engine = BuildExplainEngine(/*personalize=*/true);
  SuggestionRequest request = ExplainRequest("sun", 1);
  request.context = {{"solar system", 380}};
  ExplainRecord record;
  auto served = engine->Suggest(request, 10, nullptr, &record);
  ASSERT_TRUE(served.ok());

  ExplainRecord replay_record;
  auto replayed =
      engine->Replay(EntryFor(request, 10, record), &replay_record);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  ExpectBitwiseEqual(*served, *replayed);
  EXPECT_EQ(replay_record.fingerprint, record.fingerprint);
  // Replay collects the same attribution the original could have.
  std::vector<ExplainCandidate> a = ServedCandidates(record);
  std::vector<ExplainCandidate> b = ServedCandidates(replay_record);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].query, b[i].query);
    EXPECT_EQ(a[i].relevance, b[i].relevance);
    EXPECT_EQ(a[i].selection_round, b[i].selection_round);
  }
}

TEST(ReplayTest, LoggedCacheHitReplaysThroughThePipeline) {
  auto engine = BuildExplainEngine(/*personalize=*/true, /*cache=*/16);
  SuggestionRequest request = ExplainRequest("sun", 1);
  auto miss = engine->Suggest(request, 10);
  ASSERT_TRUE(miss.ok());
  ExplainRecord hit_record;
  auto hit = engine->Suggest(request, 10, nullptr, &hit_record);
  ASSERT_TRUE(hit.ok());
  ASSERT_TRUE(hit_record.cache_hit);
  // A cached list was computed by the full rung; replay bypasses the cache
  // and re-runs that pipeline, reproducing the identical list.
  auto replayed = engine->Replay(EntryFor(request, 10, hit_record));
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  ExpectBitwiseEqual(*hit, *replayed);
}

// Fresh traffic for rebuild tests: a new user whose session reinforces the
// solar cluster (timestamps past the training log).
std::vector<QueryLogRecord> FreshRecords() {
  return {
      {9, "solar energy", "www.energy.gov", 5000},
      {9, "solar panels", "www.energy.gov", 5100},
      {9, "solar system", "www.nasa.gov", 5200},
  };
}

TEST(ReplayTest, RetiredGenerationStaysReplayableAfterSwap) {
  auto engine = BuildExplainEngine(/*personalize=*/true);
  SuggestionRequest request = ExplainRequest("sun", 1);
  ExplainRecord record;
  auto served = engine->Suggest(request, 10, nullptr, &record);
  ASSERT_TRUE(served.ok());
  ASSERT_EQ(record.generation, 0u);

  IndexManager& index = engine->index_manager();
  ASSERT_TRUE(index.IngestBatch(FreshRecords()).ok());
  ASSERT_TRUE(index.RebuildNow().ok());
  ASSERT_EQ(index.generation(), 1u);
  // Generation 0 was retired into the replay ring, not reclaimed.
  EXPECT_EQ(index.oldest_live_generation(), 0u);
  ASSERT_NE(index.AcquireGeneration(0), nullptr);

  auto replayed = engine->Replay(EntryFor(request, 10, record));
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  ExpectBitwiseEqual(*served, *replayed);

  // The same request served *now* pins generation 1 — and replays against
  // generation 1, independently of the retired one.
  ExplainRecord now_record;
  auto now_served = engine->Suggest(request, 10, nullptr, &now_record);
  ASSERT_TRUE(now_served.ok());
  EXPECT_EQ(now_record.generation, 1u);
  auto now_replayed = engine->Replay(EntryFor(request, 10, now_record));
  ASSERT_TRUE(now_replayed.ok());
  ExpectBitwiseEqual(*now_served, *now_replayed);
}

TEST(ReplayTest, AgedOutGenerationAnswersNotFound) {
  auto engine = BuildExplainEngine(/*personalize=*/true, /*cache=*/0,
                                   /*retired_snapshots=*/0);
  SuggestionRequest request = ExplainRequest("sun", 1);
  ExplainRecord record;
  ASSERT_TRUE(engine->Suggest(request, 10, nullptr, &record).ok());

  IndexManager& index = engine->index_manager();
  ASSERT_TRUE(index.IngestBatch(FreshRecords()).ok());
  ASSERT_TRUE(index.RebuildNow().ok());
  EXPECT_EQ(index.oldest_live_generation(), 1u);
  EXPECT_EQ(index.AcquireGeneration(0), nullptr);

  auto replayed = engine->Replay(EntryFor(request, 10, record));
  ASSERT_FALSE(replayed.ok());
  EXPECT_EQ(replayed.status().code(), StatusCode::kNotFound);
}

// ------------------------------------------------- /explainz HTTP ----

TEST(ExplainzHttpTest, EdgeCasesAnswerCleanly) {
  obs::ServingTelemetryOptions options;
  options.explain_sample_every = 1;
  options.explain_store_capacity = 8;
  obs::ServingTelemetry& telemetry = obs::ServingTelemetry::Install(options);

  obs::HttpExporter exporter;
  telemetry.RegisterEndpoints(&exporter);
  ASSERT_TRUE(exporter.Start(0).ok());

  // Empty store: the index is well-formed JSON with no records.
  int status = 0;
  auto index = obs::HttpGet(exporter.port(), "/explainz", &status);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(status, 200);
  EXPECT_NE(index->find("\"records\":[]"), std::string::npos);

  // Unknown, malformed, empty and overlong ids: clean 404s, never a crash.
  for (const char* path :
       {"/explainz?id=424242", "/explainz?id=abc", "/explainz?id=",
        "/explainz?id=12x", "/explainz?id=-3",
        "/explainz?id=99999999999999999999999999"}) {
    status = 0;
    auto body = obs::HttpGet(exporter.port(), path, &status);
    ASSERT_TRUE(body.ok()) << path;
    EXPECT_EQ(status, 404) << path;
    EXPECT_NE(body->find("error"), std::string::npos) << path;
  }

  // A served request lands in the ring and scrapes by id.
  auto engine = BuildExplainEngine(/*personalize=*/false);
  ASSERT_TRUE(engine->Suggest(ExplainRequest("sun"), 5).ok());
  ASSERT_GT(telemetry.explain_store().size(), 0u);
  const uint64_t id = telemetry.explain_store().Index().front().first;
  status = 0;
  auto body = obs::HttpGet(
      exporter.port(), "/explainz?id=" + std::to_string(id), &status);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(status, 200);
  EXPECT_NE(body->find("\"query\":\"sun\""), std::string::npos);
  EXPECT_NE(body->find("\"candidates\":["), std::string::npos);

  // Disabled sampling: requests stop landing, existing records stay
  // scrapeable, the index stays well-formed.
  telemetry.SetExplainSampleEvery(0);
  const size_t before = telemetry.explain_store().size();
  ASSERT_TRUE(engine->Suggest(ExplainRequest("solar energy"), 5).ok());
  EXPECT_EQ(telemetry.explain_store().size(), before);
  status = 0;
  auto disabled_index = obs::HttpGet(exporter.port(), "/explainz", &status);
  ASSERT_TRUE(disabled_index.ok());
  EXPECT_EQ(status, 200);
  EXPECT_NE(disabled_index->find("\"sample_every\":0"), std::string::npos);

  exporter.Stop();
}

TEST(ExplainzHttpTest, ConcurrentScrapesDuringServingStorm) {
  obs::ServingTelemetryOptions options;
  options.explain_sample_every = 2;
  options.explain_store_capacity = 16;
  obs::ServingTelemetry& telemetry = obs::ServingTelemetry::Install(options);

  obs::HttpExporter exporter;
  telemetry.RegisterEndpoints(&exporter);
  ASSERT_TRUE(exporter.Start(0).ok());

  auto engine = BuildExplainEngine(/*personalize=*/true);
  std::vector<SuggestionRequest> storm;
  const char* queries[] = {"sun", "solar energy", "sun java", "uk news"};
  for (size_t i = 0; i < 48; ++i) {
    storm.push_back(ExplainRequest(queries[i % 4],
                                   i % 3 == 0 ? UserId{1} : kNoUser));
  }

  std::atomic<bool> stop{false};
  std::atomic<size_t> scrapes{0};
  std::vector<std::thread> scrapers;
  for (int t = 0; t < 2; ++t) {
    scrapers.emplace_back([&exporter, &stop, &scrapes, &telemetry] {
      while (!stop.load(std::memory_order_relaxed)) {
        if (obs::HttpGet(exporter.port(), "/explainz").ok()) {
          scrapes.fetch_add(1, std::memory_order_relaxed);
        }
        // Chase whatever is newest right now — races eviction on purpose.
        auto index = telemetry.explain_store().Index();
        if (!index.empty()) {
          (void)obs::HttpGet(
              exporter.port(),
              "/explainz?id=" + std::to_string(index.front().first));
        }
      }
    });
  }

  ThreadPool pool(4);
  auto results = engine->SuggestBatch(storm, 5, &pool);
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : scrapers) t.join();

  size_t served = 0;
  for (const auto& r : results) {
    if (r.ok()) ++served;
  }
  EXPECT_EQ(served, storm.size());
  EXPECT_GT(scrapes.load(), 0u);
  EXPECT_GT(telemetry.explain_store().size(), 0u);
  EXPECT_LE(telemetry.explain_store().size(), 16u);
  exporter.Stop();
}

// --------------------------------- exemplars + rebuild profiling ----

TEST(ExemplarAgingTest, StaleGenerationDropsFromStatusz) {
  obs::ServingTelemetry& telemetry =
      obs::ServingTelemetry::Install(obs::ServingTelemetryOptions{});
  obs::Gauge& oldest_live = obs::MetricsRegistry::Default().GetGauge(
      "pqsda.ingest.oldest_live_generation");

  // Three exemplars in distinct latency buckets: a replayable generation, a
  // soon-stale generation, and the real generation 0.
  SuggestionRequest request = ExplainRequest("sun", kNoUser);
  const StatusOr<std::vector<Suggestion>> served = std::vector<Suggestion>{};
  auto record = [&](uint64_t id, double latency_us, uint64_t generation) {
    obs::RequestRecord r;
    r.id = id;
    r.request = &request;
    r.generation = generation;
    r.result = &served;
    r.stages[0].count = 1;
    r.stages[0].wall_ns = static_cast<int64_t>(latency_us * 1e3);
    telemetry.Record(r);
  };
  record(/*id=*/41, 80.0, /*generation=*/2);
  record(/*id=*/42, 900.0, /*generation=*/7);
  // The real generation 0 is replayable — before any rebuild retires it,
  // its exemplar must link the replay.
  record(/*id=*/44, 90000.0, /*generation=*/0);
  std::string initial = telemetry.StatuszJson();
  EXPECT_NE(initial.find("\"replay\":\"suggest_cli replay 44\""),
            std::string::npos);

  oldest_live.Set(2.0);
  std::string fresh = telemetry.StatuszJson();
  EXPECT_NE(fresh.find("\"replay\":\"suggest_cli replay 41\""),
            std::string::npos);
  EXPECT_NE(fresh.find("\"replay\":\"suggest_cli replay 42\""),
            std::string::npos);

  // Generation 2 leaves the replay ring: its exemplar ages out of the
  // scrape entirely; the newer one survives.
  oldest_live.Set(5.0);
  std::string aged = telemetry.StatuszJson();
  EXPECT_EQ(aged.find("\"request_id\":41"), std::string::npos);
  EXPECT_EQ(aged.find("\"request_id\":44"), std::string::npos);
  EXPECT_NE(aged.find("\"replay\":\"suggest_cli replay 42\""),
            std::string::npos);

  oldest_live.Set(0.0);  // leave the global gauge inert for other tests
}

TEST(RebuildProfilingTest, RebuildStagesAppearInProfilez) {
  obs::StageProfiler& profiler = obs::StageProfiler::Default();
  profiler.SetEnabled(true);
  auto engine = BuildExplainEngine(/*personalize=*/false);
  IndexManager& index = engine->index_manager();
  ASSERT_TRUE(index.IngestBatch(FreshRecords()).ok());
  ASSERT_TRUE(index.RebuildNow().ok());

  const std::string profilez = profiler.ProfilezJson(60LL * 1000000000LL);
  EXPECT_NE(profilez.find("\"rebuild\""), std::string::npos);
  for (const char* stage : {"drain", "sessionize", "graph_build", "publish"}) {
    EXPECT_NE(profilez.find(std::string("\"") + stage + "\""),
              std::string::npos)
        << stage << " missing from " << profilez;
  }
}

}  // namespace
}  // namespace pqsda
