// The deep performance-attribution surface: StageProfiler windowed
// per-stage/per-rung cost attribution (unit tests on a fake clock, the
// rebuild lane, the reconciliation of /profilez against SuggestStats, and
// one request's record showing the same stage times in every sink),
// exemplar-linked latency buckets resolving to /tracez or the request log,
// the burn-rate SLO state machine driven end to end through fault-injected
// load shedding at /alertz, and the online quality telemetry (Simpson's
// index + coverage). run_benches.sh re-runs this binary under TSAN/ASan.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injector.h"
#include "core/pqsda_engine.h"
#include "eval/diversity.h"
#include "obs/http_exporter.h"
#include "obs/metrics.h"
#include "obs/quality.h"
#include "obs/request_log.h"
#include "obs/slo.h"
#include "obs/stage_profiler.h"
#include "obs/telemetry.h"

namespace pqsda {
namespace {

constexpr int64_t kSecond = 1'000'000'000;

using obs::ProfileStage;
using obs::StageProfiler;
using obs::StageScope;

// Fake monotonic clock for the window rings (see telemetry_test.cc). Stage
// wall/cpu measurements always read the real clocks; only epoch bucketing
// uses the injected one, so tests can pin epochs without faking durations.
struct FakeClock {
  std::shared_ptr<std::atomic<int64_t>> now =
      std::make_shared<std::atomic<int64_t>>(0);
  obs::WindowOptions Options(int64_t epoch_ns = kSecond,
                             size_t epochs = 8) const {
    obs::WindowOptions o;
    o.epoch_ns = epoch_ns;
    o.epochs = epochs;
    o.clock = [now = now] { return now->load(std::memory_order_relaxed); };
    return o;
  }
  void Advance(int64_t ns) { now->fetch_add(ns, std::memory_order_relaxed); }
};

size_t Idx(ProfileStage stage) { return static_cast<size_t>(stage); }

// ------------------------------------------------ StageProfiler ----

TEST(StageProfilerTest, AttributesStagesAndWorkToRung) {
  FakeClock clock;
  StageProfiler profiler(clock.Options());

  profiler.BeginRequest();
  {
    StageScope scope(ProfileStage::kExpansion);
    StageProfiler::AddWork(ProfileStage::kExpansion, 40);
  }
  {
    StageScope scope(ProfileStage::kSolve);
    StageProfiler::AddWork(ProfileStage::kSolve, 7);
  }
  profiler.EndRequest(/*rung=*/1);

  StageProfiler::Snapshot snap = profiler.SnapshotOver(kSecond);
  EXPECT_EQ(snap.total[Idx(ProfileStage::kRequest)].count, 1u);
  EXPECT_GE(snap.total[Idx(ProfileStage::kRequest)].wall_ns, 0);
  EXPECT_EQ(snap.per_rung[1][Idx(ProfileStage::kExpansion)].count, 1u);
  EXPECT_EQ(snap.per_rung[1][Idx(ProfileStage::kExpansion)].work, 40u);
  EXPECT_EQ(snap.per_rung[1][Idx(ProfileStage::kSolve)].work, 7u);
  // Nothing leaked onto another rung or stage.
  EXPECT_EQ(snap.per_rung[0][Idx(ProfileStage::kRequest)].count, 0u);
  EXPECT_EQ(snap.total[Idx(ProfileStage::kSelection)].count, 0u);
  // Stage scopes run strictly inside the request bracket.
  EXPECT_LE(snap.total[Idx(ProfileStage::kExpansion)].wall_ns +
                snap.total[Idx(ProfileStage::kSolve)].wall_ns,
            snap.total[Idx(ProfileStage::kRequest)].wall_ns + 1'000'000);
}

TEST(StageProfilerTest, DisabledProfilerRecordsNothing) {
  FakeClock clock;
  StageProfiler profiler(clock.Options());
  profiler.SetEnabled(false);

  profiler.BeginRequest();
  {
    StageScope scope(ProfileStage::kExpansion);
    StageProfiler::AddWork(ProfileStage::kExpansion, 99);
  }
  profiler.EndRequest(0);

  StageProfiler::Snapshot snap = profiler.SnapshotOver(kSecond);
  for (size_t s = 0; s < obs::kProfileStageCount; ++s) {
    EXPECT_EQ(snap.total[s].count, 0u) << s;
    EXPECT_EQ(snap.total[s].work, 0u) << s;
  }
  EXPECT_FALSE(profiler.enabled());
  profiler.SetEnabled(true);
  EXPECT_TRUE(profiler.enabled());
}

TEST(StageProfilerTest, WorkOutsideRequestIsDropped) {
  FakeClock clock;
  StageProfiler profiler(clock.Options());
  // No BeginRequest on this thread: both the scope and the work are no-ops.
  {
    StageScope scope(ProfileStage::kSolve);
    StageProfiler::AddWork(ProfileStage::kSolve, 1234);
  }
  profiler.BeginRequest();
  profiler.EndRequest(0);
  StageProfiler::Snapshot snap = profiler.SnapshotOver(kSecond);
  EXPECT_EQ(snap.total[Idx(ProfileStage::kSolve)].count, 0u);
  EXPECT_EQ(snap.total[Idx(ProfileStage::kSolve)].work, 0u);
  EXPECT_EQ(snap.total[Idx(ProfileStage::kRequest)].count, 1u);
}

TEST(StageProfilerTest, OldEpochsAgeOutOfTheWindow) {
  FakeClock clock;
  StageProfiler profiler(clock.Options(kSecond, /*epochs=*/8));
  profiler.BeginRequest();
  StageProfiler::AddWork(ProfileStage::kExpansion, 5);
  profiler.EndRequest(0);

  clock.Advance(10 * kSecond);  // beyond the 8-epoch ring
  profiler.BeginRequest();
  StageProfiler::AddWork(ProfileStage::kExpansion, 3);
  profiler.EndRequest(0);

  StageProfiler::Snapshot recent = profiler.SnapshotOver(kSecond);
  EXPECT_EQ(recent.total[Idx(ProfileStage::kRequest)].count, 1u);
  EXPECT_EQ(recent.total[Idx(ProfileStage::kExpansion)].work, 3u);
  // Even the widest answerable window no longer sees the first request.
  StageProfiler::Snapshot all = profiler.SnapshotOver(60 * kSecond);
  EXPECT_EQ(all.total[Idx(ProfileStage::kRequest)].count, 1u);
  EXPECT_EQ(all.total[Idx(ProfileStage::kExpansion)].work, 3u);
}

TEST(StageProfilerTest, ConcurrentRequestsAllFold) {
  FakeClock clock;
  StageProfiler profiler(clock.Options(kSecond, /*epochs=*/16));
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&profiler, t] {
      for (int i = 0; i < kPerThread; ++i) {
        profiler.BeginRequest();
        {
          StageScope scope(ProfileStage::kSelection);
          StageProfiler::AddWork(ProfileStage::kSelection, 2);
        }
        profiler.EndRequest(static_cast<size_t>(t) % obs::kProfileRungCount);
      }
    });
  }
  std::thread reader([&profiler] {
    for (int i = 0; i < 200; ++i) {
      (void)profiler.SnapshotOver(4 * kSecond);
      (void)profiler.ProfilezJson(4 * kSecond);
    }
  });
  for (auto& t : threads) t.join();
  reader.join();
  // The clock never moved: every fold landed in epoch 0.
  StageProfiler::Snapshot snap = profiler.SnapshotOver(16 * kSecond);
  EXPECT_EQ(snap.total[Idx(ProfileStage::kRequest)].count,
            static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(snap.total[Idx(ProfileStage::kSelection)].work,
            static_cast<uint64_t>(2 * kThreads * kPerThread));
}

TEST(StageProfilerTest, ProfilezJsonIsAFlameTreeWithSelfLeaves) {
  FakeClock clock;
  StageProfiler profiler(clock.Options());
  profiler.BeginRequest();
  {
    StageScope scope(ProfileStage::kExpansion);
    StageProfiler::AddWork(ProfileStage::kExpansion, 12);
  }
  profiler.EndRequest(/*rung=*/0);

  const std::string json = profiler.ProfilezJson(kSecond);
  EXPECT_NE(json.find("\"window_ns\":" + std::to_string(kSecond)),
            std::string::npos);
  EXPECT_NE(json.find("\"enabled\":true"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"suggest\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"rung_full\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"expansion\""), std::string::npos);
  EXPECT_NE(json.find("\"work\":12"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"self\""), std::string::npos);
  // Rungs that served no traffic are omitted from the tree.
  EXPECT_EQ(json.find("rung_cache_only"), std::string::npos);
}

TEST(StageProfilerTest, DisabledProfilerStillTimesTheRecord) {
  FakeClock clock;
  StageProfiler profiler(clock.Options());
  profiler.SetEnabled(false);

  obs::StageCosts costs;
  profiler.BeginRequest();
  {
    StageScope scope(ProfileStage::kSolve);
    StageProfiler::AddWork(ProfileStage::kSolve, 3);
  }
  profiler.EndRequest(0, &costs);

  // The record gets wall time and work, but no thread-CPU time...
  EXPECT_EQ(costs[Idx(ProfileStage::kRequest)].count, 1u);
  EXPECT_EQ(costs[Idx(ProfileStage::kSolve)].count, 1u);
  EXPECT_EQ(costs[Idx(ProfileStage::kSolve)].work, 3u);
  EXPECT_EQ(costs[Idx(ProfileStage::kSolve)].cpu_ns, 0);
  EXPECT_LE(costs[Idx(ProfileStage::kSolve)].wall_ns,
            costs[Idx(ProfileStage::kRequest)].wall_ns);
  // ...and nothing folds into the window.
  EXPECT_EQ(profiler.SnapshotOver(kSecond)
                .total[Idx(ProfileStage::kRequest)]
                .count,
            0u);
}

TEST(StageProfilerTest, ScopeHistogramRecordsInsideAndOutsideABracket) {
  FakeClock clock;
  StageProfiler profiler(clock.Options());
  obs::Histogram histogram(obs::Histogram::DefaultLatencyBoundsUs());
  { StageScope scope(ProfileStage::kSessionize, &histogram); }
  EXPECT_EQ(histogram.Count(), 1u);

  obs::StageCosts costs;
  profiler.BeginRequest();
  { StageScope scope(ProfileStage::kSessionize, &histogram); }
  profiler.EndRequest(obs::kProfileRebuildLane, &costs);
  EXPECT_EQ(histogram.Count(), 2u);
  EXPECT_EQ(costs[Idx(ProfileStage::kSessionize)].count, 1u);
}

// --------------------------------------- quality telemetry ----

TEST(SimpsonDiversityTest, KnownValues) {
  // All-distinct terms: every pair differs.
  EXPECT_DOUBLE_EQ(obs::SimpsonDiversityFromCounts({1, 1, 1, 1}), 1.0);
  // One term repeated four times: no pair differs.
  EXPECT_DOUBLE_EQ(obs::SimpsonDiversityFromCounts({4}), 0.0);
  // {a,a,b,b}: 1 - (2+2)/(4*3) = 2/3.
  EXPECT_NEAR(obs::SimpsonDiversityFromCounts({2, 2}), 2.0 / 3.0, 1e-12);
  // Degenerate multisets have no pairwise diversity.
  EXPECT_DOUBLE_EQ(obs::SimpsonDiversityFromCounts({}), 0.0);
  EXPECT_DOUBLE_EQ(obs::SimpsonDiversityFromCounts({1}), 0.0);
}

TEST(SimpsonDiversityTest, ListSimpsonDiversityTokenizesSuggestions) {
  std::vector<Suggestion> repetitive = {{"solar solar", 1.0},
                                        {"solar", 0.5}};
  EXPECT_DOUBLE_EQ(ListSimpsonDiversity(repetitive), 0.0);

  std::vector<Suggestion> distinct = {{"solar energy", 1.0},
                                      {"java download", 0.5}};
  EXPECT_DOUBLE_EQ(ListSimpsonDiversity(distinct), 1.0);

  std::vector<Suggestion> mixed = {{"sun java", 1.0}, {"sun news", 0.5}};
  // Terms {sun, sun, java, news}: 1 - 2/(4*3) = 5/6.
  EXPECT_NEAR(ListSimpsonDiversity(mixed), 5.0 / 6.0, 1e-12);

  EXPECT_DOUBLE_EQ(ListSimpsonDiversity({}), 0.0);
}

TEST(QualityTelemetryTest, HeadSamplingEveryNth) {
  obs::QualityTelemetryOptions options;
  options.sample_every = 4;
  obs::QualityTelemetry quality(options);
  int sampled = 0;
  for (int i = 0; i < 12; ++i) {
    if (quality.Sample()) ++sampled;
  }
  EXPECT_EQ(sampled, 3);  // arrivals 0, 4, 8

  obs::QualityTelemetryOptions off;
  off.sample_every = 0;
  obs::QualityTelemetry disabled(off);
  EXPECT_FALSE(disabled.Sample());

  obs::QualityTelemetryOptions all;
  all.sample_every = 1;
  obs::QualityTelemetry every(all);
  EXPECT_TRUE(every.Sample());
  EXPECT_TRUE(every.Sample());
}

TEST(QualityTelemetryTest, WindowedCellMeansSplitByRungAndHit) {
  FakeClock clock;
  obs::QualityTelemetryOptions options;
  options.window = clock.Options();
  obs::QualityTelemetry quality(options);

  quality.Record(/*rung=*/0, /*cache_hit=*/false, /*simpson=*/0.5,
                 /*coverage=*/1.0);
  quality.Record(0, false, 1.0, 0.6);
  quality.Record(2, true, 0.25, 0.5);

  obs::QualityTelemetry::CellSnapshot miss =
      quality.SnapshotCell(0, false, kSecond);
  EXPECT_EQ(miss.samples, 2u);
  EXPECT_NEAR(miss.simpson_mean, 0.75, 1e-12);
  EXPECT_NEAR(miss.coverage_mean, 0.8, 1e-12);

  obs::QualityTelemetry::CellSnapshot hit =
      quality.SnapshotCell(2, true, kSecond);
  EXPECT_EQ(hit.samples, 1u);
  EXPECT_NEAR(hit.simpson_mean, 0.25, 1e-12);

  EXPECT_EQ(quality.SnapshotCell(0, true, kSecond).samples, 0u);
  EXPECT_EQ(quality.SnapshotCell(3, false, kSecond).samples, 0u);

  // The recorded samples age out with the ring.
  clock.Advance(20 * kSecond);
  EXPECT_EQ(quality.SnapshotCell(0, false, 8 * kSecond).samples, 0u);
}

TEST(QualityTelemetryTest, StatuszSectionOmitsEmptyCells) {
  FakeClock clock;
  obs::QualityTelemetryOptions options;
  options.window = clock.Options();
  options.sample_every = 2;
  obs::QualityTelemetry quality(options);
  quality.Record(0, false, 1.0, 1.0);

  const std::string json = quality.StatuszSection(kSecond);
  EXPECT_NE(json.find("\"sample_every\":2"), std::string::npos);
  EXPECT_NE(json.find("\"full\""), std::string::npos);
  EXPECT_NE(json.find("\"cache_miss\""), std::string::npos);
  EXPECT_NE(json.find("\"samples\":1"), std::string::npos);
  // No traffic on the degraded rungs: their cells are absent.
  EXPECT_EQ(json.find("\"walk_only\""), std::string::npos);
  EXPECT_EQ(json.find("\"cache_hit\""), std::string::npos);
}

// ------------------------------------ end-to-end fixtures ----

std::vector<QueryLogRecord> ProfilerLog() {
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

SuggestionRequest ProfilerRequest(const std::string& query,
                                  UserId user = kNoUser) {
  SuggestionRequest request;
  request.query = query;
  request.timestamp = 400;
  request.user = user;
  return request;
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "pqsda_profiler_" + name + "_" +
         std::to_string(::getpid()) + ".jsonl";
}

// |a - b| within 30% of the larger plus an absolute floor — wall clocks
// bracketing the same block from slightly different nesting depths.
void ExpectReconciled(int64_t profiler_us, int64_t trace_us,
                      const std::string& label) {
  const int64_t diff = profiler_us > trace_us ? profiler_us - trace_us
                                              : trace_us - profiler_us;
  const int64_t larger = std::max(profiler_us, trace_us);
  EXPECT_LE(diff, larger * 3 / 10 + 3000)
      << label << ": profiler=" << profiler_us << "us trace=" << trace_us
      << "us";
}

// Per-stage totals in the profiler's window must reconcile with the same
// requests' SuggestStats — identical counts, identical work units, and wall
// time within tolerance (both now read the one request record).
TEST(ProfilerReconciliationTest, ProfilezTotalsMatchSuggestStats) {
  StageProfiler& profiler = StageProfiler::Install({});

  PqsdaEngineConfig config;
  config.upm.base.num_topics = 4;
  config.upm.base.gibbs_iterations = 10;
  config.upm.hyper_rounds = 1;
  config.cache_capacity = 0;  // no cache stage in this reconciliation
  auto engine = PqsdaEngine::Build(ProfilerLog(), config);
  ASSERT_TRUE(engine.ok());

  const std::vector<std::string> queries = {"sun", "solar energy",
                                            "sun java"};
  constexpr size_t kRequests = 12;
  int64_t trace_request_us = 0;
  int64_t trace_expansion_us = 0;
  int64_t trace_solve_us = 0;
  int64_t trace_selection_us = 0;
  int64_t trace_personalization_us = 0;
  uint64_t walk_steps = 0;
  uint64_t solve_iterations = 0;
  uint64_t candidates_scored = 0;
  uint64_t personalized = 0;
  for (size_t i = 0; i < kRequests; ++i) {
    SuggestStats stats;
    auto result = (*engine)->Suggest(
        ProfilerRequest(queries[i % queries.size()], /*user=*/1), 5, &stats);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    trace_request_us += stats.total_us();
    trace_expansion_us += stats.stage_us(ProfileStage::kExpansion);
    trace_solve_us += stats.stage_us(ProfileStage::kSolve);
    trace_selection_us += stats.stage_us(ProfileStage::kSelection);
    trace_personalization_us += stats.stage_us(ProfileStage::kPersonalization);
    walk_steps += stats.expansion.walk_steps;
    solve_iterations += stats.solve.iterations;
    candidates_scored += stats.candidates_scored;
    if (stats.personalized) ++personalized;
  }
  ASSERT_EQ(personalized, kRequests);  // user 1 is known: the rerank ran

  StageProfiler::Snapshot snap = profiler.SnapshotOver(300 * kSecond);

  // Counts: one request bracket per Suggest, one scope per stage per
  // request, all on the full rung.
  EXPECT_EQ(snap.total[Idx(ProfileStage::kRequest)].count, kRequests);
  EXPECT_EQ(snap.per_rung[0][Idx(ProfileStage::kRequest)].count, kRequests);
  EXPECT_EQ(snap.total[Idx(ProfileStage::kExpansion)].count, kRequests);
  EXPECT_EQ(snap.total[Idx(ProfileStage::kSolve)].count, kRequests);
  EXPECT_EQ(snap.total[Idx(ProfileStage::kSelection)].count, kRequests);
  EXPECT_EQ(snap.total[Idx(ProfileStage::kPersonalization)].count, kRequests);
  EXPECT_EQ(snap.total[Idx(ProfileStage::kCache)].count, 0u);

  // Work units: exactly the counters the stats structs reported.
  EXPECT_EQ(snap.total[Idx(ProfileStage::kExpansion)].work, walk_steps);
  EXPECT_EQ(snap.total[Idx(ProfileStage::kSolve)].work, solve_iterations);
  EXPECT_EQ(snap.total[Idx(ProfileStage::kSelection)].work,
            candidates_scored);
  EXPECT_GT(snap.total[Idx(ProfileStage::kPersonalization)].work, 0u);

  // Wall time: the profiler's window and the stats read the same scopes.
  ExpectReconciled(snap.total[Idx(ProfileStage::kRequest)].wall_ns / 1000,
                   trace_request_us, "request");
  ExpectReconciled(snap.total[Idx(ProfileStage::kExpansion)].wall_ns / 1000,
                   trace_expansion_us, "expansion");
  ExpectReconciled(snap.total[Idx(ProfileStage::kSolve)].wall_ns / 1000,
                   trace_solve_us, "solve");
  ExpectReconciled(snap.total[Idx(ProfileStage::kSelection)].wall_ns / 1000,
                   trace_selection_us, "selection");
  ExpectReconciled(
      snap.total[Idx(ProfileStage::kPersonalization)].wall_ns / 1000,
      trace_personalization_us, "personalization");

  // The stage scopes nest inside the request bracket, so their attributed
  // wall can never exceed it (the difference is the "self" leaf).
  const int64_t attributed =
      snap.total[Idx(ProfileStage::kExpansion)].wall_ns +
      snap.total[Idx(ProfileStage::kSolve)].wall_ns +
      snap.total[Idx(ProfileStage::kSelection)].wall_ns +
      snap.total[Idx(ProfileStage::kPersonalization)].wall_ns;
  EXPECT_LE(attributed,
            snap.total[Idx(ProfileStage::kRequest)].wall_ns + 1'000'000);

  // The rendered /profilez tree carries the same rung and stages.
  const std::string json = profiler.ProfilezJson(300 * kSecond);
  EXPECT_NE(json.find("\"name\":\"rung_full\""), std::string::npos);
  for (const char* stage :
       {"expansion", "solve", "selection", "personalization", "self"}) {
    EXPECT_NE(json.find("\"name\":\"" + std::string(stage) + "\""),
              std::string::npos)
        << stage;
  }
  EXPECT_NE(json.find("\"count\":" + std::to_string(kRequests)),
            std::string::npos);
}

// The number right after `"key":` at or after `from` in a JSON body;
// NaN when absent.
double JsonNumberAfter(const std::string& json, const std::string& key,
                       size_t from = 0) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = json.find(needle, from);
  if (pos == std::string::npos) return std::nan("");
  return std::strtod(json.c_str() + pos + needle.size(), nullptr);
}

PqsdaEngineConfig SmallUpmConfig() {
  PqsdaEngineConfig config;
  config.upm.base.num_topics = 4;
  config.upm.base.gibbs_iterations = 10;
  config.upm.hyper_rounds = 1;
  return config;
}

// The one-record contract: a request sampled into /tracez, /explainz and
// the request log shows the same per-stage wall times and total in all
// three, and /profilez (a fresh profiler that saw only this request) shows
// them at its JSON precision.
TEST(RequestRecordTest, EverySinkShowsTheSameStageTimes) {
  StageProfiler& profiler = StageProfiler::Install({});
  obs::ServingTelemetryOptions options;
  options.trace_sample_every = 1;
  options.explain_sample_every = 1;
  obs::ServingTelemetry& telemetry = obs::ServingTelemetry::Install(options);
  const std::string log_path = TempPath("one_record");
  std::remove(log_path.c_str());
  obs::RequestLogOptions log_options;
  log_options.path = log_path;
  log_options.sample_every = 1;
  auto opened = obs::RequestLog::Open(log_options);
  ASSERT_TRUE(opened.ok());
  telemetry.AttachRequestLog(std::move(opened).value());

  PqsdaEngineConfig config = SmallUpmConfig();
  config.cache_capacity = 16;
  auto engine = PqsdaEngine::Build(ProfilerLog(), config);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->Suggest(ProfilerRequest("sun", /*user=*/1), 5).ok());
  telemetry.request_log()->Flush();

  auto entries = obs::ReadRequestLog(log_path, 0);
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 1u);
  const obs::RequestLogEntry& logged = entries->front();
  std::shared_ptr<const obs::ExplainRecord> explained =
      telemetry.explain_store().Find(logged.request_id);
  ASSERT_NE(explained, nullptr);
  const std::string tracez = telemetry.TracezJson();
  const size_t trace_at = tracez.find(
      "\"request_id\":" + std::to_string(logged.request_id) + ",");
  ASSERT_NE(trace_at, std::string::npos) << tracez;
  const std::string profilez = profiler.ProfilezJson(300 * kSecond);
  const size_t rung_at = profilez.find("\"name\":\"rung_full\"");
  ASSERT_NE(rung_at, std::string::npos) << profilez;

  // A cache miss through the personalized pipeline runs every serving stage.
  const std::vector<std::pair<std::string, int64_t>>& stages = logged.stage_us;
  std::vector<std::string> names;
  for (const auto& [name, us] : stages) names.push_back(name);
  EXPECT_EQ(names, (std::vector<std::string>{"cache", "expansion", "solve",
                                             "selection", "personalization"}));
  EXPECT_EQ(explained->stage_us, stages);
  EXPECT_EQ(explained->total_us, logged.total_us);
  EXPECT_EQ(JsonNumberAfter(tracez, "total_us", trace_at),
            static_cast<double>(logged.total_us));
  auto near_profilez = [](double profilez_us, int64_t us) {
    // %.6g of the exact ns/1000 vs its floor.
    return std::fabs(profilez_us - static_cast<double>(us)) <=
           1.0 + 1e-5 * static_cast<double>(us);
  };
  EXPECT_TRUE(near_profilez(JsonNumberAfter(profilez, "wall_us", rung_at),
                            logged.total_us))
      << profilez;
  for (const auto& [name, us] : stages) {
    EXPECT_EQ(JsonNumberAfter(tracez, "wall_us",
                              tracez.find("\"" + name + "\":{", trace_at)),
              static_cast<double>(us))
        << name;
    const size_t leaf =
        profilez.find("\"name\":\"" + name + "\"", rung_at);
    ASSERT_NE(leaf, std::string::npos) << name;
    EXPECT_EQ(JsonNumberAfter(profilez, "count", leaf), 1.0) << name;
    EXPECT_TRUE(near_profilez(JsonNumberAfter(profilez, "wall_us", leaf), us))
        << name << ": " << profilez;
  }
  telemetry.AttachRequestLog(nullptr);
  std::remove(log_path.c_str());
}

// Post-swap warmup replays requests on the rebuild thread, but after the
// rebuild bracket closed: none of its serving stages fold into the rebuild
// lane.
TEST(StageProfilerTest, WarmupRunsOutsideTheRebuildLane) {
  const std::string warm_path = TempPath("warmup");
  {
    obs::RequestLogEntry entry;
    entry.query = "sun";
    entry.k = 5;
    entry.user = kNoUser;
    entry.timestamp = 400;
    std::ofstream out(warm_path, std::ios::trunc);
    out << obs::RequestLog::ToJson(entry) << "\n";
  }
  PqsdaEngineConfig config;
  config.personalize = false;
  config.cache_capacity = 16;
  config.cache_warmup.log_path = warm_path;
  auto engine = PqsdaEngine::Build(ProfilerLog(), config);
  ASSERT_TRUE(engine.ok());

  StageProfiler& profiler = StageProfiler::Install({});
  obs::Counter& replayed = obs::MetricsRegistry::Default().GetCounter(
      "pqsda.cache.warmup_replayed_total");
  const uint64_t replayed0 = replayed.Value();
  ASSERT_TRUE((*engine)->Ingest({7, "sun", "www.nasa.gov", 500}).ok());
  ASSERT_TRUE((*engine)->index_manager().RebuildNow().ok());
  ASSERT_EQ(replayed.Value(), replayed0 + 1);  // the warmup really ran

  const auto& lane =
      profiler.SnapshotOver(300 * kSecond).per_rung[obs::kProfileRebuildLane];
  EXPECT_EQ(lane[Idx(ProfileStage::kRequest)].count, 1u);
  EXPECT_EQ(lane[Idx(ProfileStage::kPublish)].count, 1u);
  for (ProfileStage stage :
       {ProfileStage::kCache, ProfileStage::kExpansion, ProfileStage::kSolve,
        ProfileStage::kSelection, ProfileStage::kPersonalization}) {
    EXPECT_EQ(lane[Idx(stage)].count, 0u) << obs::ProfileStageName(stage);
  }
  std::remove(warm_path.c_str());
}

TEST(StageProfilerTest, PersonalizedRebuildFoldsOneUpmTrain) {
  auto engine = PqsdaEngine::Build(ProfilerLog(), SmallUpmConfig());
  ASSERT_TRUE(engine.ok());
  StageProfiler& profiler = StageProfiler::Install({});
  ASSERT_TRUE((*engine)->Ingest({7, "sun", "www.nasa.gov", 500}).ok());
  ASSERT_TRUE((*engine)->index_manager().RebuildNow().ok());

  const auto& lane =
      profiler.SnapshotOver(300 * kSecond).per_rung[obs::kProfileRebuildLane];
  EXPECT_EQ(lane[Idx(ProfileStage::kRequest)].count, 1u);
  EXPECT_EQ(lane[Idx(ProfileStage::kUpmTrain)].count, 1u);
  // graph_build covers representation + corpus; the UPM has its own stage.
  EXPECT_EQ(lane[Idx(ProfileStage::kGraphBuild)].count, 2u);
  EXPECT_NE(profiler.ProfilezJson(300 * kSecond).find("\"upm_train\""),
            std::string::npos);
}

// ----------------------------------------------- exemplars ----

// Every "request_id":N inside the "exemplars" array of a /statusz body.
std::vector<uint64_t> ExemplarIds(const std::string& statusz) {
  std::vector<uint64_t> ids;
  size_t begin = statusz.find("\"exemplars\":[");
  if (begin == std::string::npos) return ids;
  size_t end = statusz.find(']', begin);
  std::string section = statusz.substr(begin, end - begin);
  const std::string needle = "\"request_id\":";
  size_t pos = 0;
  while ((pos = section.find(needle, pos)) != std::string::npos) {
    pos += needle.size();
    ids.push_back(std::strtoull(section.c_str() + pos, nullptr, 10));
  }
  return ids;
}

TEST(ExemplarTest, ExemplarIdsResolveToTracezOrRequestLog) {
  FakeClock clock;
  obs::ServingTelemetryOptions options;
  options.window = clock.Options(kSecond, /*epochs=*/512);
  options.trace_sample_every = 1;  // every request traced
  obs::ServingTelemetry& telemetry = obs::ServingTelemetry::Install(options);

  const std::string log_path = TempPath("exemplar");
  obs::RequestLogOptions log_options;
  log_options.path = log_path;
  log_options.sample_every = 1;  // every request logged
  auto opened = obs::RequestLog::Open(log_options);
  ASSERT_TRUE(opened.ok());
  telemetry.AttachRequestLog(std::move(opened).value());

  PqsdaEngineConfig config;
  config.personalize = false;
  config.cache_capacity = 0;
  auto engine = PqsdaEngine::Build(ProfilerLog(), config);
  ASSERT_TRUE(engine.ok());

  for (int i = 0; i < 10; ++i) {
    auto result =
        (*engine)->Suggest(ProfilerRequest(i % 2 == 0 ? "sun" : "sun java"), 5);
    ASSERT_TRUE(result.ok());
  }
  telemetry.request_log()->Flush();

  const std::string statusz = telemetry.StatuszJson();
  ASSERT_NE(statusz.find("\"exemplars\":["), std::string::npos);
  const std::vector<uint64_t> ids = ExemplarIds(statusz);
  ASSERT_FALSE(ids.empty());

  const std::string tracez = telemetry.TracezJson();
  std::stringstream log_contents;
  log_contents << std::ifstream(log_path).rdbuf();
  const std::string log_text = log_contents.str();

  // Every exemplar must be an actual request, findable in at least one of
  // the two debugging surfaces it is meant to link to.
  for (uint64_t id : ids) {
    const std::string needle = "\"request_id\":" + std::to_string(id) + ",";
    const bool in_tracez = tracez.find(needle) != std::string::npos;
    const bool in_log = log_text.find(needle) != std::string::npos;
    EXPECT_TRUE(in_tracez || in_log) << "exemplar id " << id;
  }

  // The exemplar entries carry the fields the /statusz reader pivots on.
  EXPECT_NE(statusz.find("\"le\":"), std::string::npos);
  EXPECT_NE(statusz.find("\"latency_us\":"), std::string::npos);
  EXPECT_NE(statusz.find("\"age_sec\":"), std::string::npos);
  std::remove(log_path.c_str());
}

// ------------------------------------------- SLO burn rate ----

// Drives the shed-rate SLO through its whole alert lifecycle at /alertz,
// with load shedding forced deterministically through the fault injector's
// queue-depth override and time moved by the fake clock:
//   healthy (good traffic) -> burning (shed storm trips both windows)
//   -> resolved (fast window clean, slow window still remembers)
//   -> healthy (slow window clean too).
TEST(SloLifecycleTest, ShedStormTripsAndResolvesAtAlertz) {
  FaultInjector& injector = FaultInjector::Default();
  injector.Reset();

  FakeClock clock;
  obs::ServingTelemetryOptions options;
  options.window = clock.Options(5 * kSecond, /*epochs=*/256);
  obs::ServingTelemetry& telemetry = obs::ServingTelemetry::Install(options);

  auto specs = obs::ParseSloSpecs("shed_rate:0.9");
  ASSERT_TRUE(specs.ok());
  telemetry.ConfigureSlos(std::move(*specs));
  ASSERT_NE(telemetry.slo(), nullptr);

  obs::HttpExporter exporter;
  telemetry.RegisterEndpoints(&exporter);
  ASSERT_TRUE(exporter.Start(0).ok());

  PqsdaEngineConfig config;
  config.personalize = false;
  config.cache_capacity = 0;
  config.robustness.shed_queue_depth = 4;
  auto engine = PqsdaEngine::Build(ProfilerLog(), config);
  ASSERT_TRUE(engine.ok());

  auto serve = [&](int n, bool expect_shed) {
    for (int i = 0; i < n; ++i) {
      auto result = (*engine)->Suggest(ProfilerRequest("sun"), 5);
      if (expect_shed) {
        ASSERT_FALSE(result.ok());
        EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
      } else {
        ASSERT_TRUE(result.ok());
      }
    }
  };
  auto scrape_alertz = [&] {
    int status = 0;
    auto body = obs::HttpGet(exporter.port(), "/alertz", &status);
    EXPECT_TRUE(body.ok());
    EXPECT_EQ(status, 200);
    return body.ok() ? *body : std::string();
  };

  // Phase 1 — good traffic only: healthy, zero burn.
  serve(20, /*expect_shed=*/false);
  std::string alertz = scrape_alertz();
  EXPECT_NE(alertz.find("\"name\":\"shed_rate\""), std::string::npos);
  EXPECT_NE(alertz.find("\"state\":\"healthy\""), std::string::npos);
  EXPECT_NE(alertz.find("\"trips\":0"), std::string::npos);

  // Phase 2 — forced pool saturation sheds everything: 20 of 40 requests
  // bad in both windows, burn = 0.5/0.1 = 5 > threshold 4 -> burning.
  injector.SetValue(faults::kQueueDepth, 1000);
  serve(20, /*expect_shed=*/true);
  injector.Reset();
  alertz = scrape_alertz();
  EXPECT_NE(alertz.find("\"state\":\"burning\""), std::string::npos);
  EXPECT_NE(alertz.find("\"trips\":1"), std::string::npos);
  EXPECT_NE(alertz.find("\"from\":\"healthy\",\"to\":\"burning\""),
            std::string::npos);

  // Phase 3 — 70s later the fast window holds only fresh good traffic
  // (burn 0 < 1) while the slow window still remembers the storm:
  // resolved, not yet healthy.
  clock.Advance(70 * kSecond);
  serve(20, /*expect_shed=*/false);
  alertz = scrape_alertz();
  EXPECT_NE(alertz.find("\"state\":\"resolved\""), std::string::npos);
  EXPECT_NE(alertz.find("\"from\":\"burning\",\"to\":\"resolved\""),
            std::string::npos);

  // Phase 4 — once the storm ages past the slow window too, the alert
  // closes completely.
  clock.Advance(310 * kSecond);
  serve(20, /*expect_shed=*/false);
  alertz = scrape_alertz();
  EXPECT_NE(alertz.find("\"state\":\"healthy\""), std::string::npos);
  EXPECT_NE(alertz.find("\"from\":\"resolved\",\"to\":\"healthy\""),
            std::string::npos);

  // The compact SLO section rides along in /statusz.
  const std::string statusz = telemetry.StatuszJson();
  EXPECT_NE(statusz.find("\"slo\":["), std::string::npos);
  EXPECT_NE(statusz.find("\"fast_burn\":"), std::string::npos);

  exporter.Stop();
  injector.Reset();
}

TEST(SloSpecParsingTest, AcceptsValidAndRejectsMalformed) {
  auto avail = obs::ParseSloSpec("availability:0.999");
  ASSERT_TRUE(avail.ok());
  EXPECT_EQ(avail->kind, obs::SloKind::kAvailability);
  EXPECT_DOUBLE_EQ(avail->objective, 0.999);

  auto latency = obs::ParseSloSpec("latency:0.99:200000");
  ASSERT_TRUE(latency.ok());
  EXPECT_EQ(latency->kind, obs::SloKind::kLatency);
  EXPECT_DOUBLE_EQ(latency->latency_threshold_us, 200000.0);

  auto list = obs::ParseSloSpecs("availability:0.999,shed_rate:0.95");
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list->size(), 2u);

  EXPECT_FALSE(obs::ParseSloSpec("").ok());
  EXPECT_FALSE(obs::ParseSloSpec("throughput:0.9").ok());
  EXPECT_FALSE(obs::ParseSloSpec("availability:1.5").ok());
  EXPECT_FALSE(obs::ParseSloSpec("latency:0.99").ok());  // threshold missing
  EXPECT_FALSE(obs::ParseSloSpec("availability:0.9:7").ok());
  EXPECT_TRUE(obs::ParseSloSpecs("")->empty());
}

TEST(SloEngineTest, UnconfiguredAlertzIsEmptyButWellFormed) {
  obs::ServingTelemetryOptions options;
  obs::ServingTelemetry telemetry(options);
  EXPECT_EQ(telemetry.slo(), nullptr);
  EXPECT_EQ(telemetry.AlertzJson(), "{\"slos\":[],\"transitions\":[]}");
}

}  // namespace
}  // namespace pqsda
