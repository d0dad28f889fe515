// Deterministic fault-injection harness for the overload-hardened serving
// path: deadlines, cancellation, load shedding and the degradation ladder.
// Every fault here is injected at an exact named point (FaultInjector) on a
// fake clock — no sleeps, no wall-clock races — so "the deadline expires on
// the 2nd solver iteration" is a reproducible statement.
//
// The invariants under test, across the whole {stage x fault x rung} matrix:
//   - a faulted request returns a well-formed Status (kDeadlineExceeded /
//     kCancelled / kUnavailable / kNotFound), never a partial suggestion
//     list and never a crash;
//   - a reused SuggestStats never carries a previous request's numbers out
//     of any fault path;
//   - interruption is honored within one iteration-check granularity.
//
// This file also carries the deadline-storm batch test the TSAN verify step
// of run_benches.sh re-runs, and the regression test for silently-accepted
// non-convergence (now only the truncated rung accepts it, loudly).

#include <atomic>
#include <deque>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/cancellation.h"
#include "common/fault_injector.h"
#include "common/thread_pool.h"
#include "core/admission.h"
#include "core/pqsda_engine.h"
#include "obs/metrics.h"
#include "obs/request_log.h"
#include "obs/telemetry.h"
#include "solver/linear_solvers.h"

namespace pqsda {
namespace {

constexpr int64_t kMs = 1'000'000;
constexpr int64_t kSec = 1'000'000'000;

// Same 14-record log the serving suite uses: three topic clusters around
// "sun" plus per-user click history.
std::vector<QueryLogRecord> FaultLog() {
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

std::unique_ptr<PqsdaEngine> BuildFaultEngine(
    RobustnessOptions robustness = {}, size_t cache_capacity = 0) {
  PqsdaEngineConfig config;
  config.upm.base.num_topics = 4;
  config.upm.base.gibbs_iterations = 10;
  config.upm.hyper_rounds = 1;
  config.cache_capacity = cache_capacity;
  config.robustness = robustness;
  auto built = PqsdaEngine::Build(FaultLog(), config);
  EXPECT_TRUE(built.ok());
  return std::move(built).value();
}

SuggestionRequest FaultRequest(const std::string& query,
                               UserId user = kNoUser) {
  SuggestionRequest request;
  request.query = query;
  request.timestamp = 400;
  request.user = user;
  return request;
}

// A stats struct full of junk: after any request — served, shed, faulted —
// none of these sentinels may survive.
SuggestStats PoisonedStats() {
  SuggestStats stats;
  stats.compact_size = 999;
  stats.hitting_rounds = 999;
  stats.candidates_scored = 999;
  stats.suggestions_returned = 999;
  stats.personalized = true;
  stats.shed = true;
  stats.degradation_rung = 7;
  stats.solve.iterations = 999;
  stats.solve.relative_residual = 123.0;
  stats.solve.converged = true;
  return stats;
}

void ExpectStatsReset(const SuggestStats& stats) {
  EXPECT_NE(stats.compact_size, 999u);
  EXPECT_NE(stats.hitting_rounds, 999u);
  EXPECT_NE(stats.candidates_scored, 999u);
  EXPECT_NE(stats.suggestions_returned, 999u);
  EXPECT_NE(stats.degradation_rung, 7u);
  EXPECT_NE(stats.solve.iterations, 999u);
}

// Resets the process-wide injector around every test so armed faults and
// hit counts never leak between tests (the suite runs in one process).
class FaultInjectionTest : public testing::Test {
 protected:
  void SetUp() override { FaultInjector::Default().Reset(); }
  void TearDown() override { FaultInjector::Default().Reset(); }
};

// ------------------------------------------------- CancelToken unit ----

TEST_F(FaultInjectionTest, CancelTokenDefaultIsUnbounded) {
  CancelToken token;
  EXPECT_FALSE(token.has_deadline());
  EXPECT_FALSE(token.cancelled());
  EXPECT_FALSE(token.expired());
  EXPECT_EQ(token.RemainingNanos(), CancelToken::kNoDeadline);
  EXPECT_TRUE(token.Check().ok());
}

TEST_F(FaultInjectionTest, CancelTokenDeadlineOnFakeClock) {
  FaultInjector& injector = FaultInjector::Default();
  injector.SetClock(1000 * kSec);
  CancelToken token(injector.ClockFn());
  token.SetDeadlineAfter(10 * kMs);
  EXPECT_TRUE(token.Check().ok());
  EXPECT_EQ(token.RemainingNanos(), 10 * kMs);

  injector.AdvanceClock(9 * kMs);
  EXPECT_TRUE(token.Check().ok());
  injector.AdvanceClock(2 * kMs);
  EXPECT_TRUE(token.expired());
  EXPECT_EQ(token.Check().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(FaultInjectionTest, CancellationWinsOverExpiry) {
  FaultInjector& injector = FaultInjector::Default();
  injector.SetClock(0);
  CancelToken token(injector.ClockFn());
  token.SetDeadlineAfter(1);
  injector.AdvanceClock(5 * kSec);
  token.Cancel();
  EXPECT_EQ(token.Check().code(), StatusCode::kCancelled);
}

// ----------------------------------------------- FaultInjector unit ----

TEST_F(FaultInjectionTest, ArmTriggersOnExactHit) {
  FaultInjector& injector = FaultInjector::Default();
  CancelToken token;
  FaultAction action;
  action.at_hit = 3;
  action.cancel = &token;
  injector.Arm("unit.point", action);

  injector.Hit("unit.point");
  injector.Hit("unit.point");
  EXPECT_FALSE(token.cancelled());
  injector.Hit("unit.point");
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(injector.Hits("unit.point"), 3u);
}

TEST_F(FaultInjectionTest, ValueOverrideAndReset) {
  FaultInjector& injector = FaultInjector::Default();
  EXPECT_EQ(injector.Value("unit.value", 42), 42);
  injector.SetValue("unit.value", 7);
  EXPECT_EQ(injector.Value("unit.value", 42), 7);
  injector.Reset();
  EXPECT_EQ(injector.Value("unit.value", 42), 42);
  EXPECT_EQ(injector.Hits("unit.value"), 0u);
}

// ------------------------------------------------ solver interrupt ----

TEST_F(FaultInjectionTest, PreCancelledTokenStopsSolveBeforeFirstSweep) {
  auto a = CsrMatrix::FromTriplets(
      2, 2, {{0, 0, 4.0}, {0, 1, -1.0}, {1, 0, -1.0}, {1, 1, 4.0}});
  std::vector<double> b = {1.0, 2.0};
  CancelToken token;
  token.Cancel();
  SolverOptions options;
  options.cancel = &token;
  std::vector<double> x;
  auto result = GaussSeidelSolve(a, b, x, options);
  EXPECT_EQ(result.interrupt.code(), StatusCode::kCancelled);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.iterations, 0u);
}

// ------------------------------------------- {stage x fault x rung} ----

struct MatrixCase {
  const char* stage;    // injection point to arm
  uint64_t at_hit;      // which hit triggers the fault
  size_t rung;          // engine min_rung the case runs at
};

// Every pipeline stage that polls the token, at every ladder rung where the
// stage still runs. kExpansionDone fires once per request; the iteration /
// round points get hit 2 so the fault lands mid-stream.
const MatrixCase kMatrix[] = {
    {faults::kExpansionDone, 1, 0},
    {faults::kExpansionDone, 1, 1},
    {faults::kExpansionDone, 1, 2},
    {faults::kSolverIteration, 2, 0},
    {faults::kSolverIteration, 2, 1},
    {faults::kHittingIteration, 2, 0},
    {faults::kHittingIteration, 2, 1},
    {faults::kHittingRound, 2, 0},
    {faults::kHittingRound, 2, 1},
};

// One pass over the matrix per fault kind. The request runs with a 10s
// budget on the frozen fake clock, so the rung decision at admission is
// "plenty of budget" and the only thing that unwinds it is the injected
// fault at the armed point.
void RunFaultMatrix(bool deadline_fault) {
  FaultInjector& injector = FaultInjector::Default();
  for (const MatrixCase& c : kMatrix) {
    SCOPED_TRACE(std::string(c.stage) + " rung " + std::to_string(c.rung) +
                 (deadline_fault ? " deadline" : " cancel"));
    injector.Reset();
    injector.SetClock(0);

    RobustnessOptions robustness;
    robustness.min_rung = c.rung;
    auto engine = BuildFaultEngine(robustness);

    CancelToken token(injector.ClockFn());
    token.SetDeadlineAfter(10 * kSec);
    FaultAction action;
    action.at_hit = c.at_hit;
    if (deadline_fault) {
      action.advance_clock_ns = 20 * kSec;
    } else {
      action.cancel = &token;
    }
    injector.Arm(c.stage, action);

    SuggestionRequest request = FaultRequest("sun", /*user=*/1);
    request.cancel = &token;
    SuggestStats stats = PoisonedStats();
    auto result = engine->Suggest(request, 5, &stats);

    // Never a partial list: the faulted request carries a status, not a
    // truncated answer.
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), deadline_fault
                                          ? StatusCode::kDeadlineExceeded
                                          : StatusCode::kCancelled);
    // The reused stats struct reflects this request only.
    ExpectStatsReset(stats);
    EXPECT_EQ(stats.degradation_rung, c.rung);
    EXPECT_FALSE(stats.shed);
    EXPECT_FALSE(stats.personalized);
    EXPECT_EQ(stats.suggestions_returned, 0u);
  }
}

TEST_F(FaultInjectionTest, DeadlineExpiryAtEveryStageAndRung) {
  RunFaultMatrix(/*deadline_fault=*/true);
}

TEST_F(FaultInjectionTest, CancellationAtEveryStageAndRung) {
  RunFaultMatrix(/*deadline_fault=*/false);
}

// Acceptance criterion: a deadline that hits zero mid-solve unwinds within
// one iteration-check granularity — the solver takes no further sweep after
// the poll that observed expiry.
TEST_F(FaultInjectionTest, MidSolveExpiryStopsWithinOneIterationCheck) {
  FaultInjector& injector = FaultInjector::Default();
  injector.SetClock(0);
  auto engine = BuildFaultEngine();

  CancelToken token(injector.ClockFn());
  token.SetDeadlineAfter(10 * kSec);
  FaultAction action;
  action.at_hit = 3;  // clock jumps at the top of solver iteration 3
  action.advance_clock_ns = 20 * kSec;
  injector.Arm(faults::kSolverIteration, action);

  SuggestionRequest request = FaultRequest("sun");
  request.cancel = &token;
  auto result = engine->Suggest(request, 5);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  // The poll at the very iteration that advanced the clock observed the
  // expiry: the solver never started another sweep.
  EXPECT_EQ(injector.Hits(faults::kSolverIteration), 3u);
}

// A clock jump at admission shapes the budget the ladder reads: the request
// degrades (here all the way to cache-only) instead of erroring.
TEST_F(FaultInjectionTest, BudgetExhaustedAtAdmissionDegradesToCacheOnly) {
  FaultInjector& injector = FaultInjector::Default();
  injector.SetClock(0);
  auto engine = BuildFaultEngine({}, /*cache_capacity=*/16);

  // Warm the cache with a full-quality answer.
  SuggestStats stats;
  auto warm = engine->Suggest(FaultRequest("sun"), 5, &stats);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(stats.degradation_rung, 0u);

  // Zero the hit counts the warm request accumulated (Reset keeps the
  // clock), then arm the admission-time clock jump.
  injector.Reset();
  injector.SetClock(0);
  FaultAction action;
  action.advance_clock_ns = 10 * kSec - 1 * kMs;  // leaves 1ms of budget
  injector.Arm(faults::kAdmission, action);

  CancelToken token(injector.ClockFn());
  token.SetDeadlineAfter(10 * kSec);
  SuggestionRequest request = FaultRequest("sun");
  request.cancel = &token;
  SuggestStats degraded = PoisonedStats();
  auto hit = engine->Suggest(request, 5, &degraded);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(*hit, *warm);  // cache-only rung serves the cached full answer
  EXPECT_EQ(degraded.degradation_rung, 3u);

  // The same starved budget on an uncached query is a fast NotFound.
  injector.Reset();
  injector.SetClock(0);
  injector.Arm(faults::kAdmission, action);
  CancelToken token2(injector.ClockFn());
  token2.SetDeadlineAfter(10 * kSec);
  SuggestionRequest miss = FaultRequest("solar energy");
  miss.cancel = &token2;
  SuggestStats miss_stats = PoisonedStats();
  auto result = engine->Suggest(miss, 5, &miss_stats);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(miss_stats.degradation_rung, 3u);
  ExpectStatsReset(miss_stats);
}

// ------------------------------------------------------ load shedding ----

TEST_F(FaultInjectionTest, QueueDepthOverLimitShedsWithUnavailable) {
  FaultInjector& injector = FaultInjector::Default();
  RobustnessOptions robustness;
  robustness.shed_queue_depth = 4;
  auto engine = BuildFaultEngine(robustness);
  obs::Counter& shed_total =
      obs::MetricsRegistry::Default().GetCounter("pqsda.robust.shed_total");
  const uint64_t shed_before = shed_total.Value();

  // Fake pool saturation: no actual storm needed.
  injector.SetValue(faults::kQueueDepth, 1000);
  SuggestStats stats = PoisonedStats();
  auto result = engine->Suggest(FaultRequest("sun"), 5, &stats);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(stats.shed);
  ExpectStatsReset(stats);
  EXPECT_EQ(stats.suggestions_returned, 0u);
  EXPECT_EQ(shed_total.Value(), shed_before + 1);

  // Back under the limit, the same request is served.
  injector.SetValue(faults::kQueueDepth, 2);
  auto served = engine->Suggest(FaultRequest("sun"), 5, &stats);
  EXPECT_TRUE(served.ok());
  EXPECT_FALSE(stats.shed);
}

TEST_F(FaultInjectionTest, WindowedP95OverLimitShedsWithUnavailable) {
  FaultInjector& injector = FaultInjector::Default();
  RobustnessOptions robustness;
  robustness.shed_p95_us = 50'000.0;
  auto engine = BuildFaultEngine(robustness);

  injector.SetValue(faults::kP95Us, 400'000);
  auto result = engine->Suggest(FaultRequest("sun"), 5);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);

  injector.SetValue(faults::kP95Us, 1'000);
  EXPECT_TRUE(engine->Suggest(FaultRequest("sun"), 5).ok());
}

// --------------------------------------------------- ladder behavior ----

TEST_F(FaultInjectionTest, WalkOnlyRungServesBoundedDeterministicAnswer) {
  RobustnessOptions robustness;
  robustness.min_rung = 2;
  auto engine = BuildFaultEngine(robustness);

  SuggestStats stats = PoisonedStats();
  auto first = engine->Suggest(FaultRequest("sun", /*user=*/1), 5, &stats);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->empty());
  EXPECT_EQ(stats.degradation_rung, 2u);
  EXPECT_EQ(stats.hitting_rounds, 0u);     // Algorithm 1 skipped
  EXPECT_EQ(stats.solve.iterations, 0u);   // Eq. 15 solve skipped
  EXPECT_FALSE(stats.personalized);        // rerank skipped on this rung

  auto second = engine->Suggest(FaultRequest("sun", /*user=*/1), 5);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*first, *second);
}

// Regression: SolveRegularization must not silently accept a non-converged
// iterate. The full rung errors (NotConverged); only the truncated rung
// serves it — and then the outcome stays visible in stats and metrics.
TEST_F(FaultInjectionTest, TruncatedRungServesNonConvergedSolveLoudly) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  obs::Counter& nonconverged =
      reg.GetCounter("pqsda.solver.nonconverged_total");
  obs::Counter& served =
      reg.GetCounter("pqsda.robust.nonconverged_served_total");

  RobustnessOptions starved;
  starved.min_rung = 1;
  starved.truncated_max_iterations = 1;   // cannot converge in one sweep
  starved.truncated_tolerance = 1e-14;
  auto truncated = BuildFaultEngine(starved);

  const uint64_t nonconverged_before = nonconverged.Value();
  const uint64_t served_before = served.Value();
  SuggestStats stats = PoisonedStats();
  auto result = truncated->Suggest(FaultRequest("sun"), 5, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->empty());
  EXPECT_EQ(stats.degradation_rung, 1u);
  EXPECT_FALSE(stats.solve.converged);    // loud in per-request stats
  EXPECT_EQ(stats.solve.iterations, 1u);
  EXPECT_EQ(nonconverged.Value(), nonconverged_before + 1);  // loud counter
  EXPECT_EQ(served.Value(), served_before + 1);

  // The same starvation at the full rung is an error, not a silent serve:
  // drive the full pipeline with the impossible solver budget by calling
  // the diversifier directly.
  auto full_engine = BuildFaultEngine();
  PqsdaDiversifierOptions hard = full_engine->diversifier().options();
  hard.regularization.solver_options.max_iterations = 1;
  hard.regularization.solver_options.tolerance = 1e-14;
  auto direct = full_engine->diversifier().DiversifyWith(
      FaultRequest("sun"), 5, hard);
  ASSERT_FALSE(direct.ok());
  EXPECT_EQ(direct.status().code(), StatusCode::kNotConverged);
}

// Degraded answers must not poison the full-quality cache: a walk-only
// serve leaves no entry behind for the same key.
TEST_F(FaultInjectionTest, DegradedResultsAreNotCached) {
  FaultInjector& injector = FaultInjector::Default();
  injector.SetClock(0);
  auto engine = BuildFaultEngine({}, /*cache_capacity=*/16);

  // Budget in the walk-only band: remaining 10ms < walk_only_below_us.
  CancelToken token(injector.ClockFn());
  token.SetDeadlineAfter(10 * kMs);
  SuggestionRequest request = FaultRequest("sun");
  request.cancel = &token;
  SuggestStats stats;
  auto degraded = engine->Suggest(request, 5, &stats);
  ASSERT_TRUE(degraded.ok());
  EXPECT_EQ(stats.degradation_rung, 2u);

  // The follow-up full-budget request misses the cache and runs the full
  // pipeline (rung 0) — the degraded answer was not stored.
  SuggestStats full_stats;
  auto full = engine->Suggest(FaultRequest("sun"), 5, &full_stats);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full_stats.degradation_rung, 0u);
  EXPECT_GT(full_stats.hitting_rounds, 0u);  // pipeline actually ran
}

// ------------------------------------------------- negative cache ----

// A storm of lookups for an unknown query is absorbed by the negative
// cache: the first request runs the pipeline and records the NotFound,
// every repeat answers from the remembered verdict without invoking the
// engine again.
TEST_F(FaultInjectionTest, NegativeCacheAbsorbsNotFoundStorm) {
  PqsdaEngineConfig config;
  config.upm.base.num_topics = 4;
  config.upm.base.gibbs_iterations = 10;
  config.upm.hyper_rounds = 1;
  config.cache_capacity = 16;
  config.negative_cache_capacity = 16;
  auto built = PqsdaEngine::Build(FaultLog(), config);
  ASSERT_TRUE(built.ok());
  std::unique_ptr<PqsdaEngine> engine = std::move(built).value();

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  obs::Counter& neg_hits = reg.GetCounter("pqsda.cache.negative_hits_total");
  obs::Counter& neg_inserts =
      reg.GetCounter("pqsda.cache.negative_insertions_total");
  const uint64_t hits0 = neg_hits.Value();
  const uint64_t inserts0 = neg_inserts.Value();

  SuggestStats stats = PoisonedStats();
  auto first = engine->Suggest(FaultRequest("quantum flux capacitor"), 5,
                               &stats);
  EXPECT_EQ(first.status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(stats.negative_cache_hit);
  EXPECT_EQ(neg_inserts.Value(), inserts0 + 1);

  for (int i = 0; i < 8; ++i) {
    SuggestStats storm = PoisonedStats();
    auto repeat = engine->Suggest(FaultRequest("quantum flux capacitor"), 5,
                                  &storm);
    EXPECT_EQ(repeat.status().code(), StatusCode::kNotFound);
    EXPECT_TRUE(storm.negative_cache_hit);
    EXPECT_EQ(storm.hitting_rounds, 0u);  // the pipeline never ran
  }
  EXPECT_EQ(neg_hits.Value(), hits0 + 8);
  EXPECT_EQ(neg_inserts.Value(), inserts0 + 1);  // remembered once
}

// An ingested delta can make a remembered-NotFound query known. The
// negative entry is stamped with the owning component's generation, so the
// rebuild that absorbs the delta grades it stale: the entry is erased
// (counted), the pipeline re-runs, and the query now serves.
TEST_F(FaultInjectionTest, NegativeCacheInvalidatedWhenIngestMakesQueryKnown) {
  PqsdaEngineConfig config;
  config.upm.base.num_topics = 4;
  config.upm.base.gibbs_iterations = 10;
  config.upm.hyper_rounds = 1;
  config.cache_capacity = 16;
  config.negative_cache_capacity = 16;
  config.cache_delta_aware = true;
  config.ingest.rebuild_min_records = SIZE_MAX;  // rebuilds only on demand
  auto built = PqsdaEngine::Build(FaultLog(), config);
  ASSERT_TRUE(built.ok());
  std::unique_ptr<PqsdaEngine> engine = std::move(built).value();

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  obs::Counter& neg_invalidations =
      reg.GetCounter("pqsda.cache.negative_invalidations_total");

  const std::string query = "meteor shower";  // unknown at build time
  auto miss = engine->Suggest(FaultRequest(query), 5);
  EXPECT_EQ(miss.status().code(), StatusCode::kNotFound);
  SuggestStats storm;
  auto absorbed = engine->Suggest(FaultRequest(query), 5, &storm);
  EXPECT_EQ(absorbed.status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(storm.negative_cache_hit);

  std::vector<QueryLogRecord> delta = {
      {7, "meteor shower", "www.nasa.gov", 500},
      {8, "meteor shower", "www.nasa.gov", 510},
      {7, "solar system", "www.nasa.gov", 520}};
  for (QueryLogRecord& record : delta) {
    ASSERT_TRUE(engine->Ingest(std::move(record)).ok());
  }
  ASSERT_TRUE(engine->index_manager().RebuildNow().ok());

  const uint64_t invalidations0 = neg_invalidations.Value();
  SuggestStats after;
  auto known = engine->Suggest(FaultRequest(query), 5, &after);
  ASSERT_TRUE(known.ok()) << known.status().ToString();
  EXPECT_FALSE(after.negative_cache_hit);
  EXPECT_FALSE(known->empty());
  // The stale entry was erased on lookup, not silently bypassed.
  EXPECT_EQ(neg_invalidations.Value(), invalidations0 + 1);
}

// A NotFound served on a degraded rung proves nothing about the query —
// the walk-only path may simply not have looked hard enough — so it must
// never be remembered. Only the full rung's verdict is cached.
TEST_F(FaultInjectionTest, DegradedNotFoundIsNeverCachedNegatively) {
  FaultInjector& injector = FaultInjector::Default();
  injector.SetClock(0);
  PqsdaEngineConfig config;
  config.upm.base.num_topics = 4;
  config.upm.base.gibbs_iterations = 10;
  config.upm.hyper_rounds = 1;
  config.cache_capacity = 16;
  config.negative_cache_capacity = 16;
  auto built = PqsdaEngine::Build(FaultLog(), config);
  ASSERT_TRUE(built.ok());
  std::unique_ptr<PqsdaEngine> engine = std::move(built).value();

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  obs::Counter& neg_inserts =
      reg.GetCounter("pqsda.cache.negative_insertions_total");
  const uint64_t inserts0 = neg_inserts.Value();

  // Budget in the walk-only band: the degraded NotFound is not recorded.
  CancelToken token(injector.ClockFn());
  token.SetDeadlineAfter(10 * kMs);
  SuggestionRequest request = FaultRequest("quantum flux capacitor");
  request.cancel = &token;
  SuggestStats stats;
  auto degraded = engine->Suggest(request, 5, &stats);
  EXPECT_EQ(degraded.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(stats.degradation_rung, 2u);
  EXPECT_EQ(neg_inserts.Value(), inserts0);

  // The full-budget request is a genuine miss — nothing was remembered —
  // and only this full-rung verdict enters the negative cache.
  SuggestStats full;
  auto confirmed = engine->Suggest(FaultRequest("quantum flux capacitor"), 5,
                                   &full);
  EXPECT_EQ(confirmed.status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(full.negative_cache_hit);
  EXPECT_EQ(neg_inserts.Value(), inserts0 + 1);
}

// ------------------------------------------------- TSAN deadline storm ----

// Batched serving under a storm of tight real-clock deadlines and
// mid-flight cancellations from another thread. Run under ThreadSanitizer
// by run_benches.sh: the assertions here are weak (any well-formed outcome
// is fine) — the point is that tokens, fault points, workspaces and the
// ladder race-free under concurrent cancellation.
TEST_F(FaultInjectionTest, DeadlineStormUnderBatchStaysWellFormed) {
  RobustnessOptions robustness;
  auto engine = BuildFaultEngine(robustness, /*cache_capacity=*/32);

  const char* queries[] = {"sun", "sun java", "solar energy", "solar system",
                           "java download", "sun daily uk"};
  std::vector<SuggestionRequest> requests;
  std::deque<CancelToken> tokens;
  for (int i = 0; i < 48; ++i) {
    SuggestionRequest request =
        FaultRequest(queries[i % 6], i % 3 == 0 ? (i % 6) + 1 : kNoUser);
    tokens.emplace_back();  // real steady_clock tokens
    // A third get a deadline so tight it lands in a degraded rung or
    // expires mid-flight; the rest run unbounded and get cancelled (or
    // not) by the canceller thread below.
    if (i % 3 == 1) tokens.back().SetDeadlineAfter((i % 5) * kMs);
    request.cancel = &tokens.back();
    requests.push_back(std::move(request));
  }

  std::atomic<bool> stop{false};
  std::thread canceller([&] {
    // Cancel every 4th token, racing the in-flight batch.
    for (size_t i = 0; i < tokens.size() && !stop.load(); i += 4) {
      tokens[i].Cancel();
      std::this_thread::yield();
    }
  });

  ThreadPool pool(4);
  auto results = engine->SuggestBatch(requests, 5, &pool);
  stop.store(true);
  canceller.join();

  ASSERT_EQ(results.size(), requests.size());
  for (size_t i = 0; i < results.size(); ++i) {
    if (results[i].ok()) continue;
    const StatusCode code = results[i].status().code();
    EXPECT_TRUE(code == StatusCode::kDeadlineExceeded ||
                code == StatusCode::kCancelled ||
                code == StatusCode::kNotFound ||
                code == StatusCode::kUnavailable)
        << "request " << i << ": " << results[i].status().ToString();
  }
}

// ------------------------------------------- admission signals ----

// The p95 gate reads the serving telemetry's windowed latency: a slow
// window sheds, a fast one admits.
TEST_F(FaultInjectionTest, AdmissionGatesOnItsOwnLatencyWindow) {
  AdmissionOptions options;
  options.max_p95_us = 50'000.0;
  AdmissionController gate(options);

  obs::ServingTelemetry& slow = obs::ServingTelemetry::Install({});
  for (int i = 0; i < 64; ++i) slow.latency().Record(400'000.0);
  EXPECT_EQ(gate.Admit().code(), StatusCode::kUnavailable);

  obs::ServingTelemetry& fast = obs::ServingTelemetry::Install({});
  for (int i = 0; i < 64; ++i) fast.latency().Record(1'000.0);
  EXPECT_TRUE(gate.Admit().ok());

  // Leave a clean global surface for the rest of the suite.
  obs::ServingTelemetry::Install({});
}

// Regression for the mid-swap invalidation bug: a post-swap warmup fills
// entries stamped with the INCOMING generation's component generations
// while a reader that pinned the outgoing snapshot is still in flight. The
// hit path used to grade such an entry against the outgoing snapshot as
// "stale" and erase it — destroying exactly the entries the warmup just
// paid for, for the benefit of nobody. The engine's validator must miss
// WITHOUT invalidating (a mismatch, not a staleness), and the entry must
// serve the first reader of the new generation straight from cache.
//
// Every client request runs at the cache-only rung (min_rung = 3) so the
// probes themselves can neither fill nor overwrite entries — the only
// writer in the test is the warmup.
TEST_F(FaultInjectionTest, MidSwapWarmupEntrySurvivesForIncomingReaders) {
  const std::string log_path = testing::TempDir() + "/midswap_warmup.jsonl";
  {
    obs::RequestLogEntry entry;
    entry.query = "sun";
    entry.k = 5;
    entry.user = kNoUser;
    entry.timestamp = 400;
    entry.ok = true;
    std::ofstream out(log_path, std::ios::trunc);
    out << obs::RequestLog::ToJson(entry) << "\n";
  }

  PqsdaEngineConfig config;
  config.personalize = false;
  config.cache_capacity = 16;
  config.robustness.min_rung = 3;  // clients only ever read the cache
  config.cache_warmup.log_path = log_path;
  config.cache_warmup.max_requests = 8;
  auto built = PqsdaEngine::Build(FaultLog(), config);
  ASSERT_TRUE(built.ok());
  std::unique_ptr<PqsdaEngine> engine = std::move(built).value();

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  obs::Counter& mismatches =
      reg.GetCounter("pqsda.cache.mismatch_misses_total");
  obs::Counter& stales =
      reg.GetCounter("pqsda.cache.stale_invalidations_total");
  obs::Counter& filled = reg.GetCounter("pqsda.cache.warmup_filled_total");
  obs::Counter& hits = reg.GetCounter("pqsda.cache.hits_total");

  // Build does not warm: the cache-only probe finds nothing.
  EXPECT_EQ(engine->Suggest(FaultRequest("sun"), 5).status().code(),
            StatusCode::kNotFound);

  // A reader pins the outgoing snapshot; the rebuild then publishes and
  // the warmup fills "sun" under the incoming generation.
  const std::shared_ptr<const IndexSnapshot> outgoing = engine->AcquireIndex();
  const uint64_t filled0 = filled.Value();
  ASSERT_TRUE(engine->Ingest({7, "sun", "www.nasa.gov", 500}).ok());
  ASSERT_TRUE(engine->index_manager().RebuildNow().ok());
  EXPECT_EQ(filled.Value(), filled0 + 1);

  // The outgoing reader's lookup: the warm entry's generations run AHEAD
  // of its snapshot, so it misses as a mismatch — and must not invalidate
  // the entry.
  const uint64_t mismatch0 = mismatches.Value();
  const uint64_t stale0 = stales.Value();
  std::vector<Suggestion> cached;
  EXPECT_FALSE(engine->cache()->Lookup(
      SuggestionCache::KeyOf(FaultRequest("sun"), 5), &cached,
      [&outgoing](const SuggestionCache::ValidationVector& components) {
        return ValidateCacheEntry(*outgoing, components);
      }));
  EXPECT_EQ(mismatches.Value(), mismatch0 + 1);
  EXPECT_EQ(stales.Value(), stale0);

  // The retained entry serves the first reader of the new generation from
  // cache at the cache-only rung. (The pre-fix code erased it above and
  // this request came back NotFound.)
  const uint64_t hits0 = hits.Value();
  auto served = engine->Suggest(FaultRequest("sun"), 5);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_FALSE(served->empty());
  EXPECT_EQ(hits.Value(), hits0 + 1);
}

}  // namespace
}  // namespace pqsda
