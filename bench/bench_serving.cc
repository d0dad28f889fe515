// Serving-path benchmark: sequential Suggest loop vs SuggestBatch over a
// thread pool, and the LRU result cache on a Zipf-shaped repeated workload.
// Also verifies (and prints) the cache-hit contract: a repeated identical
// request is served from cache, increments pqsda.cache.hits_total and
// returns the exact list the miss computed — and exercises the live
// telemetry surface: an embedded HTTP exporter is scraped before, during
// and after a batched storm, checking that /healthz answers 200 and the
// /statusz windowed request counts actually move.
//
// Ends with an overload scenario: a burst far past the shared pool's
// capacity, every request under a deadline that starts ticking at enqueue,
// served once by a no-shedding baseline engine and once by an engine that
// sheds on pool queue depth. Reports end-to-end (queue wait included) p99
// of the admitted requests, shed rate and per-rung degradation counts for
// both, checks the robust section of /statusz moved, and emits the numbers
// as BENCH_robustness.json.
//
// Closes with an ingest-while-serving scenario: the same request storm
// served by a live engine with the index static, then again while a churn
// thread keeps ingesting fresh records and swapping new generations in.
// Every request pins its snapshot at admission, so the admitted p95/p99
// under churn must sit near the static baseline — the proof that serving
// never blocks on a rebuild. Emits BENCH_ingest.json.
//
// Finally measures the stage profiler's own cost: the same request storm
// with StageProfiler disabled vs enabled in interleaved pairs, gated on the
// p95 (the profiler must not move tail latency) by PairedOverheadGate
// (bench_util.h): the gate fails only when the bootstrap lower bound of the
// median paired overhead exceeds the budget. Emits BENCH_profile.json;
// run_benches.sh fails the stage when the gate doesn't hold.
//
// Then the explain layer's cost the same way: the storm with explain
// disabled (the default — one atomic load at admission, one thread-local
// read per seam) right after a burst that armed the subsystem and filled
// the /explainz ring vs right after a placebo burst. That residual cost is
// gated at <=1% + 50us plus the host's noise floor on the p95 (the "zero
// cost when disabled" contract); head-sampled 1/32 and worst-case
// every-request p95s are reported ungated. Emits BENCH_explain.json;
// run_benches.sh enforces the gate.
//
// Closes with the delta-aware cache scenario: a purpose-built corpus of
// many small disconnected clusters served under a Zipf head with swap churn
// from localized ingest deltas. The gated verdict in BENCH_cache.json:
// delta-aware validation must retain >= 1.3x the hits of whole-generation
// keying across the same swap schedule. run_benches.sh enforces it.
//
// Scale knobs: PQSDA_USERS (default 150), PQSDA_TESTS (default 200 serving
// requests), PQSDA_SERVE_THREADS (batch pool size, default 4),
// PQSDA_CACHE (cache capacity for the cached runs, default 512),
// PQSDA_OVERLOAD_DEADLINE_MS (per-request budget in the overload burst,
// default 400), PQSDA_PROFILE_REPS (interleaved pairs per overhead gate,
// default 10), PQSDA_CACHE_OPS (cache-scenario workload length, default
// 1200).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/cancellation.h"
#include "common/thread_pool.h"
#include "core/pqsda_engine.h"
#include "eval/harness.h"
#include "obs/explain.h"
#include "obs/http_exporter.h"
#include "obs/metrics.h"
#include "obs/stage_profiler.h"
#include "obs/telemetry.h"

namespace pqsda::bench {
namespace {

double Seconds(std::chrono::steady_clock::time_point begin,
               std::chrono::steady_clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

// Requests/second of one timed pass; `served` counts non-error results.
struct PassResult {
  double seconds = 0.0;
  size_t served = 0;
  double Throughput(size_t n) const {
    return seconds > 0.0 ? static_cast<double>(n) / seconds : 0.0;
  }
};

PassResult SequentialPass(const PqsdaEngine& engine,
                          const std::vector<SuggestionRequest>& requests,
                          size_t k) {
  PassResult r;
  auto begin = std::chrono::steady_clock::now();
  for (const SuggestionRequest& request : requests) {
    if (engine.Suggest(request, k).ok()) ++r.served;
  }
  r.seconds = Seconds(begin, std::chrono::steady_clock::now());
  return r;
}

PassResult BatchedPass(const PqsdaEngine& engine,
                       const std::vector<SuggestionRequest>& requests,
                       size_t k, ThreadPool& pool) {
  PassResult r;
  auto begin = std::chrono::steady_clock::now();
  auto results = engine.SuggestBatch(requests, k, &pool);
  r.seconds = Seconds(begin, std::chrono::steady_clock::now());
  for (const auto& result : results) {
    if (result.ok()) ++r.served;
  }
  return r;
}

// Nearest-rank percentile over per-request latencies (microseconds).
double Percentile(std::vector<double> us, size_t pct) {
  if (us.empty()) return 0.0;
  std::sort(us.begin(), us.end());
  size_t idx = (us.size() * pct + 99) / 100;  // ceil(pct/100 * n)
  if (idx > 0) --idx;
  if (idx >= us.size()) idx = us.size() - 1;
  return us[idx];
}

// Sequential pass recording every request's latency — the shape the
// profiling-overhead gate needs: no pool queue wait drowning the signal,
// just the request path the stage scopes instrument.
std::vector<double> TimedPass(const PqsdaEngine& engine,
                              const std::vector<SuggestionRequest>& requests,
                              size_t k) {
  std::vector<double> us;
  us.reserve(requests.size());
  for (const SuggestionRequest& request : requests) {
    auto t0 = std::chrono::steady_clock::now();
    (void)engine.Suggest(request, k);
    us.push_back(1e6 * Seconds(t0, std::chrono::steady_clock::now()));
  }
  return us;
}

// Prints one gate's pairs as off/on p95s, so a verdict can be read against
// the measurements behind it.
void PrintPairs(const std::vector<double>& off_us,
                const std::vector<double>& on_us) {
  std::printf("  pairs (off/on p95 us):");
  for (size_t i = 0; i < off_us.size() && i < on_us.size(); ++i) {
    std::printf(" %.0f/%.0f", off_us[i], on_us[i]);
  }
  std::printf("\n");
}

// Extracts the numeric value following `"key":` in a JSON blob (first
// occurrence). Good enough for pulling one windowed counter out of a
// /statusz scrape without a JSON parser.
double JsonNumber(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  size_t pos = json.find(needle);
  if (pos == std::string::npos) return -1.0;
  return std::strtod(json.c_str() + pos + needle.size(), nullptr);
}

// Zipf-ish head-heavy request stream: draws from `base` with rank-r weight
// 1/(r+1), so a handful of head queries dominate — the traffic shape the
// cache is designed for.
std::vector<SuggestionRequest> ZipfWorkload(
    const std::vector<SuggestionRequest>& base, size_t count, uint64_t seed) {
  std::vector<double> weights;
  weights.reserve(base.size());
  for (size_t r = 0; r < base.size(); ++r) {
    weights.push_back(1.0 / static_cast<double>(r + 1));
  }
  std::discrete_distribution<size_t> pick(weights.begin(), weights.end());
  std::mt19937_64 rng(seed);
  std::vector<SuggestionRequest> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) out.push_back(base[pick(rng)]);
  return out;
}

// Per-rung (plus admitted/shed) deltas of the pqsda.robust.* counters
// across one overload pass.
struct RobustDelta {
  uint64_t admitted = 0;
  uint64_t shed = 0;
  uint64_t rung[4] = {0, 0, 0, 0};  // full, truncated, walk-only, cache-only
};

// Outcome of one overload burst: per-request end-to-end latencies
// (microseconds, measured from enqueue — queue wait is the point) split by
// admission, and the status-code census.
struct OverloadOutcome {
  double seconds = 0.0;
  size_t ok = 0;
  size_t shed = 0;           // kUnavailable from the admission controller
  size_t deadline = 0;       // kDeadlineExceeded
  size_t not_found = 0;      // cache-only rung missing the cache
  size_t other_error = 0;
  std::vector<double> admitted_us;  // everything the controller let through
  RobustDelta delta;

  double AdmittedPercentile(size_t pct) const {
    if (admitted_us.empty()) return 0.0;
    std::vector<double> sorted = admitted_us;
    std::sort(sorted.begin(), sorted.end());
    size_t idx = (sorted.size() * pct + 99) / 100;  // ceil(pct/100 * n)
    if (idx > 0) --idx;
    if (idx >= sorted.size()) idx = sorted.size() - 1;
    return sorted[idx];
  }
  double AdmittedP95() const { return AdmittedPercentile(95); }
  double AdmittedP99() const { return AdmittedPercentile(99); }
};

// Dumps the whole request list onto the shared pool at once (offered load
// far past capacity), each request under `deadline_ns` armed at enqueue
// time so queue wait eats real budget, and waits for the burst to drain.
// The shared pool is deliberate: the engine's queue-depth shedding gate
// reads ThreadPool::Shared().QueueDepth(), so this is the queue the burst
// must pile up on.
OverloadOutcome OverloadPass(const PqsdaEngine& engine,
                             const std::vector<SuggestionRequest>& base,
                             size_t k, int64_t deadline_ns) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  obs::Counter* counters[6] = {
      &reg.GetCounter("pqsda.robust.admitted_total"),
      &reg.GetCounter("pqsda.robust.shed_total"),
      &reg.GetCounter("pqsda.robust.rung_full_total"),
      &reg.GetCounter("pqsda.robust.rung_truncated_total"),
      &reg.GetCounter("pqsda.robust.rung_walk_only_total"),
      &reg.GetCounter("pqsda.robust.rung_cache_only_total"),
  };
  uint64_t before[6];
  for (size_t i = 0; i < 6; ++i) before[i] = counters[i]->Value();

  ThreadPool& pool = ThreadPool::Shared();
  const size_t n = base.size();
  std::vector<SuggestionRequest> requests = base;
  std::deque<CancelToken> tokens;  // stable addresses across the burst
  std::vector<double> latency_us(n, 0.0);
  std::vector<StatusCode> codes(n, StatusCode::kInternal);
  std::atomic<size_t> remaining{n};
  std::mutex mu;
  std::condition_variable done;

  auto begin = std::chrono::steady_clock::now();
  for (size_t i = 0; i < n; ++i) {
    tokens.emplace_back();
    tokens.back().SetDeadlineAfter(deadline_ns);
    requests[i].cancel = &tokens.back();
    auto enqueued = std::chrono::steady_clock::now();
    pool.Submit([&, i, enqueued] {
      auto result = engine.Suggest(requests[i], k);
      latency_us[i] = 1e6 * Seconds(enqueued, std::chrono::steady_clock::now());
      codes[i] = result.ok() ? StatusCode::kOk : result.status().code();
      if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> lock(mu);
        done.notify_all();
      }
    });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    done.wait(lock, [&] { return remaining.load() == 0; });
  }

  OverloadOutcome out;
  out.seconds = Seconds(begin, std::chrono::steady_clock::now());
  for (size_t i = 0; i < n; ++i) {
    switch (codes[i]) {
      case StatusCode::kOk: ++out.ok; break;
      case StatusCode::kUnavailable: ++out.shed; break;
      case StatusCode::kDeadlineExceeded: ++out.deadline; break;
      case StatusCode::kNotFound: ++out.not_found; break;
      default: ++out.other_error; break;
    }
    if (codes[i] != StatusCode::kUnavailable) {
      out.admitted_us.push_back(latency_us[i]);
    }
  }
  out.delta.admitted = counters[0]->Value() - before[0];
  out.delta.shed = counters[1]->Value() - before[1];
  for (size_t r = 0; r < 4; ++r) {
    out.delta.rung[r] = counters[2 + r]->Value() - before[2 + r];
  }
  return out;
}

void PrintOverload(const char* label, const OverloadOutcome& o, size_t n) {
  std::printf(
      "  %-10s p99(admitted)=%9.0fus  admitted=%zu shed=%zu "
      "(ok=%zu deadline=%zu not_found=%zu other=%zu, %.3fs)\n",
      label, o.AdmittedP99(), o.admitted_us.size(), o.shed, o.ok, o.deadline,
      o.not_found, o.other_error, o.seconds);
  std::printf(
      "  %-10s rungs: full=%llu truncated=%llu walk_only=%llu "
      "cache_only=%llu  (of %zu offered)\n",
      "", static_cast<unsigned long long>(o.delta.rung[0]),
      static_cast<unsigned long long>(o.delta.rung[1]),
      static_cast<unsigned long long>(o.delta.rung[2]),
      static_cast<unsigned long long>(o.delta.rung[3]), n);
}

void AppendOverloadJson(std::string* json, const char* name,
                        const OverloadOutcome& o) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "  \"%s\": {\"p99_admitted_us\": %.1f, \"admitted\": %zu, "
      "\"shed\": %zu, \"ok\": %zu, \"deadline_exceeded\": %zu, "
      "\"not_found\": %zu, \"rungs\": {\"full\": %llu, "
      "\"truncated_solve\": %llu, \"walk_only\": %llu, "
      "\"cache_only\": %llu}}",
      name, o.AdmittedP99(), o.admitted_us.size(), o.shed, o.ok, o.deadline,
      o.not_found, static_cast<unsigned long long>(o.delta.rung[0]),
      static_cast<unsigned long long>(o.delta.rung[1]),
      static_cast<unsigned long long>(o.delta.rung[2]),
      static_cast<unsigned long long>(o.delta.rung[3]));
  *json += buf;
}

void Main() {
  const size_t users = EnvSize("USERS", 150);
  const size_t num_tests = EnvSize("TESTS", 200);
  const size_t serve_threads = EnvSize("SERVE_THREADS", 4);
  const size_t cache_capacity = EnvSize("CACHE", 512);
  const size_t k = 10;

  std::printf("bench_serving: concurrent serving + result cache\n");
  std::printf("  hardware_concurrency=%u  serve_threads=%zu  users=%zu  "
              "requests=%zu\n\n",
              std::thread::hardware_concurrency(), serve_threads, users,
              num_tests);

  SyntheticDataset data = GenerateLog(BenchGeneratorConfig(users));
  std::vector<TestQuery> tests = SampleTestQueries(data, num_tests, 17);
  std::vector<SuggestionRequest> requests;
  requests.reserve(tests.size());
  for (const TestQuery& t : tests) requests.push_back(t.request);

  // Diversification-only engine: serving throughput is about the request
  // path, and skipping Gibbs keeps the bench fast at any scale.
  PqsdaEngineConfig config;
  config.personalize = false;
  auto engine_or = PqsdaEngine::Build(data.records, config);
  if (!engine_or.ok()) {
    std::printf("engine build failed: %s\n",
                engine_or.status().ToString().c_str());
    return;
  }
  const PqsdaEngine& engine = **engine_or;
  ThreadPool pool(serve_threads);

  // --- sequential vs batched (no cache) -------------------------------
  PassResult warmup = SequentialPass(engine, requests, k);  // page in
  PassResult seq = SequentialPass(engine, requests, k);
  PassResult bat = BatchedPass(engine, requests, k, pool);
  std::printf("sequential: %8.1f req/s  (%zu/%zu served, %.3fs)\n",
              seq.Throughput(requests.size()), seq.served, requests.size(),
              seq.seconds);
  std::printf("batched   : %8.1f req/s  (%zu/%zu served, %.3fs, pool=%zu)\n",
              bat.Throughput(requests.size()), bat.served, requests.size(),
              bat.seconds, pool.size());
  std::printf("batched/sequential speedup: %.2fx  "
              "(threading gains require >1 core; this host reports %u)\n\n",
              seq.seconds > 0.0 ? seq.seconds / bat.seconds : 0.0,
              std::thread::hardware_concurrency());
  (void)warmup;

  // --- cached serving on a Zipf workload ------------------------------
  PqsdaEngineConfig cached_config = config;
  cached_config.cache_capacity = cache_capacity;
  auto cached_or = PqsdaEngine::Build(data.records, cached_config);
  if (!cached_or.ok()) {
    std::printf("cached engine build failed: %s\n",
                cached_or.status().ToString().c_str());
    return;
  }
  const PqsdaEngine& cached = **cached_or;
  std::vector<SuggestionRequest> zipf =
      ZipfWorkload(requests, num_tests * 4, 23);

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  obs::Counter& hits = reg.GetCounter("pqsda.cache.hits_total");
  obs::Counter& misses = reg.GetCounter("pqsda.cache.misses_total");
  const uint64_t hits_before = hits.Value();
  const uint64_t misses_before = misses.Value();

  PassResult uncached_zipf = SequentialPass(engine, zipf, k);
  PassResult cached_zipf = SequentialPass(cached, zipf, k);
  const uint64_t zipf_hits = hits.Value() - hits_before;
  const uint64_t zipf_misses = misses.Value() - misses_before;
  std::printf("zipf x%zu uncached: %8.1f req/s\n", zipf.size() / requests.size(),
              uncached_zipf.Throughput(zipf.size()));
  std::printf("zipf x%zu cached  : %8.1f req/s  (hits=%llu misses=%llu, "
              "hit rate %.1f%%)\n",
              zipf.size() / requests.size(),
              cached_zipf.Throughput(zipf.size()),
              static_cast<unsigned long long>(zipf_hits),
              static_cast<unsigned long long>(zipf_misses),
              100.0 * static_cast<double>(zipf_hits) /
                  static_cast<double>(zipf.size()));
  std::printf("cached/uncached speedup: %.2fx\n\n",
              cached_zipf.seconds > 0.0
                  ? uncached_zipf.seconds / cached_zipf.seconds
                  : 0.0);

  // --- cache-hit contract ---------------------------------------------
  SuggestionRequest probe = requests.front();
  const uint64_t contract_hits_before = hits.Value();
  auto first = cached.Suggest(probe, k);
  auto second = cached.Suggest(probe, k);
  const bool identical = first.ok() && second.ok() && *first == *second;
  const uint64_t contract_hits = hits.Value() - contract_hits_before;
  std::printf("cache-hit contract: repeat request hit=%s identical=%s "
              "(pqsda.cache.hits_total +%llu)\n\n",
              contract_hits >= 1 ? "yes" : "NO",
              identical ? "yes" : "NO",
              static_cast<unsigned long long>(contract_hits));

  // --- live telemetry: scrape /statusz around a batched storm -----------
  obs::ServingTelemetry& telemetry = obs::ServingTelemetry::Default();
  obs::HttpExporter exporter;
  telemetry.RegisterEndpoints(&exporter);
  Status started = exporter.Start(0);  // ephemeral port
  if (!started.ok()) {
    std::printf("telemetry exporter failed to start: %s\n",
                started.ToString().c_str());
    return;
  }
  std::printf("telemetry exporter on http://127.0.0.1:%d\n", exporter.port());

  int health_status = 0;
  auto health = obs::HttpGet(exporter.port(), "/healthz", &health_status);
  auto before_scrape = obs::HttpGet(exporter.port(), "/statusz");
  const double requests_before_storm =
      before_scrape.ok() ? JsonNumber(*before_scrape, "requests") : -1.0;

  // Scrape mid-run from a second thread while the batched storm is in
  // flight: the exporter must serve concurrently with SuggestBatch.
  std::string mid_scrape;
  std::thread scraper([&exporter, &mid_scrape] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    auto scrape = obs::HttpGet(exporter.port(), "/statusz");
    if (scrape.ok()) mid_scrape = std::move(*scrape);
  });
  PassResult storm = BatchedPass(cached, zipf, k, pool);
  scraper.join();

  auto after_scrape = obs::HttpGet(exporter.port(), "/statusz");
  const double requests_after_storm =
      after_scrape.ok() ? JsonNumber(*after_scrape, "requests") : -1.0;
  const double qps_after = after_scrape.ok()
      ? JsonNumber(*after_scrape, "qps") : -1.0;
  const double p95_after = after_scrape.ok()
      ? JsonNumber(*after_scrape, "p95") : -1.0;
  const bool windows_moved =
      requests_after_storm >= requests_before_storm +
          static_cast<double>(zipf.size());
  std::printf("storm: %8.1f req/s (%zu/%zu served)\n",
              storm.Throughput(zipf.size()), storm.served, zipf.size());
  std::printf("  /healthz: %d %s\n", health_status,
              health_status == 200 ? "ok" : "UNEXPECTED");
  std::printf("  /statusz 10s-window requests: before=%.0f mid=%.0f "
              "after=%.0f  (moved=%s)\n",
              requests_before_storm, JsonNumber(mid_scrape, "requests"),
              requests_after_storm, windows_moved ? "yes" : "NO");
  std::printf("  /statusz 10s-window qps=%.1f latency p95=%.0fus\n",
              qps_after, p95_after);
  // --- overload: shedding vs no-shedding under a burst past capacity ---
  ThreadPool& shared = ThreadPool::Shared();
  const int64_t overload_deadline_ms =
      static_cast<int64_t>(EnvSize("OVERLOAD_DEADLINE_MS", 400));
  const size_t shed_depth = 2 * shared.size();
  std::vector<SuggestionRequest> burst =
      ZipfWorkload(requests, num_tests * 2, 31);

  // Two fresh engines over the same records: identical pipelines, the only
  // difference is the queue-depth shedding gate.
  PqsdaEngineConfig baseline_config = config;
  PqsdaEngineConfig shedding_config = config;
  shedding_config.robustness.shed_queue_depth = shed_depth;
  auto baseline_or = PqsdaEngine::Build(data.records, baseline_config);
  auto shedding_or = PqsdaEngine::Build(data.records, shedding_config);
  if (!baseline_or.ok() || !shedding_or.ok()) {
    std::printf("overload engines failed to build\n");
    exporter.Stop();
    return;
  }

  std::printf("overload: burst of %zu requests onto the %zu-worker shared "
              "pool (offered %.0fx capacity), %lldms deadline from enqueue, "
              "shed above queue depth %zu\n",
              burst.size(), shared.size(),
              static_cast<double>(burst.size()) /
                  static_cast<double>(shared.size()),
              static_cast<long long>(overload_deadline_ms), shed_depth);
  OverloadOutcome baseline = OverloadPass(
      **baseline_or, burst, k, overload_deadline_ms * 1'000'000);
  OverloadOutcome shedding = OverloadPass(
      **shedding_or, burst, k, overload_deadline_ms * 1'000'000);
  PrintOverload("baseline", baseline, burst.size());
  PrintOverload("shedding", shedding, burst.size());
  const double baseline_p99 = baseline.AdmittedP99();
  const double shedding_p99 = shedding.AdmittedP99();
  std::printf("  admitted-request p99 with shedding: %.2fx of baseline "
              "(%s)\n",
              baseline_p99 > 0.0 ? shedding_p99 / baseline_p99 : 0.0,
              shedding_p99 < baseline_p99 ? "lower, as required"
                                          : "NOT LOWER");

  // The robust section of /statusz must reflect the burst: shed and
  // per-rung totals are process counters, so the scrape shows at least the
  // deltas the two passes recorded.
  auto robust_scrape = obs::HttpGet(exporter.port(), "/statusz");
  if (robust_scrape.ok()) {
    std::printf("  /statusz robust: admitted=%.0f shed=%.0f rungs "
                "full=%.0f truncated=%.0f walk_only=%.0f cache_only=%.0f\n",
                JsonNumber(*robust_scrape, "admitted_total"),
                JsonNumber(*robust_scrape, "shed_total"),
                JsonNumber(*robust_scrape, "full"),
                JsonNumber(*robust_scrape, "truncated_solve"),
                JsonNumber(*robust_scrape, "walk_only"),
                JsonNumber(*robust_scrape, "cache_only"));
    const bool robust_moved =
        JsonNumber(*robust_scrape, "shed_total") >=
        static_cast<double>(shedding.delta.shed);
    std::printf("  /statusz robust section moved: %s\n",
                robust_moved ? "yes" : "NO");
  }

  // Machine-readable record of the overload comparison.
  std::string json = "{\n  \"bench\": \"serving_overload\",\n";
  {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "  \"pool_size\": %zu,\n  \"offered\": %zu,\n"
                  "  \"deadline_ms\": %lld,\n  \"shed_queue_depth\": %zu,\n",
                  shared.size(), burst.size(),
                  static_cast<long long>(overload_deadline_ms), shed_depth);
    json += buf;
  }
  AppendOverloadJson(&json, "baseline", baseline);
  json += ",\n";
  AppendOverloadJson(&json, "shedding", shedding);
  {
    char buf[128];
    std::snprintf(buf, sizeof(buf), ",\n  \"p99_ratio\": %.4f\n}\n",
                  baseline_p99 > 0.0 ? shedding_p99 / baseline_p99 : 0.0);
    json += buf;
  }
  if (std::FILE* f = std::fopen("BENCH_robustness.json", "w")) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("  wrote BENCH_robustness.json\n");
  } else {
    std::printf("  could not write BENCH_robustness.json\n");
  }

  // --- ingest-while-serving: rebuild churn vs static index -------------
  // Same storm served twice by one live engine: once with the index static,
  // once while a churn thread keeps ingesting fresh records and swapping
  // generations in (the rebuilds run on the churn thread itself — i.e.
  // genuinely concurrent with the serving storm on the shared pool, not
  // queued behind it). Since every request pins its snapshot at admission,
  // serving must never block on a rebuild: the admitted p95/p99 under churn
  // should sit near the static baseline even though the index was swapped
  // under the storm several times.
  const int64_t ingest_deadline_ns = 30'000'000'000;  // generous: full rung
  PqsdaEngineConfig live_config = config;
  live_config.ingest.rebuild_min_records = SIZE_MAX;  // churn thread drives
  auto live_or = PqsdaEngine::Build(data.records, live_config);
  if (!live_or.ok()) {
    std::printf("live engine failed to build\n");
    exporter.Stop();
    return;
  }
  PqsdaEngine& live = **live_or;
  IndexManager& index = live.index_manager();

  // Fresh traffic to churn with: a second synthetic log, ingested in chunks.
  GeneratorConfig fresh_config = BenchGeneratorConfig(users);
  fresh_config.seed = 97;
  std::vector<QueryLogRecord> fresh = GenerateLog(fresh_config).records;
  const size_t chunk_records =
      std::max<size_t>(1, fresh.size() / 8);

  std::printf("\ningest-while-serving: %zu-request storm vs the same storm "
              "under rebuild churn (%zu fresh records in %zu-record "
              "chunks)\n",
              burst.size(), fresh.size(), chunk_records);

  OverloadOutcome static_pass =
      OverloadPass(live, burst, k, ingest_deadline_ns);

  std::atomic<bool> churn_stop{false};
  const uint64_t generation_before = index.generation();
  std::thread churn([&] {
    size_t pos = 0;
    while (!churn_stop.load(std::memory_order_relaxed)) {
      const size_t n = std::min(chunk_records, fresh.size() - pos);
      std::vector<QueryLogRecord> chunk(fresh.begin() + pos,
                                        fresh.begin() + pos + n);
      if (!index.IngestBatch(std::move(chunk)).ok()) break;
      if (!index.RebuildNow().ok()) break;
      pos += n;
      if (pos >= fresh.size()) pos = 0;  // keep churning until stopped
      // Breathe between cycles: the scenario models a steady rebuild
      // cadence, not a busy-loop that turns the comparison into a pure
      // CPU-contention measurement on small hosts.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });
  OverloadOutcome churn_pass = OverloadPass(live, burst, k, ingest_deadline_ns);
  churn_stop.store(true, std::memory_order_relaxed);
  churn.join();
  const uint64_t swaps =
      index.generation() - generation_before;

  const double static_p95 = static_pass.AdmittedP95();
  const double static_p99 = static_pass.AdmittedP99();
  const double churn_p95 = churn_pass.AdmittedP95();
  const double churn_p99 = churn_pass.AdmittedP99();
  std::printf("  static: p95=%9.0fus p99=%9.0fus (ok=%zu not_found=%zu of "
              "%zu, %.3fs)\n",
              static_p95, static_p99, static_pass.ok, static_pass.not_found,
              burst.size(), static_pass.seconds);
  std::printf("  churn : p95=%9.0fus p99=%9.0fus (ok=%zu not_found=%zu of "
              "%zu, %.3fs, %llu swaps during storm)\n",
              churn_p95, churn_p99, churn_pass.ok, churn_pass.not_found,
              burst.size(), churn_pass.seconds,
              static_cast<unsigned long long>(swaps));
  // "Never blocks" has two observable halves: every offered request was
  // served to completion (nothing hung on a rebuild), and the index really
  // did swap generations underneath the storm.
  const bool all_served =
      churn_pass.ok + churn_pass.not_found + churn_pass.deadline +
          churn_pass.other_error == burst.size() &&
      churn_pass.shed == 0;
  std::printf("  all requests served under churn: %s  index swapped: %s  "
              "p99 churn/static: %.2fx\n",
              all_served ? "yes" : "NO", swaps > 0 ? "yes" : "NO",
              static_p99 > 0.0 ? churn_p99 / static_p99 : 0.0);
  auto ingest_scrape = obs::HttpGet(exporter.port(), "/statusz");
  if (ingest_scrape.ok()) {
    std::printf("  /statusz index: generation=%.0f delta_depth=%.0f "
                "last_rebuild_us=%.0f rebuilds_total=%.0f\n",
                JsonNumber(*ingest_scrape, "generation"),
                JsonNumber(*ingest_scrape, "delta_depth"),
                JsonNumber(*ingest_scrape, "last_rebuild_us"),
                JsonNumber(*ingest_scrape, "rebuilds_total"));
  }

  std::string ingest_json = "{\n  \"bench\": \"serving_ingest\",\n";
  {
    char buf[640];
    std::snprintf(
        buf, sizeof(buf),
        "  \"pool_size\": %zu,\n  \"offered\": %zu,\n"
        "  \"chunk_records\": %zu,\n"
        "  \"static\": {\"p95_admitted_us\": %.1f, \"p99_admitted_us\": "
        "%.1f, \"ok\": %zu, \"not_found\": %zu, \"seconds\": %.3f},\n"
        "  \"churn\": {\"p95_admitted_us\": %.1f, \"p99_admitted_us\": "
        "%.1f, \"ok\": %zu, \"not_found\": %zu, \"seconds\": %.3f, "
        "\"swaps\": %llu, \"all_served\": %s},\n"
        "  \"p99_ratio\": %.4f\n}\n",
        shared.size(), burst.size(), chunk_records, static_p95, static_p99,
        static_pass.ok, static_pass.not_found, static_pass.seconds,
        churn_p95, churn_p99, churn_pass.ok, churn_pass.not_found,
        churn_pass.seconds, static_cast<unsigned long long>(swaps),
        all_served ? "true" : "false",
        static_p99 > 0.0 ? churn_p99 / static_p99 : 0.0);
    ingest_json += buf;
  }
  if (std::FILE* f = std::fopen("BENCH_ingest.json", "w")) {
    std::fwrite(ingest_json.data(), 1, ingest_json.size(), f);
    std::fclose(f);
    std::printf("  wrote BENCH_ingest.json\n");
  } else {
    std::printf("  could not write BENCH_ingest.json\n");
  }

  // --- profiling overhead: the same storm, profiler off vs on ----------
  // Interleaved off/on pairs, alternating which side runs first, so host
  // drift (thermal, neighbours) lands on both sides of a pair; the gate is
  // on the p95 because tail latency is the number the stage scopes must not
  // move. Scopes are two clock reads into a thread-local, so the budget is
  // tight: 2%, plus 50us so sub-millisecond requests aren't gated on
  // scheduler jitter. PairedOverheadGate fails only when the bootstrap lower
  // bound of the median paired overhead is above that budget.
  obs::StageProfiler& profiler = obs::StageProfiler::Default();
  const size_t gate_pairs = EnvSize("PROFILE_REPS", 10);
  std::printf("\nprofiling overhead: %zu-request storm, profiler off vs on, "
              "%zu interleaved pairs\n",
              zipf.size(), gate_pairs);
  (void)TimedPass(engine, zipf, k);  // warm
  std::vector<double> p95_off;
  std::vector<double> p95_on;
  for (size_t pair = 0; pair < gate_pairs; ++pair) {
    for (bool on : {pair % 2 == 1, pair % 2 == 0}) {
      profiler.SetEnabled(on);
      (on ? p95_on : p95_off)
          .push_back(Percentile(TimedPass(engine, zipf, k), 95));
    }
  }
  profiler.SetEnabled(true);  // leave the default profiler live
  const OverheadVerdict profile_gate =
      PairedOverheadGate(p95_off, p95_on, /*budget_pct=*/2.0,
                         /*budget_us=*/50.0);
  const double p95_off_median = MedianOf(p95_off);
  const double p95_on_median = MedianOf(p95_on);
  std::printf("  median p95 profiler off: %9.0fus   on: %9.0fus   median "
              "overhead: %+.2f%%  95%% lower bound: %+.2f%%  "
              "gate(<=2%%+50us = %.2f%%): %s\n",
              p95_off_median, p95_on_median, profile_gate.median_overhead_pct,
              profile_gate.lower_bound_pct, profile_gate.budget_pct,
              profile_gate.pass ? "pass" : "FAIL");
  PrintPairs(p95_off, p95_on);

  // The profiled passes must actually have been attributed: /profilez over
  // the trailing minute has to show the storm in its root count.
  auto profile_scrape = obs::HttpGet(exporter.port(), "/profilez?window=1m");
  const double profiled_count =
      profile_scrape.ok() ? JsonNumber(*profile_scrape, "count") : -1.0;
  std::printf("  /profilez 1m-window root count: %.0f (expected >= %zu)\n",
              profiled_count, zipf.size());

  {
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "{\n  \"bench\": \"serving_profile_overhead\",\n"
        "  \"offered\": %zu,\n  \"pairs\": %zu,\n"
        "  \"p95_profiler_off_us\": %.1f,\n"
        "  \"p95_profiler_on_us\": %.1f,\n"
        "  \"median_overhead_pct\": %.3f,\n"
        "  \"lower_bound_pct\": %.3f,\n"
        "  \"budget_pct\": %.3f,\n"
        "  \"profilez_root_count\": %.0f,\n"
        "  \"gate_pass\": %s\n}\n",
        zipf.size(), profile_gate.pairs, p95_off_median, p95_on_median,
        profile_gate.median_overhead_pct, profile_gate.lower_bound_pct,
        profile_gate.budget_pct, profiled_count,
        profile_gate.pass ? "true" : "false");
    if (std::FILE* f = std::fopen("BENCH_profile.json", "w")) {
      std::fwrite(buf, 1, std::strlen(buf), f);
      std::fclose(f);
      std::printf("  wrote BENCH_profile.json\n");
    } else {
      std::printf("  could not write BENCH_profile.json\n");
    }
  }

  // --- explain overhead: the disabled path must stay free --------------
  // The decision-observability contract is "zero cost when disabled": with
  // explain_sample_every=0 the request path pays one relaxed atomic load at
  // admission and one thread-local read per seam, nothing else. One binary
  // can't diff itself against a build without the seams, so the gate
  // measures what arming the subsystem leaves behind on the disabled path:
  // each pair times one disabled storm right after an arming burst (every
  // request captured, filling the /explainz ring) and one right after a
  // placebo burst of the same requests with explain off, alternating which
  // side runs first. Any allocation, ring contention or cache pollution the
  // armed subsystem leaked into the disabled path shows as the paired
  // excess. The budget is <=1% + 50us, widened by the noise floor: how far
  // the placebo side's first and second halves disagree, i.e. the drift
  // this host puts between same-state measurements. The sampled (1/32) and
  // every-request p95s are reported alongside, ungated — sampled requests
  // pay for the per-chain hitting-time sweeps they record.
  std::printf("\nexplain overhead: %zu-request storm, explain disabled "
              "after a placebo vs an arming burst, %zu interleaved pairs\n",
              zipf.size(), gate_pairs);
  (void)TimedPass(engine, zipf, k);  // warm
  telemetry.SetExplainSampleEvery(1);
  const double explain_p95_full = Percentile(TimedPass(engine, zipf, k), 95);
  telemetry.SetExplainSampleEvery(32);
  const double explain_p95_sampled =
      Percentile(TimedPass(engine, zipf, k), 95);
  const std::vector<SuggestionRequest> burst_requests(
      zipf.begin(),
      zipf.begin() + std::min(zipf.size(),
                              telemetry.explain_store().capacity()));
  std::vector<double> explain_p95_placebo;
  std::vector<double> explain_p95_armed;
  for (size_t pair = 0; pair < gate_pairs; ++pair) {
    for (bool armed : {pair % 2 == 1, pair % 2 == 0}) {
      telemetry.SetExplainSampleEvery(armed ? 1 : 0);
      (void)TimedPass(engine, burst_requests, k);  // untimed burst
      telemetry.SetExplainSampleEvery(0);
      (armed ? explain_p95_armed : explain_p95_placebo)
          .push_back(Percentile(TimedPass(engine, zipf, k), 95));
    }
  }
  const size_t half = explain_p95_placebo.size() / 2;
  const double explain_noise_us =
      half == 0 ? 0.0
                : std::abs(MedianOf({explain_p95_placebo.begin(),
                                     explain_p95_placebo.begin() + half}) -
                           MedianOf({explain_p95_placebo.begin() + half,
                                     explain_p95_placebo.end()}));
  const OverheadVerdict explain_gate = PairedOverheadGate(
      explain_p95_placebo, explain_p95_armed, /*budget_pct=*/1.0,
      /*budget_us=*/50.0 + explain_noise_us);
  const double explain_p95_off = MedianOf(explain_p95_placebo);
  const double explain_p95_off_armed = MedianOf(explain_p95_armed);
  std::printf("  median p95 disabled after placebo: %9.0fus   after arming: "
              "%9.0fus   median overhead: %+.2f%%  95%% lower bound: "
              "%+.2f%%  gate(<=1%%+50us+%.0fus noise floor = %.2f%%): %s\n",
              explain_p95_off, explain_p95_off_armed,
              explain_gate.median_overhead_pct, explain_gate.lower_bound_pct,
              explain_noise_us, explain_gate.budget_pct,
              explain_gate.pass ? "pass" : "FAIL");
  PrintPairs(explain_p95_placebo, explain_p95_armed);
  std::printf("  p95 sampled(1/32): %9.0fus   full(1/1): %9.0fus  "
              "(ungated: sampled requests pay for the sweeps they record)\n",
              explain_p95_sampled, explain_p95_full);

  // The sampled passes must actually have landed in the ring: /explainz has
  // to list captured records.
  auto explainz_scrape = obs::HttpGet(exporter.port(), "/explainz");
  size_t explainz_records = 0;
  if (explainz_scrape.ok()) {
    const std::string needle = "\"request_id\":";
    for (size_t pos = explainz_scrape->find(needle);
         pos != std::string::npos;
         pos = explainz_scrape->find(needle, pos + needle.size())) {
      ++explainz_records;
    }
  }
  std::printf("  /explainz captured records: %zu (ring capacity %zu)\n",
              explainz_records, telemetry.explain_store().capacity());

  {
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "{\n  \"bench\": \"serving_explain_overhead\",\n"
        "  \"offered\": %zu,\n  \"pairs\": %zu,\n"
        "  \"p95_explain_off_us\": %.1f,\n"
        "  \"p95_explain_off_armed_us\": %.1f,\n"
        "  \"p95_explain_sampled_us\": %.1f,\n"
        "  \"p95_explain_full_us\": %.1f,\n"
        "  \"median_overhead_pct\": %.3f,\n"
        "  \"lower_bound_pct\": %.3f,\n"
        "  \"budget_pct\": %.3f,\n"
        "  \"noise_floor_us\": %.1f,\n"
        "  \"explainz_records\": %zu,\n"
        "  \"gate_pass\": %s\n}\n",
        zipf.size(), explain_gate.pairs, explain_p95_off,
        explain_p95_off_armed, explain_p95_sampled, explain_p95_full,
        explain_gate.median_overhead_pct, explain_gate.lower_bound_pct,
        explain_gate.budget_pct, explain_noise_us, explainz_records,
        explain_gate.pass ? "true" : "false");
    if (std::FILE* f = std::fopen("BENCH_explain.json", "w")) {
      std::fwrite(buf, 1, std::strlen(buf), f);
      std::fclose(f);
      std::printf("  wrote BENCH_explain.json\n");
    } else {
      std::printf("  could not write BENCH_explain.json\n");
    }
  }

  // --- delta-aware cache retention -------------------------------------
  // A Zipf head with generation swaps from small localized ingest deltas.
  // The verdict, gated by run_benches.sh: delta-aware validation must keep
  // >= 1.3x the hits of whole-generation keying across the same swap
  // schedule.
  //
  // The corpus is many small *disconnected* clusters (cluster-unique
  // vocabulary, urls and users) rather than the shared synthetic log: a
  // request's expansion then reads only its own cluster's rows, so its
  // validation footprint spans a few of the 8 fingerprint components and a
  // one-query delta invalidates only the entries that actually read the
  // component it landed in. On a well-connected corpus every footprint
  // covers all components and delta-aware degenerates to whole-generation
  // — the corpus shape IS the scenario.
  {
    const size_t cache_ops = EnvSize("CACHE_OPS", 1200);
    const size_t kHeadClusters = 64;
    const size_t cold_clusters = cache_ops / 3 + 1;

    std::vector<QueryLogRecord> cluster_log;
    std::vector<SuggestionRequest> head_probes;
    uint32_t next_user = 1;
    int64_t ts = 100;
    auto add_cluster = [&](const std::string& stem, size_t queries,
                           std::vector<SuggestionRequest>* probes) {
      // Chain-connected inside the cluster via shared cluster-unique
      // terms; nothing — term, url or user — is shared across clusters.
      std::vector<std::string> qs;
      for (size_t q = 0; q < queries; ++q) {
        qs.push_back(stem + "t" + std::to_string(q) + " " + stem + "t" +
                     std::to_string(q + 1));
      }
      const std::string url = "www." + stem + ".example";
      const uint32_t user_a = next_user++;
      const uint32_t user_b = next_user++;
      for (size_t q = 0; q < qs.size(); ++q) {
        cluster_log.push_back(
            {q + 1 < qs.size() ? user_a : user_b, qs[q], url, ts});
        ts += 10;
      }
      if (probes != nullptr) {
        SuggestionRequest probe;
        probe.query = qs.front();
        probe.timestamp = 50'000;
        probes->push_back(probe);
      }
    };
    for (size_t cl = 0; cl < kHeadClusters; ++cl) {
      // Two queries per cluster: an entry's validation footprint is then
      // ~2 of the 8 fingerprint components, so a one-component delta kills
      // only ~1/4 of resident entries — the contrast the retention gate
      // measures.
      add_cluster("h" + std::to_string(cl), 2, &head_probes);
    }
    // Cold clusters nobody requests: they widen the corpus (and the
    // validation partition's rows) the way one-shot queries do in a log.
    for (size_t s = 0; s < cold_clusters; ++s) {
      add_cluster("s" + std::to_string(s), 2, nullptr);
    }

    // The workload: pure Zipf over the head clusters, capacity above the
    // head working set. Retention is only observable when entries are
    // resident at swap time — under eviction churn the swap signal drowns
    // for delta-aware and whole-gen alike.
    std::vector<SuggestionRequest> workload;
    workload.reserve(cache_ops);
    {
      std::vector<double> weights;
      for (size_t r = 0; r < head_probes.size(); ++r) {
        weights.push_back(1.0 / static_cast<double>(r + 1));
      }
      std::discrete_distribution<size_t> pick(weights.begin(), weights.end());
      std::mt19937_64 rng(211);
      for (size_t i = 0; i < cache_ops; ++i) {
        workload.push_back(head_probes[pick(rng)]);
      }
    }
    const size_t retention_cap = head_probes.size() + head_probes.size() / 2;
    const size_t retention_swap_every = std::max<size_t>(2, cache_ops / 24);

    struct CacheRun {
      const char* label;
      bool delta_aware;
      uint64_t hits = 0;
      uint64_t misses = 0;
      uint64_t stale = 0;
      uint64_t evictions = 0;
      double hit_rate = 0.0;
      double p95_us = 0.0;
      size_t swaps = 0;
    };
    obs::Counter& cache_hits =
        obs::MetricsRegistry::Default().GetCounter("pqsda.cache.hits_total");
    obs::Counter& cache_misses =
        obs::MetricsRegistry::Default().GetCounter("pqsda.cache.misses_total");
    obs::Counter& cache_stale = obs::MetricsRegistry::Default().GetCounter(
        "pqsda.cache.stale_invalidations_total");
    obs::Counter& cache_evictions = obs::MetricsRegistry::Default().GetCounter(
        "pqsda.cache.evictions_total");
    auto run_workload = [&](CacheRun* run) {
      PqsdaEngineConfig cache_config;
      cache_config.personalize = false;
      cache_config.weighting = EdgeWeighting::kRaw;  // fingerprints stay local
      cache_config.cache_capacity = retention_cap;
      cache_config.cache_shards = 1;
      cache_config.cache_delta_aware = run->delta_aware;
      cache_config.ingest.rebuild_min_records = SIZE_MAX;  // swaps on demand
      auto built = PqsdaEngine::Build(cluster_log, cache_config);
      if (!built.ok()) {
        std::printf("  cache bench engine build failed: %s\n",
                    built.status().ToString().c_str());
        return false;
      }
      std::unique_ptr<PqsdaEngine> cache_engine = std::move(built).value();
      const uint64_t h0 = cache_hits.Value();
      const uint64_t m0 = cache_misses.Value();
      const uint64_t s0 = cache_stale.Value();
      const uint64_t e0 = cache_evictions.Value();
      std::vector<double> lat_us;
      lat_us.reserve(workload.size());
      size_t delta_seq = 0;
      for (size_t i = 0; i < workload.size(); ++i) {
        if (i > 0 && i % retention_swap_every == 0) {
          // A one-query, fresh-vocabulary delta: exactly one fingerprint
          // component changes per swap.
          const std::string stem = "d" + std::to_string(delta_seq++);
          if (!cache_engine
                   ->Ingest({next_user + static_cast<uint32_t>(delta_seq),
                             stem + "a " + stem + "b",
                             "www." + stem + ".example", 60'000 + ts})
                   .ok() ||
              !cache_engine->index_manager().RebuildNow().ok()) {
            std::printf("  cache bench churn failed\n");
            return false;
          }
          ++run->swaps;
        }
        const auto start = std::chrono::steady_clock::now();
        auto served = cache_engine->Suggest(workload[i], k);
        const auto stop = std::chrono::steady_clock::now();
        (void)served;  // outcome not gated
        lat_us.push_back(
            std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start)
                .count() /
            1000.0);
      }
      run->hits = cache_hits.Value() - h0;
      run->misses = cache_misses.Value() - m0;
      run->stale = cache_stale.Value() - s0;
      run->evictions = cache_evictions.Value() - e0;
      const uint64_t lookups = run->hits + run->misses;
      run->hit_rate =
          lookups > 0 ? static_cast<double>(run->hits) / lookups : 0.0;
      std::sort(lat_us.begin(), lat_us.end());
      run->p95_us = lat_us.empty() ? 0.0
                                   : lat_us[static_cast<size_t>(
                                         0.95 * (lat_us.size() - 1))];
      return true;
    };

    std::printf("\ndelta-aware cache: %zu ops, LRU capacity=%zu, swap every "
                "%zu\n",
                cache_ops, retention_cap, retention_swap_every);
    CacheRun runs[] = {
        {"lru/delta", true},
        {"lru/whole-gen", false},
    };
    bool cache_ran = true;
    for (CacheRun& run : runs) cache_ran = run_workload(&run) && cache_ran;
    if (cache_ran) {
      for (const CacheRun& run : runs) {
        std::printf("  %-14s hits=%6llu misses=%6llu stale=%5llu "
                    "evict=%6llu hit_rate=%5.1f%%  p95=%8.1fus  swaps=%zu\n",
                    run.label, static_cast<unsigned long long>(run.hits),
                    static_cast<unsigned long long>(run.misses),
                    static_cast<unsigned long long>(run.stale),
                    static_cast<unsigned long long>(run.evictions),
                    100.0 * run.hit_rate, run.p95_us, run.swaps);
      }
      const CacheRun& delta_ret = runs[0];
      const CacheRun& whole = runs[1];
      const double retention_ratio =
          static_cast<double>(delta_ret.hits) /
          static_cast<double>(std::max<uint64_t>(1, whole.hits));
      const bool retention_gate = retention_ratio >= 1.3;
      std::printf("  delta-aware vs whole-gen hits: %.2fx (gate >= 1.30x: "
                  "%s)\n",
                  retention_ratio, retention_gate ? "PASS" : "FAIL");

      std::string cache_json = "{\n  \"bench\": \"serving_cache\",\n";
      char buf[512];
      std::snprintf(buf, sizeof(buf),
                    "  \"ops\": %zu,\n  \"capacity\": %zu,\n"
                    "  \"swap_every\": %zu,\n  \"runs\": [\n",
                    cache_ops, retention_cap, retention_swap_every);
      cache_json += buf;
      const size_t num_runs = sizeof(runs) / sizeof(runs[0]);
      for (size_t i = 0; i < num_runs; ++i) {
        const CacheRun& run = runs[i];
        std::snprintf(
            buf, sizeof(buf),
            "    {\"label\": \"%s\", \"delta_aware\": %s, \"hits\": %llu, "
            "\"misses\": %llu, \"hit_rate\": %.4f, \"p95_us\": %.1f, "
            "\"swaps\": %zu}%s\n",
            run.label, run.delta_aware ? "true" : "false",
            static_cast<unsigned long long>(run.hits),
            static_cast<unsigned long long>(run.misses), run.hit_rate,
            run.p95_us, run.swaps, i + 1 < num_runs ? "," : "");
        cache_json += buf;
      }
      std::snprintf(buf, sizeof(buf),
                    "  ],\n  \"retention_ratio\": %.3f,\n"
                    "  \"gate_pass\": %s\n}\n",
                    retention_ratio, retention_gate ? "true" : "false");
      cache_json += buf;
      if (std::FILE* f = std::fopen("BENCH_cache.json", "w")) {
        std::fwrite(cache_json.data(), 1, cache_json.size(), f);
        std::fclose(f);
        std::printf("  wrote BENCH_cache.json\n");
      } else {
        std::printf("  could not write BENCH_cache.json\n");
      }
    }
  }

  exporter.Stop();
  (void)health;
}

}  // namespace
}  // namespace pqsda::bench

int main() { pqsda::bench::Main(); }
