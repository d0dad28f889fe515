#include "core/pqsda_engine.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "common/fault_injector.h"
#include "common/timer.h"
#include "eval/diversity.h"
#include "obs/explain.h"
#include "obs/metrics.h"
#include "obs/request_log.h"
#include "obs/stage_profiler.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

namespace pqsda {

namespace {

// The shared result fingerprint: FNV-1a 64 over each served query's bytes
// and its score's bit pattern, in rank order. The request log, the explain
// record and replay verification all agree on this definition.
uint64_t FingerprintOf(const std::vector<Suggestion>& list) {
  obs::Fingerprint64 fp;
  for (const Suggestion& s : list) {
    fp.Mix(s.query);
    fp.MixDouble(s.score);
  }
  return fp.value();
}

// Remaps the pipeline-order attribution candidates onto the served list:
// final_rank/score become the served position and Suggestion::score (the
// §V-B rerank may have reordered), then the candidates sort into served
// order. A candidate that fell out of the served list keeps SIZE_MAX and
// sorts last.
void AlignExplainToServed(obs::ExplainRecord& record,
                          const std::vector<Suggestion>& served) {
  std::unordered_map<std::string, size_t> rank_of;
  rank_of.reserve(served.size());
  for (size_t i = 0; i < served.size(); ++i) rank_of[served[i].query] = i;
  for (obs::ExplainCandidate& c : record.candidates) {
    auto it = rank_of.find(c.query);
    if (it == rank_of.end()) {
      c.final_rank = SIZE_MAX;
      continue;
    }
    c.final_rank = it->second;
    c.score = served[it->second].score;
  }
  std::stable_sort(record.candidates.begin(), record.candidates.end(),
                   [](const obs::ExplainCandidate& a,
                      const obs::ExplainCandidate& b) {
                     return a.final_rank < b.final_rank;
                   });
}

// The validation component that owns `query`'s string.
uint32_t PrimaryComponentOf(const IndexSnapshot& snap,
                            const std::string& query) {
  return static_cast<uint32_t>(
      ShardRouter{snap.validation.shards}.QueryShardOf(query));
}

}  // namespace

StatusOr<std::unique_ptr<PqsdaEngine>> PqsdaEngine::Build(
    std::vector<QueryLogRecord> records, const PqsdaEngineConfig& config) {
  auto snapshot = BuildIndexSnapshot(std::move(records), config,
                                     /*generation=*/0);
  if (!snapshot.ok()) return snapshot.status();

  std::unique_ptr<PqsdaEngine> engine(new PqsdaEngine());
  engine->index_ =
      std::make_unique<IndexManager>(std::move(*snapshot), config);
  if (config.cache_capacity > 0) {
    SuggestionCacheOptions cache_options;
    cache_options.capacity = config.cache_capacity;
    cache_options.shards = config.cache_shards;
    cache_options.policy = config.cache_policy;
    cache_options.name = "suggest";
    engine->cache_ = std::make_unique<SuggestionCache>(cache_options);
  }
  if (config.negative_cache_capacity > 0) {
    engine->negative_cache_ = std::make_unique<NegativeSuggestionCache>(
        config.negative_cache_capacity);
  }
  engine->cache_delta_aware_ = config.cache_delta_aware;
  engine->warmup_ = config.cache_warmup;
  if (engine->cache_ != nullptr && !config.cache_warmup.log_path.empty()) {
    // Post-swap warmup runs on the rebuild thread via the manager's
    // post-publish hook. The raw pointer is safe: index_ is declared last
    // in the engine, so ~IndexManager joins every rebuild (and with it any
    // running hook) before the caches or this object's other members die.
    PqsdaEngine* raw = engine.get();
    engine->index_->SetPostPublishHook(
        [raw](const std::shared_ptr<const IndexSnapshot>& snap) {
          raw->WarmupCache(*snap);
        });
  }
  engine->robustness_ = config.robustness;
  AdmissionOptions admission_options;
  admission_options.max_queue_depth = config.robustness.shed_queue_depth;
  admission_options.max_p95_us = config.robustness.shed_p95_us;
  engine->admission_ = AdmissionController(admission_options);
  // Rung 1: same pipeline, hard caps on the iterative work. A non-converged
  // iterate is served (accept_nonconverged) — visibly, via stats/metrics.
  engine->truncated_options_ = config.diversifier;
  engine->truncated_options_.regularization.solver_options.max_iterations =
      config.robustness.truncated_max_iterations;
  engine->truncated_options_.regularization.solver_options.tolerance =
      config.robustness.truncated_tolerance;
  engine->truncated_options_.regularization.accept_nonconverged = true;
  engine->truncated_options_.hitting_iterations =
      std::min(config.diversifier.hitting_iterations,
               config.robustness.truncated_hitting_iterations);
  // Rung 2: walk-only candidates.
  engine->walk_only_options_ = config.diversifier;
  engine->walk_only_options_.walk_only = true;
  return engine;
}

StatusOr<std::vector<Suggestion>> PqsdaEngine::Suggest(
    const SuggestionRequest& request, size_t k, SuggestStats* stats,
    obs::ExplainRecord* explain) const {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  static obs::Counter& requests_total =
      reg.GetCounter("pqsda.suggest.requests_total");
  static obs::Counter& errors_total =
      reg.GetCounter("pqsda.suggest.errors_total");
  static obs::Counter& not_found_total =
      reg.GetCounter("pqsda.suggest.not_found_total");
  static obs::Counter& traced_total =
      reg.GetCounter("pqsda.suggest.traced_total");
  static obs::Histogram& latency_us =
      reg.GetHistogram("pqsda.suggest.latency_us");
  static obs::Counter* rung_totals[4] = {
      &reg.GetCounter("pqsda.robust.rung_full_total"),
      &reg.GetCounter("pqsda.robust.rung_truncated_total"),
      &reg.GetCounter("pqsda.robust.rung_walk_only_total"),
      &reg.GetCounter("pqsda.robust.rung_cache_only_total")};
  static obs::Counter& deadline_exceeded_total =
      reg.GetCounter("pqsda.robust.deadline_exceeded_total");
  static obs::Counter& cancelled_total =
      reg.GetCounter("pqsda.robust.cancelled_total");

  requests_total.Increment();
  obs::ServingTelemetry& telemetry = obs::ServingTelemetry::Default();
  const uint64_t request_id = telemetry.NextRequestId();

  // Admission first: an overloaded server answers kUnavailable in
  // microseconds instead of joining the queue it is already losing.
  Status admit = admission_.Admit();
  if (!admit.ok()) {
    if (stats != nullptr) {
      *stats = SuggestStats{};
      stats->shed = true;
    }
    telemetry.RecordRequest(/*latency_us=*/0.0, /*ok=*/false,
                            /*not_found=*/false, cache_ != nullptr,
                            /*cache_hit=*/false, /*shed=*/true);
    return admit;
  }

  // Pin the index for the request's whole lifetime: everything below reads
  // this one snapshot, so a concurrent rebuild swap can neither block nor
  // tear this request, and the snapshot outlives the call via the
  // shared_ptr even if it stops being the published one mid-pipeline.
  const std::shared_ptr<const IndexSnapshot> snap = index_->Acquire();

  // The ladder rung is fixed here, once, from the remaining budget — the
  // pipeline below never re-escalates mid-request.
  const DegradationRung rung = ChooseRung(request);
  rung_totals[static_cast<size_t>(rung)]->Increment();

  // With stats requested, the whole request runs under one trace; the
  // diversifier's and personalizer's stage spans attach to it. Without
  // stats, the telemetry layer head-samples requests into the /tracez ring.
  const bool trace_sampled = stats == nullptr && telemetry.SampleTrace();
  std::optional<obs::TraceCollector> collector;
  if (stats != nullptr || trace_sampled) collector.emplace("suggest");

  // Explain: collected when the caller asked (explain != nullptr) or when
  // head sampling selected this request for the /explainz ring. The record
  // is heap-held behind a shared_ptr because the store publishes it to
  // scrape threads after the request finishes.
  const bool explain_sampled = telemetry.SampleExplain();
  std::shared_ptr<obs::ExplainRecord> erec;
  if (explain != nullptr || explain_sampled) {
    erec = std::make_shared<obs::ExplainRecord>();
  }

  // The profiler brackets exactly the admitted request on this thread; the
  // pipeline's stage scopes fold into this bracket and EndRequest attributes
  // the whole to the rung chosen above.
  obs::StageProfiler& profiler = obs::StageProfiler::Default();
  profiler.BeginRequest();
  WallTimer wall;
  bool cache_hit = false;
  StatusOr<std::vector<Suggestion>> result = Status::Internal("unset");
  {
    // The scope installs the record as the thread's explain sink for exactly
    // the pipeline's duration; the diversifier and personalizer write their
    // score terms through obs::CurrentExplain().
    std::optional<obs::ExplainScope> explain_scope;
    if (erec != nullptr) explain_scope.emplace(erec.get());
    result = SuggestImpl(request, k, rung, *snap, stats, &cache_hit);
  }
  const double elapsed_us = static_cast<double>(wall.ElapsedNanos()) * 1e-3;
  profiler.EndRequest(static_cast<size_t>(rung));
  const int64_t total_us = static_cast<int64_t>(elapsed_us);
  latency_us.Observe(elapsed_us);

  const bool ok = result.ok();
  const bool not_found =
      !ok && result.status().code() == StatusCode::kNotFound;
  if (!ok) {
    // A cold query (NotFound) is routine traffic, not an internal failure;
    // serving dashboards alert on errors_total only.
    (not_found ? not_found_total : errors_total).Increment();
    if (result.status().code() == StatusCode::kDeadlineExceeded) {
      deadline_exceeded_total.Increment();
    } else if (result.status().code() == StatusCode::kCancelled) {
      cancelled_total.Increment();
    }
  }
  telemetry.RecordRequest(elapsed_us, ok, not_found, cache_ != nullptr,
                          cache_hit, /*shed=*/false, request_id,
                          snap->generation + 1);

  // The fingerprint is only computed when something consumes it (explain
  // record or request log) — it is per-result work the unobserved request
  // path must not pay.
  obs::RequestLog* log = telemetry.request_log();
  uint64_t fingerprint = 0;
  if (ok && (erec != nullptr || log != nullptr)) {
    fingerprint = FingerprintOf(*result);
  }

  if (erec != nullptr) {
    erec->request_id = request_id;
    erec->query = request.query;
    erec->user = request.user;
    erec->k = k;
    erec->generation = snap->generation;
    erec->rung = static_cast<size_t>(rung);
    erec->cache_hit = cache_hit;
    erec->total_us = total_us;
    erec->ok = ok;
    erec->fingerprint = fingerprint;
    if (ok) {
      AlignExplainToServed(*erec, *result);
    } else {
      erec->status = result.status().ToString();
      erec->candidates.clear();
    }
    telemetry.explain_store().Add(erec);
    if (explain != nullptr) *explain = *erec;
  }

  // Online quality sampling runs after the latency was measured and
  // recorded, so the measurement itself never shows up in the percentiles
  // it is meant to explain.
  if (ok && telemetry.quality().Sample()) {
    telemetry.quality().Record(
        static_cast<size_t>(rung), cache_hit, ListSimpsonDiversity(*result),
        k > 0 ? static_cast<double>(result->size()) / static_cast<double>(k)
              : 0.0);
  }

  obs::SpanNode trace;
  bool have_trace = false;
  if (collector.has_value()) {
    trace = collector->Take();
    have_trace = true;
    traced_total.Increment();
    telemetry.RecordTrace(request_id, request.query, total_us, trace);
  }

  if (log != nullptr) {
    obs::RequestLogEntry entry;
    entry.request_id = request_id;
    entry.user = request.user;
    entry.query = request.query;
    entry.k = k;
    // Replay inputs: the full request (timestamp + context), the pinned
    // generation, the rung, and the result fingerprint replay must match.
    entry.timestamp = request.timestamp;
    entry.context = request.context;
    entry.generation = snap->generation;
    entry.rung = static_cast<size_t>(rung);
    entry.fingerprint = fingerprint;
    entry.total_us = total_us;
    entry.cache_hit = cache_hit;
    entry.ok = ok;
    if (!ok) entry.status = result.status().ToString();
    if (have_trace) {
      for (const char* stage :
           {"expansion", "regularization_solve", "hitting_time_selection",
            "personalization"}) {
        if (const obs::SpanNode* node = trace.Find(stage)) {
          entry.stage_us.emplace_back(stage, node->duration_us());
        }
      }
    }
    if (ok) {
      entry.suggestions.reserve(result->size());
      for (const Suggestion& s : *result) entry.suggestions.push_back(s.query);
    }
    log->Log(std::move(entry));
  }

  // Cache hits skip the pipeline: SuggestImpl already reset `stats`, and the
  // near-empty wrapper trace is deliberately not attached so a reused stats
  // struct reports "no stage trace" (TotalSpans()==1) as before.
  if (stats != nullptr && have_trace && !cache_hit) {
    stats->trace = std::move(trace);
  }
  return result;
}

StatusOr<std::vector<Suggestion>> PqsdaEngine::Replay(
    const obs::RequestLogEntry& entry, obs::ExplainRecord* explain) const {
  std::shared_ptr<const IndexSnapshot> snap =
      index_->AcquireGeneration(entry.generation);
  if (snap == nullptr) {
    return Status::NotFound(
        "generation " + std::to_string(entry.generation) +
        " is no longer live (oldest replayable generation is " +
        std::to_string(index_->oldest_live_generation()) +
        "); the request is not reproducible anymore");
  }

  SuggestionRequest request;
  request.query = entry.query;
  request.user = entry.user;
  request.timestamp = entry.timestamp;
  request.context = entry.context;

  // A logged cache hit was filled by an earlier full-rung compute, so with
  // the cache bypassed the full pipeline is what reproduces its list. A
  // cache-only *miss* replays as the same fast NotFound the original served.
  const DegradationRung rung =
      entry.cache_hit
          ? DegradationRung::kFull
          : static_cast<DegradationRung>(std::min<size_t>(entry.rung, 3));

  obs::ExplainRecord record;
  bool cache_hit = false;
  WallTimer wall;
  StatusOr<std::vector<Suggestion>> result = Status::Internal("unset");
  {
    // Nested scope: replay may run on a serving thread mid-conversation
    // (the CLI), and the previous sink is restored on exit.
    std::optional<obs::ExplainScope> scope;
    if (explain != nullptr) scope.emplace(&record);
    result = SuggestImpl(request, entry.k, rung, *snap, /*stats=*/nullptr,
                         &cache_hit, /*bypass_cache=*/true);
  }
  if (explain != nullptr) {
    record.request_id = entry.request_id;
    record.query = entry.query;
    record.user = entry.user;
    record.k = entry.k;
    record.generation = snap->generation;
    record.rung = static_cast<size_t>(rung);
    record.cache_hit = false;  // the replayed execution itself never hits
    record.total_us = wall.ElapsedMicros();
    record.ok = result.ok();
    if (result.ok()) {
      record.fingerprint = FingerprintOf(*result);
      AlignExplainToServed(record, *result);
    } else {
      record.status = result.status().ToString();
      record.candidates.clear();
    }
    *explain = std::move(record);
  }
  return result;
}

DegradationRung PqsdaEngine::ChooseRung(const SuggestionRequest& request) const {
  // Injection point first, so an armed clock jump here shapes the very
  // budget reading the ladder decides on.
  FaultInjector::Default().Hit(faults::kAdmission);
  size_t rung = std::min<size_t>(robustness_.min_rung, 3);
  if (request.cancel != nullptr && request.cancel->has_deadline()) {
    const int64_t remaining_us = request.cancel->RemainingNanos() / 1000;
    size_t budget_rung = 0;
    if (remaining_us < robustness_.cache_only_below_us) {
      budget_rung = 3;
    } else if (remaining_us < robustness_.walk_only_below_us) {
      budget_rung = 2;
    } else if (remaining_us < robustness_.truncated_below_us) {
      budget_rung = 1;
    }
    rung = std::max(rung, budget_rung);
  }
  return static_cast<DegradationRung>(rung);
}

StatusOr<std::vector<Suggestion>> PqsdaEngine::SuggestImpl(
    const SuggestionRequest& request, size_t k, DegradationRung rung,
    const IndexSnapshot& snap, SuggestStats* stats, bool* cache_hit,
    bool bypass_cache) const {
  static obs::Counter& personalized_total = obs::MetricsRegistry::Default()
      .GetCounter("pqsda.suggest.personalized_total");

  // Reset a reused stats struct before any work: no trace, solver or
  // selection number of a previous request may survive *any* exit path —
  // cache hit, error, cancellation, deadline.
  if (stats != nullptr) {
    *stats = SuggestStats{};
    stats->degradation_rung = static_cast<size_t>(rung);
  }

  SuggestionCache::CacheKey cache_key;
  SuggestionCache::Validator validator;
  const bool use_cache =
      (cache_ != nullptr || negative_cache_ != nullptr) && !bypass_cache;
  const bool delta_aware = cache_delta_aware_ && snap.validation.shards > 0;
  if (use_cache) {
    if (delta_aware) {
      // Delta-aware mode: the key carries generation 0 and the entry
      // instead records, per validation component it read, the generation
      // that last changed that component's content. A swap that left those
      // components byte-identical leaves the entry servable.
      cache_key = SuggestionCache::KeyOf(request, k, /*generation=*/0);
      validator = [&snap](const SuggestionCache::ValidationVector& components) {
        return ValidateCacheEntry(snap, components);
      };
    } else {
      // Whole-generation mode: the snapshot generation is part of the key,
      // so after a swap a pre-swap entry can never answer a post-swap
      // request — stale lists age out of the policy instead of being
      // served.
      cache_key = SuggestionCache::KeyOf(request, k, snap.generation);
    }
  }
  if (cache_ != nullptr && !bypass_cache) {
    std::vector<Suggestion> cached;
    bool hit;
    {
      obs::StageScope cache_scope(obs::ProfileStage::kCache);
      obs::StageProfiler::AddWork(obs::ProfileStage::kCache, 1);
      hit = cache_->Lookup(cache_key, &cached, validator);
    }
    if (hit) {
      *cache_hit = true;
      if (stats != nullptr) stats->suggestions_returned = cached.size();
      return cached;
    }
  }
  // The negative cache absorbs NotFound storms: a remembered miss answers
  // without touching the index, validated by the same component
  // generations so an ingest that makes the query known invalidates it.
  if (negative_cache_ != nullptr && !bypass_cache &&
      negative_cache_->Lookup(cache_key, validator)) {
    if (stats != nullptr) stats->negative_cache_hit = true;
    return Status::NotFound("no suggestions for \"" + request.query +
                            "\" (negative cache)");
  }
  if (rung == DegradationRung::kCacheOnly) {
    // The last rung does no pipeline work at all: a hit above served it, a
    // miss (or no cache) is a fast NotFound.
    return Status::NotFound("cache-only rung: no cached result for \"" +
                            request.query + "\"");
  }

  const PqsdaDiversifierOptions* options = &snap.diversifier->options();
  if (rung == DegradationRung::kTruncatedSolve) options = &truncated_options_;
  if (rung == DegradationRung::kWalkOnly) options = &walk_only_options_;

  StatusOr<DiversificationOutput> diversified =
      snap.diversifier->DiversifyWith(request, k, *options, stats);
  if (!diversified.ok()) {
    const Status status = diversified.status();
    // Remember full-rung NotFounds, stamped with the owning component's
    // generation (the verdict "this query is unknown" depends only on the
    // owner component's content); an ingest that changes it re-asks.
    if (use_cache && negative_cache_ != nullptr &&
        rung == DegradationRung::kFull &&
        status.code() == StatusCode::kNotFound) {
      SuggestionCache::ValidationVector components;
      if (delta_aware) {
        const uint32_t owner = PrimaryComponentOf(snap, request.query);
        components.emplace_back(owner, snap.validation_generation[owner]);
      }
      negative_cache_->Insert(cache_key, std::move(components));
    }
    return status;
  }
  std::vector<Suggestion> list = std::move(diversified->candidates);
  // Personalization is skipped on the walk-only rung — the rerank reads the
  // UPM per candidate and the rung's point is a bounded answer.
  bool reranked = false;
  if (rung != DegradationRung::kWalkOnly && snap.personalizer != nullptr &&
      request.user != kNoUser) {
    list = snap.personalizer->Rerank(request.user, list);
    personalized_total.Increment();
    reranked = true;
    if (stats != nullptr) stats->personalized = true;
  }
  if (stats != nullptr) stats->suggestions_returned = list.size();
  // Only full-quality results may fill the cache: a degraded answer cached
  // under the same key would outlive the overload that justified it.
  if (cache_ != nullptr && !bypass_cache && rung == DegradationRung::kFull) {
    SuggestionCache::ValidationVector components;
    if (delta_aware) {
      // The expansion reported the validation components it read; the
      // request's own component is always read too: it decides whether the
      // query is known at all (and owns the term-seeded unknown queries).
      const uint64_t read =
          diversified->components_read |
          uint64_t{1} << PrimaryComponentOf(snap, request.query);
      for (uint32_t c = 0; c < snap.validation_generation.size(); ++c) {
        if ((read >> c) & 1) {
          components.emplace_back(c, snap.validation_generation[c]);
        }
      }
      if (reranked) {
        components.emplace_back(kUpmComponent, snap.upm_generation);
      }
    }
    cache_->Insert(cache_key, list, std::move(components));
  }
  return list;
}

void PqsdaEngine::WarmupCache(const IndexSnapshot& snap) const {
  if (cache_ == nullptr || warmup_.log_path.empty()) return;
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  static obs::Counter& replayed_total =
      reg.GetCounter("pqsda.cache.warmup_replayed_total");
  static obs::Counter& hits_total =
      reg.GetCounter("pqsda.cache.warmup_hits_total");
  static obs::Counter& filled_total =
      reg.GetCounter("pqsda.cache.warmup_filled_total");
  auto entries = obs::ReadRequestLog(warmup_.log_path, /*max_entries=*/0);
  if (!entries.ok()) return;
  // Newest entries first, deduplicated by cache key: the tail of the log is
  // the best estimate of the head of the live distribution.
  std::unordered_set<std::string> seen;
  size_t replayed = 0;
  const uint64_t key_generation = cache_delta_aware_ ? 0 : snap.generation;
  for (auto it = entries->rbegin();
       it != entries->rend() && replayed < warmup_.max_requests; ++it) {
    const obs::RequestLogEntry& e = *it;
    if (!e.ok) continue;
    SuggestionRequest request;
    request.query = e.query;
    request.user = e.user;
    request.timestamp = e.timestamp;
    request.context = e.context;
    const SuggestionCache::CacheKey key =
        SuggestionCache::KeyOf(request, e.k, key_generation);
    if (!seen.insert(key.full).second) continue;
    ++replayed;
    replayed_total.Increment();
    bool hit = false;
    auto result = SuggestImpl(request, e.k, DegradationRung::kFull, snap,
                              /*stats=*/nullptr, &hit);
    if (hit) {
      hits_total.Increment();
    } else if (result.ok()) {
      filled_total.Increment();
    }
  }
}

std::vector<StatusOr<std::vector<Suggestion>>> PqsdaEngine::SuggestBatch(
    std::span<const SuggestionRequest> requests, size_t k,
    ThreadPool* pool) const {
  static obs::Counter& batches_total = obs::MetricsRegistry::Default()
      .GetCounter("pqsda.suggest.batches_total");
  batches_total.Increment();
  if (pool == nullptr) pool = &ThreadPool::Shared();
  std::vector<StatusOr<std::vector<Suggestion>>> results(
      requests.size(), Status::Internal("request not served"));
  pool->ParallelFor(0, requests.size(), /*min_grain=*/1,
                    [this, &requests, &results, k](size_t begin, size_t end) {
                      for (size_t i = begin; i < end; ++i) {
                        results[i] = Suggest(requests[i], k);
                      }
                    });
  return results;
}

}  // namespace pqsda
