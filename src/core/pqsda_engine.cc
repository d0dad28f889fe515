#include "core/pqsda_engine.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <unordered_set>

#include "common/fault_injector.h"
#include "common/timer.h"
#include "obs/explain.h"
#include "obs/metrics.h"
#include "obs/request_log.h"
#include "obs/stage_profiler.h"
#include "obs/telemetry.h"

namespace pqsda {

namespace {

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
  // Reset a reused stats struct before any work: no number of a previous
  // request may survive *any* exit path — shed, cache hit, error,
  // cancellation, deadline.
  if (stats != nullptr) *stats = SuggestStats{};
  obs::ServingTelemetry& telemetry = obs::ServingTelemetry::Default();
  obs::RequestRecord record;
  record.id = telemetry.NextRequestId();
  record.request = &request;
  record.k = k;
  record.cache_enabled = cache_ != nullptr;

  // Admission first: an overloaded server answers kUnavailable in
  // microseconds instead of joining the queue it is already losing.
  Status admit = admission_.Admit();
  if (!admit.ok()) {
    const StatusOr<std::vector<Suggestion>> shed = admit;
    record.shed = true;
    record.result = &shed;
    telemetry.Record(record);
    if (stats != nullptr) stats->shed = true;
    return admit;
  }

  // Pin the index for the request's whole lifetime: everything below reads
  // this one snapshot, so a concurrent rebuild swap can neither block nor
  // tear this request, and the snapshot outlives the call via the
  // shared_ptr even if it stops being the published one mid-pipeline.
  const std::shared_ptr<const IndexSnapshot> snap = index_->Acquire();
  record.generation = snap->generation;

  // The ladder rung is fixed here, once, from the remaining budget — the
  // pipeline below never re-escalates mid-request.
  const DegradationRung rung = ChooseRung(request);
  record.rung = static_cast<size_t>(rung);

  // Requests with stats always land in /tracez; the rest are head-sampled.
  record.traced = stats != nullptr || telemetry.SampleTrace();

  // Explain: collected when the caller asked (explain != nullptr) or when
  // head sampling selected this request for the /explainz ring. The record
  // is heap-held behind a shared_ptr because the store publishes it to
  // scrape threads after the request finishes.
  const bool explain_sampled = telemetry.SampleExplain();
  std::shared_ptr<obs::ExplainRecord> erec;
  if (explain != nullptr || explain_sampled) {
    erec = std::make_shared<obs::ExplainRecord>();
  }

  // The profiler brackets exactly the admitted request on this thread: the
  // pipeline's stage scopes accumulate into it, and EndRequest hands the
  // costs to the record and attributes them to the rung chosen above.
  obs::StageProfiler& profiler = obs::StageProfiler::Default();
  profiler.BeginRequest();
  StatusOr<std::vector<Suggestion>> result = Status::Internal("unset");
  {
    // The scope installs the record as the thread's explain sink for exactly
    // the pipeline's duration; the diversifier and personalizer write their
    // score terms through obs::CurrentExplain().
    std::optional<obs::ExplainScope> explain_scope;
    if (erec != nullptr) explain_scope.emplace(erec.get());
    result = SuggestImpl(request, k, rung, *snap, stats, record);
  }
  profiler.EndRequest(record.rung, &record.stages);
  record.result = &result;
  telemetry.Record(record, erec);

  if (explain != nullptr) *explain = *erec;
  if (stats != nullptr) {
    stats->stages = record.stages;
    stats->degradation_rung = record.rung;
    stats->negative_cache_hit = record.negative_cache_hit;
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

  obs::RequestRecord record;
  record.id = entry.request_id;
  record.request = &request;
  record.k = entry.k;
  record.generation = snap->generation;
  record.rung = static_cast<size_t>(rung);
  obs::ExplainRecord collected;
  WallTimer wall;
  StatusOr<std::vector<Suggestion>> result = Status::Internal("unset");
  {
    // Nested scope: replay may run on a serving thread mid-conversation
    // (the CLI), and the previous sink is restored on exit.
    std::optional<obs::ExplainScope> scope;
    if (explain != nullptr) scope.emplace(&collected);
    result = SuggestImpl(request, entry.k, rung, *snap, /*stats=*/nullptr,
                         record, /*bypass_cache=*/true);
  }
  if (explain != nullptr) {
    // Replay runs outside any profiler bracket (it must not land in
    // /profilez), so only its total is timed.
    record.stages[static_cast<size_t>(obs::ProfileStage::kRequest)].wall_ns =
        wall.ElapsedNanos();
    record.result = &result;
    obs::FillExplain(record, collected);
    *explain = std::move(collected);
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
    const IndexSnapshot& snap, SuggestStats* stats,
    obs::RequestRecord& record, bool bypass_cache) const {
  static obs::Counter& personalized_total = obs::MetricsRegistry::Default()
      .GetCounter("pqsda.suggest.personalized_total");

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
      record.cache_hit = true;
      if (stats != nullptr) stats->suggestions_returned = cached.size();
      return cached;
    }
  }
  // The negative cache absorbs NotFound storms: a remembered miss answers
  // without touching the index, validated by the same component
  // generations so an ingest that makes the query known invalidates it.
  if (negative_cache_ != nullptr && !bypass_cache &&
      negative_cache_->Lookup(cache_key, validator)) {
    record.negative_cache_hit = true;
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
    obs::RequestRecord record;
    auto result = SuggestImpl(request, e.k, DegradationRung::kFull, snap,
                              /*stats=*/nullptr, record);
    if (record.cache_hit) {
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
