#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

// The benchmark's workloads: their inputs (drawn from the synthetic log
// generator under the run's seed), the engine configuration each runs, and
// the closed- and open-loop runners that serve them through PqsdaEngine's
// public API.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/engine_config.h"
#include "core/index_manager.h"
#include "core/pqsda_engine.h"
#include "measure.h"
#include "redrive.h"
#include "synthetic/generator.h"
#include "trace.h"

namespace perfbench {

enum class Workload { kTailMiss, kHeadHit, kIngestChurn };

bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload w);

/// Suggestions requested per call (the paper's top-10 lists).
inline constexpr size_t kListSize = 10;

struct WorkloadSpec {
  Workload kind = Workload::kTailMiss;
  /// Closed loop: `clients` threads, each sending its next request when the
  /// previous one returns. Open loop: `clients` sender threads share one
  /// fixed-rate schedule of `request_rps`, and an ingest thread feeds
  /// `ingest_rps` records on its own schedule.
  bool open_loop = false;
  size_t clients = 0;
  double request_rps = 0.0;
  double ingest_rps = 0.0;
  /// Requests in the Zipf-drawn head (0: every request is distinct).
  size_t head_size = 0;
  double zipf_exponent = 1.0;
  /// Every `probe_every`-th request of a client is kept as a probe, up to
  /// `probes_per_client`.
  size_t probe_every = 1;
  size_t probes_per_client = 8;

  std::string Describe() const;
};

WorkloadSpec SpecFor(Workload w);

/// The engine configuration of a workload and the options in it that differ
/// from the default PqsdaEngineConfig, as (name, value) pairs.
struct EngineSetup {
  pqsda::PqsdaEngineConfig config;
  std::vector<std::pair<std::string, std::string>> non_default;
};

EngineSetup SetupFor(Workload w);

struct BenchInputs {
  explicit BenchInputs(pqsda::SyntheticDataset d) : data(std::move(d)) {}

  /// The training log the engine is built from.
  pqsda::SyntheticDataset data;
  /// Fresh records for Ingest: a second log from a seed derived from the
  /// run's seed, in time order, shifted to start after the training log.
  std::vector<pqsda::QueryLogRecord> stream;
  /// Served before timing (never repeated in the timed phase for tail_miss).
  std::vector<pqsda::SuggestionRequest> warmup;
  /// tail_miss: distinct requests handed out once each, in order. Otherwise
  /// the head, rank 0 first.
  std::vector<pqsda::SuggestionRequest> requests;
  /// ingest_churn: long-tail requests whose lists on the final generation
  /// give the quality metrics (its small head is too few lists).
  std::vector<pqsda::SuggestionRequest> quality_requests;
  size_t distinct_queries = 0;
};

BenchInputs MakeInputs(const WorkloadSpec& spec, uint64_t seed);

/// One request kept for the post-run check: what the engine served and the
/// snapshot it served from.
struct Probe {
  size_t request = 0;
  std::vector<pqsda::Suggestion> served;
  std::shared_ptr<const pqsda::IndexSnapshot> snap;
};

/// Registry counters read before and after a phase.
struct CounterSnapshot {
  uint64_t cache_hits = 0, cache_misses = 0, cache_evictions = 0,
           cache_stale = 0, cache_mismatch = 0;
  uint64_t rung[4] = {0, 0, 0, 0};
  /// The engine's own stage timers: (sum us, count) per stage.
  double expansion_us = 0, solve_us = 0, selection_us = 0;
  uint64_t expansion_n = 0, solve_n = 0, selection_n = 0;
  uint64_t rebuilds = 0;

  static CounterSnapshot Read(const pqsda::PqsdaEngine& engine);
  CounterSnapshot Minus(const CounterSnapshot& before) const;
};

/// Everything one client (closed loop) or sender (open loop) recorded.
struct ClientLog {
  /// Request latencies (us), sampled uniformly once a phase is long.
  Reservoir latency_us;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Probe> probes;
  /// tail_miss: served lists kept for the quality metrics, (request index,
  /// list).
  std::vector<std::pair<size_t, std::vector<pqsda::Suggestion>>> lists;
  /// head_hit: times each head request was served.
  std::vector<uint64_t> served_count;
  uint64_t fill_mismatches = 0;
  // Traced phase only.
  SpanBuffer spans;
  std::vector<double> queue_depth;
  std::vector<RedriveCounts> redrives;
  uint64_t redrive_mismatches = 0;
  uint64_t redrive_skipped = 0;
  uint64_t lookup_redrives = 0;
};

struct Publication {
  uint64_t generation = 0;
  int64_t published_ns = 0;
  size_t records = 0;
};

struct PhaseResult {
  double wall_s = 0.0;
  std::vector<ClientLog> clients;
  CounterSnapshot counters;
  // Ingest stream (open loop).
  uint64_t ingest_attempted = 0;
  uint64_t ingest_refused = 0;
  SpanBuffer ingest_spans;  // traced phase only
  std::vector<double> freshness_s;
  size_t unpublished = 0;
  bool publication_check_ok = true;
  std::vector<Publication> publications;
  /// Requests served outside the window (open loop), counted but not timed.
  uint64_t unrecorded_attempted = 0;
  uint64_t unrecorded_failed = 0;
  // Schedule (open loop): how late requests started, and the backlog.
  std::vector<double> lag_us;
  double backlog_growth = 0.0;
  bool backlog_growing = false;
  bool exhausted = false;  // tail_miss ran out of distinct requests

  uint64_t SuggestAttempted() const;
  uint64_t SuggestFailed() const;
  std::vector<double> Latencies() const;
};

/// Drives one workload against one engine.
class Runner {
 public:
  Runner(const WorkloadSpec& spec, const BenchInputs& inputs,
         pqsda::PqsdaEngine& engine);

  /// Serves the warm-up set (the cache fill pass for head workloads).
  /// Returns false when a warm-up request fails.
  bool Warmup();

  /// One timed phase of `seconds`. A traced phase also re-drives each
  /// request through the layer functions, recording spans, until
  /// `span_budget` spans exist.
  PhaseResult RunPhase(double seconds, bool traced, size_t span_budget);

  /// Ingests `count` stream records back to back, waits for the rebuilds
  /// they trigger and returns each record's Ingest-return-to-publication
  /// time (seconds).
  std::vector<double> FreshnessProbe(size_t count, bool* check_ok);

  /// Re-serves each probe cache-bypassed on its pinned snapshot; returns the
  /// number whose fingerprint differs from the served list.
  size_t CheckProbes(const PhaseResult& phase) const;

  /// (Eq. 33 ListDiversity, Eq. 34 ListRelevance) at 10, computed with the
  /// synthetic eval adapters: averaged over the lists the phase served, or
  /// for ingest_churn over `quality_requests` re-served on the final
  /// generation.
  std::pair<double, double> Quality(const PhaseResult& phase) const;

 private:
  void Serve(ClientLog& log, size_t index, int64_t due_ns, bool traced,
             size_t served_so_far);
  void RunClosed(PhaseResult& phase, int64_t end_ns, bool traced,
                 size_t span_budget);
  void RunOpen(PhaseResult& phase, int64_t start, int64_t end_ns,
               bool traced, size_t span_budget);
  /// Polls for new publications until `stop`, appending to `out` and
  /// calling `after_poll` (when set) after each poll.
  void WatchPublications(const std::atomic<bool>& stop,
                         std::vector<Publication>& out, bool* check_ok,
                         const std::function<void()>& after_poll) const;
  /// Ingest-return times to freshness, given the publications seen.
  void Freshness(size_t first_record, const std::vector<Publication>& pubs,
                 std::vector<double>& out, size_t* unpublished) const;
  bool IsPublished(const pqsda::IndexSnapshot& snap, size_t absorbed) const;

  WorkloadSpec spec_;
  const BenchInputs& inputs_;
  pqsda::PqsdaEngine& engine_;
  size_t base_records_ = 0;
  std::atomic<size_t> next_request_{0};
  std::atomic<uint64_t> next_request_id_{1};
  std::atomic<size_t> spans_recorded_{0};
  /// head workloads: fingerprint and list of the miss that filled each entry.
  std::vector<uint64_t> fill_fp_;
  std::vector<std::vector<pqsda::Suggestion>> fill_list_;
  /// Stream records consumed; for each accepted one, in ingest order, its
  /// Ingest-return instant and stream index.
  size_t stream_cursor_ = 0;
  mutable std::mutex ingest_mu_;
  std::vector<int64_t> ingest_return_ns_;
  std::vector<size_t> ingest_stream_index_;
  uint64_t phase_index_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
