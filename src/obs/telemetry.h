#ifndef PQSDA_OBS_TELEMETRY_H_
#define PQSDA_OBS_TELEMETRY_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/explain.h"
#include "obs/quality.h"
#include "obs/request_log.h"
#include "obs/sliding_window.h"
#include "obs/slo.h"
#include "obs/stage_profiler.h"
#include "suggest/engine.h"

namespace pqsda::obs {

class HttpExporter;

/// Policy knobs of the live serving-telemetry surface.
struct ServingTelemetryOptions {
  /// Epoch ring shared by every windowed aggregate (and the clock the whole
  /// surface reads — tests inject a fake one here).
  WindowOptions window;
  /// Trace 1 of every N requests into the /tracez ring (head sampling, like
  /// the request log). 0 disables sampling; requests that opt into
  /// SuggestStats are always traced into the ring.
  uint64_t trace_sample_every = 0;
  /// /tracez keeps this many most-recent and this many slowest traces.
  size_t tracez_recent = 16;
  size_t tracez_slowest = 16;
  /// Online quality telemetry samples 1 of every N served lists (1 = all,
  /// 0 = disabled); see QualityTelemetry.
  uint64_t quality_sample_every = 4;
  /// Collect a full ExplainRecord (per-candidate score attribution, see
  /// obs/explain.h) for 1 of every N requests into the /explainz ring
  /// (1 = all, 0 = disabled). Separate from trace sampling: explain pays for
  /// extra per-chain hitting-time sweeps on the sampled request, so its
  /// default is off and serve mode opts in explicitly.
  uint64_t explain_sample_every = 0;
  /// How many explain records /explainz retains (newest win).
  size_t explain_store_capacity = 64;
};

/// The one record a served request leaves behind. The engine fills it once
/// per request — the stage costs come from the StageProfiler bracket — and
/// ServingTelemetry::Record fans it out to every serving sink.
struct RequestRecord {
  uint64_t id = 0;
  /// The request as served; outlives the record.
  const SuggestionRequest* request = nullptr;
  size_t k = 0;
  /// Index generation pinned at admission.
  uint64_t generation = 0;
  /// DegradationRung numeric value chosen at admission.
  size_t rung = 0;
  bool cache_enabled = false;
  bool cache_hit = false;
  bool negative_cache_hit = false;
  /// Admission control answered kUnavailable before any pipeline work.
  bool shed = false;
  /// Selected for the /tracez ring.
  bool traced = false;
  /// The served outcome; set before the fan-out.
  const StatusOr<std::vector<Suggestion>>* result = nullptr;
  /// Stage costs of the request bracket; [kRequest] is the whole request.
  StageCosts stages{};

  bool ok() const { return result != nullptr && result->ok(); }
  int64_t total_us() const {
    return stages[static_cast<size_t>(ProfileStage::kRequest)].wall_ns / 1000;
  }
  /// (stage name, wall µs) of every stage that ran, in ProfileStage order —
  /// the request log's and /explainz's `stage_us`.
  std::vector<std::pair<std::string, int64_t>> StageMicros() const;
  /// FNV-1a 64 over the served list (see Fingerprint64); 0 unless ok.
  /// Computed on first use, so only requests a sink consumes pay for it.
  uint64_t Fingerprint() const;

 private:
  mutable bool fingerprinted_ = false;
  mutable uint64_t fingerprint_ = 0;
};

/// Copies the record's header fields (id, request, generation, rung, cache
/// outcome, status, total and stage times, fingerprint) into `explain` and
/// aligns its candidates to the served list.
void FillExplain(const RequestRecord& record, ExplainRecord& explain);

/// Process-wide live serving telemetry: windowed request rates and latency
/// percentiles (10s / 1m / 5m), a ring of recent + slowest request traces,
/// and an optional attached RequestLog. The cumulative MetricsRegistry says
/// what happened since the process started; this says what is happening
/// *now* — the two together are the /metrics + /statusz + /tracez surface.
///
/// Recording methods are thread-safe and cheap (shared-lock + relaxed
/// atomics); snapshot methods build JSON under internal locks and are meant
/// for scrape-rate callers.
class ServingTelemetry {
 public:
  explicit ServingTelemetry(ServingTelemetryOptions options = {});

  /// The instance the engine's request path records into. Created on first
  /// use with default options (windows on, trace sampling off, no request
  /// log).
  static ServingTelemetry& Default();
  /// Replaces Default() (serve mode and tests install a configured
  /// instance; the previous one is intentionally leaked — references cached
  /// by request threads must stay valid).
  static ServingTelemetry& Install(ServingTelemetryOptions options);

  /// Monotonic per-process request id.
  uint64_t NextRequestId() {
    return next_request_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Head-sampling decision for tracing this request into /tracez.
  bool SampleTrace();

  /// Head-sampling decision for collecting an ExplainRecord into /explainz.
  bool SampleExplain();
  /// Adjusts the explain sampling rate at runtime (0 disables). Used by the
  /// CLI's --explain_every flag and the bench's on/off overhead sweep.
  void SetExplainSampleEvery(uint64_t every) {
    explain_sample_every_.store(every, std::memory_order_relaxed);
  }
  uint64_t explain_sample_every() const {
    return explain_sample_every_.load(std::memory_order_relaxed);
  }
  /// The /explainz ring of recent explain records.
  ExplainStore& explain_store() { return explain_store_; }
  const ExplainStore& explain_store() const { return explain_store_; }
  /// /explainz body: without `id=` an index of stored records; with
  /// `request_id` the record's full JSON, or "" when unknown (the route
  /// answers 404).
  std::string ExplainzJson(uint64_t request_id, bool has_id) const;

  /// Fans one finished request out to every serving sink: the pqsda.suggest
  /// and pqsda.robust counters, the latency and stage histograms, the
  /// sliding windows and latency exemplars, the /tracez ring (when traced),
  /// `explain` (header fields filled, then stored for /explainz), online
  /// quality sampling and the request log. A shed request feeds the request
  /// and shed windows only — its near-zero latency would poison the
  /// percentiles, and it is neither an error nor traffic served.
  void Record(const RequestRecord& record,
              std::shared_ptr<ExplainRecord> explain = nullptr);

  /// Attaches (or replaces, or detaches with null) the sampled request log.
  void AttachRequestLog(std::unique_ptr<RequestLog> log);
  /// Null when no log is attached. The pointer stays valid for the process
  /// lifetime once attached (replacement leaks the predecessor by design —
  /// same contract as Install).
  RequestLog* request_log() const {
    return request_log_.load(std::memory_order_acquire);
  }

  /// Windowed snapshot as JSON: per-window qps / error rate / cache-hit
  /// rate / latency percentiles, per-stage cumulative latencies, pool
  /// queue depth and utilization, cache occupancy, request-log accounting,
  /// and engine build info.
  std::string StatuszJson() const;

  /// {"recent":[...],"slowest":[...]} of traced requests: id, query, total,
  /// generation, rung, cache outcome and per-stage wall/cpu/work.
  std::string TracezJson() const;

  /// Installs (or replaces) the burn-rate SLO engine over this surface's
  /// windows; the predecessor leaks deliberately (same contract as
  /// Install). An empty spec list removes SLO tracking.
  void ConfigureSlos(std::vector<SloSpec> specs);
  /// Null until ConfigureSlos installs an engine.
  SloEngine* slo() const { return slo_.load(std::memory_order_acquire); }
  /// /alertz body: the SLO engine's state, or {"slos":[],...} when none is
  /// configured.
  std::string AlertzJson() const;

  /// Registers /metrics, /healthz, /statusz, /tracez, /profilez, /alertz
  /// and /explainz on `exporter`.
  void RegisterEndpoints(HttpExporter* exporter);

  const ServingTelemetryOptions& options() const { return options_; }
  WindowedRate& requests() { return requests_; }
  WindowedRate& errors() { return errors_; }
  WindowedRate& shed() { return shed_; }
  SlidingWindowHistogram& latency() { return latency_; }
  QualityTelemetry& quality() { return quality_; }

 private:
  struct TracezEntry {
    int64_t total_us = 0;
    std::string json;  // rendered once, at Record
  };

  /// Most recent request landing in one latency bucket. Torn reads across
  /// the fields are possible and acceptable — exemplars are debugging
  /// breadcrumbs, not accounting.
  struct ExemplarSlot {
    std::atomic<uint64_t> request_id{0};
    std::atomic<int64_t> latency_us{0};
    std::atomic<int64_t> at_ns{0};
    /// Pinned index generation.
    std::atomic<uint64_t> generation{0};
  };

  void RecordTrace(const RequestRecord& record);

  ServingTelemetryOptions options_;
  std::atomic<uint64_t> next_request_id_{0};
  std::atomic<uint64_t> trace_seq_{0};
  std::atomic<uint64_t> explain_seq_{0};
  /// Runtime-adjustable copy of options_.explain_sample_every.
  std::atomic<uint64_t> explain_sample_every_;
  const int64_t start_ns_;

  WindowedRate requests_;
  WindowedRate errors_;
  WindowedRate not_found_;
  WindowedRate cache_hits_;
  WindowedRate cache_lookups_;
  WindowedRate shed_;
  SlidingWindowHistogram latency_;
  QualityTelemetry quality_;
  ExplainStore explain_store_;
  /// One exemplar per latency bucket (bounds().size() + 1 overflow).
  std::unique_ptr<ExemplarSlot[]> exemplars_;

  mutable std::mutex tracez_mu_;
  std::deque<TracezEntry> recent_;    // newest at the back
  std::vector<TracezEntry> slowest_;  // sorted by total_us descending

  std::atomic<RequestLog*> request_log_{nullptr};
  std::atomic<SloEngine*> slo_{nullptr};
};

}  // namespace pqsda::obs

#endif  // PQSDA_OBS_TELEMETRY_H_
