#include "workload.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_set>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/zipf.h"
#include "eval/diversity.h"
#include "eval/harness.h"
#include "eval/relevance.h"
#include "eval/synthetic_adapters.h"
#include "measure.h"
#include "obs/metrics.h"
#include "suggest/suggestion_cache.h"

namespace perfbench {

using pqsda::Suggestion;
using pqsda::SuggestionRequest;

namespace {

// Served lists kept per client for the quality metrics.
constexpr size_t kMaxListsPerClient = 500;

// Generator settings of the benchmark log: 150 users (about 8.9k records),
// shaped like the figure benches' dataset.
pqsda::GeneratorConfig GeneratorFor(uint64_t seed) {
  pqsda::GeneratorConfig config;
  config.seed = seed;
  config.num_users = 150;
  config.sessions_per_user_min = 14;
  config.sessions_per_user_max = 26;
  config.facet_config.num_facets = 48;
  config.facet_config.num_concepts = 16;
  config.facet_config.facets_per_concept = 3;
  return config;
}

std::string KeyOf(const SuggestionRequest& request) {
  return pqsda::SuggestionCache::KeyOf(request, kListSize, 0).full;
}

// Appends the requests of `tests` whose cache key is new.
void AppendDistinct(const std::vector<pqsda::TestQuery>& tests,
                    std::unordered_set<std::string>& seen,
                    std::vector<SuggestionRequest>& out) {
  for (const pqsda::TestQuery& t : tests) {
    if (seen.insert(KeyOf(t.request)).second) out.push_back(t.request);
  }
}

void RunThreads(size_t n, const std::function<void(size_t)>& body) {
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (size_t i = 0; i < n; ++i) threads.emplace_back(body, i);
  for (std::thread& t : threads) t.join();
}

pqsda::obs::Counter& CacheHits() {
  static pqsda::obs::Counter& c =
      pqsda::obs::MetricsRegistry::Default().GetCounter(
          "pqsda.cache.hits_total");
  return c;
}

}  // namespace

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w :
       {Workload::kTailMiss, Workload::kHeadHit, Workload::kIngestChurn}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kTailMiss: return "tail_miss";
    case Workload::kHeadHit: return "head_hit";
    case Workload::kIngestChurn: return "ingest_churn";
  }
  return "unknown";
}

std::string WorkloadSpec::Describe() const {
  std::ostringstream out;
  if (open_loop) {
    out << "open loop: " << request_rps << " req/s from " << clients
        << " senders on one schedule, " << ingest_rps
        << " ingested records/s";
  } else {
    out << "closed loop: " << clients << " clients";
  }
  if (head_size > 0) {
    out << ", Zipf(" << zipf_exponent << ") over a head of " << head_size
        << " requests";
  } else {
    out << ", every request distinct";
  }
  return out.str();
}

WorkloadSpec SpecFor(Workload w) {
  WorkloadSpec spec;
  spec.kind = w;
  switch (w) {
    case Workload::kTailMiss:
      spec.clients = 2;
      spec.probe_every = 40;
      spec.probes_per_client = 16;
      break;
    case Workload::kHeadHit:
      spec.clients = 4;
      spec.head_size = 512;
      spec.zipf_exponent = 0.8;
      spec.probe_every = 50000;
      spec.probes_per_client = 8;
      break;
    case Workload::kIngestChurn:
      spec.open_loop = true;
      spec.clients = 4;
      spec.request_rps = 200.0;
      spec.ingest_rps = 100.0;
      spec.head_size = 64;
      spec.probe_every = 50;
      spec.probes_per_client = 8;
      break;
  }
  return spec;
}

EngineSetup SetupFor(Workload w) {
  EngineSetup setup;
  setup.config.cache_capacity = 4096;
  setup.non_default.emplace_back("cache_capacity", "4096");
  if (w == Workload::kIngestChurn) {
    // A personalized rebuild retrains the UPM from scratch; 30 Gibbs sweeps
    // instead of 120 keep several publications inside one run.
    setup.config.upm.base.gibbs_iterations = 30;
    setup.non_default.emplace_back("upm.base.gibbs_iterations", "30");
  }
  return setup;
}

BenchInputs MakeInputs(const WorkloadSpec& spec, uint64_t seed) {
  BenchInputs in(pqsda::GenerateLog(GeneratorFor(seed)));
  std::unordered_set<std::string> distinct;
  for (const pqsda::QueryLogRecord& r : in.data.records) {
    distinct.insert(r.query);
  }
  in.distinct_queries = distinct.size();

  // The ingest stream: a second log, in time order, starting a minute after
  // the training log ends.
  in.stream = pqsda::GenerateLog(GeneratorFor(seed ^ 0x5851F42D4C957F2DULL))
                  .records;
  std::stable_sort(in.stream.begin(), in.stream.end(),
                   [](const pqsda::QueryLogRecord& a,
                      const pqsda::QueryLogRecord& b) {
                     return a.timestamp < b.timestamp;
                   });
  int64_t base_end = 0;
  for (const pqsda::QueryLogRecord& r : in.data.records) {
    base_end = std::max(base_end, r.timestamp);
  }
  if (!in.stream.empty()) {
    const int64_t shift = base_end + 60 - in.stream.front().timestamp;
    for (pqsda::QueryLogRecord& r : in.stream) r.timestamp += shift;
  }

  std::unordered_set<std::string> seen;
  if (spec.head_size == 0) {
    // Long-tail requests: one occurrence per distinct query, in random
    // order. Later passes with fresh seeds add other occurrences (other
    // context or user) once the distinct queries run out, and a last pass
    // by record adds every remaining occurrence, so a faster engine does not
    // run out of requests within a run; no cache key appears twice.
    std::vector<SuggestionRequest> all;
    for (uint64_t pass = 0; pass < 16; ++pass) {
      AppendDistinct(pqsda::SampleTestQueries(
                         in.data, SIZE_MAX, seed * 17 + pass,
                         pqsda::TestSampling::kByDistinctQuery),
                     seen, all);
    }
    AppendDistinct(
        pqsda::SampleTestQueries(in.data, SIZE_MAX, seed * 17 + 16,
                                 pqsda::TestSampling::kByRecord),
        seen, all);
    const size_t warm = std::min<size_t>(16 * spec.clients, all.size() / 4);
    in.warmup.assign(all.begin(), all.begin() + warm);
    in.requests.assign(all.begin() + warm, all.end());
  } else {
    // The head: distinct requests drawn by record, so popular queries lead.
    AppendDistinct(pqsda::SampleTestQueries(in.data, 8 * spec.head_size,
                                            seed,
                                            pqsda::TestSampling::kByRecord),
                   seen, in.requests);
    if (in.requests.size() > spec.head_size) {
      in.requests.resize(spec.head_size);
    }
  }
  if (spec.kind == Workload::kIngestChurn) {
    for (const pqsda::TestQuery& t : pqsda::SampleTestQueries(
             in.data, 400, seed + 7, pqsda::TestSampling::kByDistinctQuery)) {
      in.quality_requests.push_back(t.request);
    }
  }
  return in;
}

CounterSnapshot CounterSnapshot::Read(const pqsda::PqsdaEngine& engine) {
  pqsda::obs::MetricsRegistry& reg = pqsda::obs::MetricsRegistry::Default();
  CounterSnapshot s;
  s.cache_hits = reg.GetCounter("pqsda.cache.hits_total").Value();
  s.cache_misses = reg.GetCounter("pqsda.cache.misses_total").Value();
  s.cache_evictions = reg.GetCounter("pqsda.cache.evictions_total").Value();
  s.cache_stale =
      reg.GetCounter("pqsda.cache.stale_invalidations_total").Value();
  s.cache_mismatch =
      reg.GetCounter("pqsda.cache.mismatch_misses_total").Value();
  const char* rungs[4] = {"pqsda.robust.rung_full_total",
                          "pqsda.robust.rung_truncated_total",
                          "pqsda.robust.rung_walk_only_total",
                          "pqsda.robust.rung_cache_only_total"};
  for (size_t i = 0; i < 4; ++i) s.rung[i] = reg.GetCounter(rungs[i]).Value();
  pqsda::obs::Histogram& expansion =
      reg.GetHistogram("pqsda.suggest.expansion_us");
  pqsda::obs::Histogram& solve =
      reg.GetHistogram("pqsda.suggest.regularization_solve_us");
  pqsda::obs::Histogram& selection =
      reg.GetHistogram("pqsda.suggest.hitting_time_selection_us");
  s.expansion_us = expansion.Sum();
  s.expansion_n = expansion.Count();
  s.solve_us = solve.Sum();
  s.solve_n = solve.Count();
  s.selection_us = selection.Sum();
  s.selection_n = selection.Count();
  s.rebuilds = engine.index_manager().rebuilds_total();
  return s;
}

CounterSnapshot CounterSnapshot::Minus(const CounterSnapshot& b) const {
  CounterSnapshot d = *this;
  d.cache_hits -= b.cache_hits;
  d.cache_misses -= b.cache_misses;
  d.cache_evictions -= b.cache_evictions;
  d.cache_stale -= b.cache_stale;
  d.cache_mismatch -= b.cache_mismatch;
  for (size_t i = 0; i < 4; ++i) d.rung[i] -= b.rung[i];
  d.expansion_us -= b.expansion_us;
  d.expansion_n -= b.expansion_n;
  d.solve_us -= b.solve_us;
  d.solve_n -= b.solve_n;
  d.selection_us -= b.selection_us;
  d.selection_n -= b.selection_n;
  d.rebuilds -= b.rebuilds;
  return d;
}

uint64_t PhaseResult::SuggestAttempted() const {
  uint64_t n = 0;
  for (const ClientLog& c : clients) n += c.attempted;
  return n;
}

uint64_t PhaseResult::SuggestFailed() const {
  uint64_t n = 0;
  for (const ClientLog& c : clients) n += c.failed;
  return n;
}

std::vector<double> PhaseResult::Latencies() const {
  std::vector<double> all;
  for (const ClientLog& c : clients) {
    all.insert(all.end(), c.latency_us.values().begin(),
               c.latency_us.values().end());
  }
  return all;
}

Runner::Runner(const WorkloadSpec& spec, const BenchInputs& inputs,
               pqsda::PqsdaEngine& engine)
    : spec_(spec), inputs_(inputs), engine_(engine) {
  base_records_ = engine_.AcquireIndex()->records.size();
  fill_fp_.assign(spec_.head_size, 0);
  fill_list_.assign(spec_.head_size, {});
}

bool Runner::Warmup() {
  std::atomic<bool> ok{true};
  if (spec_.head_size == 0) {
    RunThreads(spec_.clients, [&](size_t c) {
      for (size_t i = c; i < inputs_.warmup.size(); i += spec_.clients) {
        if (!engine_.Suggest(inputs_.warmup[i], kListSize).ok()) ok = false;
      }
    });
    return ok;
  }
  // Cache fill: every head request once; the list it fills is what every
  // later hit must return.
  RunThreads(spec_.clients, [&](size_t c) {
    for (size_t i = c; i < inputs_.requests.size(); i += spec_.clients) {
      auto result = engine_.Suggest(inputs_.requests[i], kListSize);
      if (!result.ok()) {
        ok = false;
        continue;
      }
      fill_fp_[i] = FingerprintOf(*result);
      fill_list_[i] = std::move(result).value();
    }
  });
  return ok;
}

void Runner::Serve(ClientLog& log, size_t index, int64_t due_ns, bool traced,
                   size_t served_so_far) {
  const SuggestionRequest& request = inputs_.requests[index];
  const bool probe = log.probes.size() < spec_.probes_per_client &&
                     served_so_far % spec_.probe_every == 0;
  std::shared_ptr<const pqsda::IndexSnapshot> pinned;
  if (probe || traced) pinned = engine_.AcquireIndex();
  uint64_t request_id = 0;
  uint64_t hits_before = 0;
  uint32_t request_span = kNoParent;
  if (traced) {
    request_id = next_request_id_.fetch_add(1);
    log.queue_depth.push_back(
        static_cast<double>(pqsda::ThreadPool::Shared().QueueDepth()));
    hits_before = CacheHits().Value();
    request_span = log.spans.Open(SpanName::kRequest, request_id, kNoParent);
  }
  const int64_t start = due_ns != 0 ? due_ns : NowNs();
  auto result = engine_.Suggest(request, kListSize);
  const int64_t end = NowNs();
  if (traced) log.spans.Close(request_span);
  ++log.attempted;
  log.latency_us.Add(static_cast<double>(end - start) * 1e-3);
  if (!result.ok()) {
    ++log.failed;
    return;
  }
  // A request pinned the generation published when it started; when the
  // generation is the same afterwards, that is the one it served from.
  const bool same_generation =
      pinned != nullptr && pinned->generation == engine_.generation();
  if (probe && same_generation) {
    log.probes.push_back(Probe{index, *result, pinned});
  }
  if (spec_.kind == Workload::kHeadHit) {
    ++log.served_count[index];
    if (FingerprintOf(*result) != fill_fp_[index]) ++log.fill_mismatches;
  } else if (spec_.kind == Workload::kTailMiss &&
             log.lists.size() < kMaxListsPerClient) {
    log.lists.emplace_back(index, *result);
  }
  if (!traced) return;

  // Re-drive: a hit (the hit counter moved) repeats the cache lookup, a miss
  // the pipeline, each on the snapshot the request pinned. Concurrent
  // clients can make a miss look like a hit; its lookup then finds the
  // entry the miss just filled.
  const uint64_t fp = FingerprintOf(*result);
  const uint32_t redrive =
      log.spans.Open(SpanName::kRedrive, request_id, request_span);
  bool done = false;
  if (CacheHits().Value() != hits_before && engine_.cache() != nullptr) {
    std::vector<Suggestion> cached;
    bool found;
    {
      ScopedSpan span(log.spans, SpanName::kCacheLookup, request_id, redrive);
      found = engine_.cache()->Lookup(
          pqsda::SuggestionCache::KeyOf(request, kListSize, 0), &cached);
    }
    if (found) {
      done = true;
      ++log.lookup_redrives;
      if (same_generation && FingerprintOf(cached) != fp) {
        ++log.redrive_mismatches;
      }
    }
  }
  if (!done) {
    if (!same_generation) {
      ++log.redrive_skipped;
    } else {
      RedriveCounts counts;
      auto again = RedriveRequest(*pinned, request, kListSize, log.spans,
                                  request_id, redrive, &counts);
      if (!again.ok()) {
        ++log.redrive_skipped;
      } else {
        log.redrives.push_back(counts);
        if (FingerprintOf(*again) != fp) ++log.redrive_mismatches;
      }
    }
  }
  log.spans.Close(redrive);
}

PhaseResult Runner::RunPhase(double seconds, bool traced, size_t span_budget) {
  PhaseResult phase;
  phase.clients.resize(spec_.clients);
  for (ClientLog& c : phase.clients) c.served_count.assign(spec_.head_size, 0);
  spans_recorded_ = 0;
  ++phase_index_;
  const CounterSnapshot before = CounterSnapshot::Read(engine_);
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  if (spec_.open_loop) {
    RunOpen(phase, start, end, traced, span_budget);
  } else {
    RunClosed(phase, end, traced, span_budget);
    phase.wall_s = static_cast<double>(NowNs() - start) * 1e-9;
  }
  phase.counters = CounterSnapshot::Read(engine_).Minus(before);
  return phase;
}

void Runner::RunClosed(PhaseResult& phase, int64_t end_ns, bool traced,
                       size_t span_budget) {
  const bool head = spec_.head_size > 0;
  const pqsda::ZipfSampler zipf(head ? inputs_.requests.size() : 1,
                                spec_.zipf_exponent);
  std::atomic<bool> exhausted{false};
  RunThreads(spec_.clients, [&](size_t c) {
    ClientLog& log = phase.clients[c];
    pqsda::Rng rng(inputs_.data.config.seed * 1000003 + phase_index_ * 101 +
                   c);
    size_t served = 0;
    while (NowNs() < end_ns &&
           (!traced || spans_recorded_.load() < span_budget)) {
      size_t index;
      if (head) {
        index = zipf.Sample(rng);
      } else {
        index = next_request_.fetch_add(1);
        if (index >= inputs_.requests.size()) {
          exhausted = true;
          break;
        }
      }
      const size_t spans_before = log.spans.spans().size();
      Serve(log, index, 0, traced, served++);
      if (traced) {
        spans_recorded_ += log.spans.spans().size() - spans_before;
      }
    }
  });
  phase.exhausted = exhausted;
}

namespace {

// Sleeps until `t` (steady ns), spinning for the last stretch so a request
// starts within microseconds of when it is due.
void SleepUntil(int64_t t) {
  constexpr int64_t kSpinNs = 200000;
  const int64_t wait = t - NowNs() - kSpinNs;
  if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
  while (NowNs() < t) {
  }
}

}  // namespace

void Runner::RunOpen(PhaseResult& phase, int64_t start, int64_t end_ns,
                     bool traced, size_t span_budget) {
  // One fixed-rate schedule; sender w owns slots w, w + W, w + 2W, ... so a
  // request starts when due without a thread handoff, and a slow request
  // delays only its own sender's later slots. The window is [start, end_ns);
  // afterwards requests and ingest keep running unrecorded until every
  // record ingested in the window is published, so the last ones see the
  // same load as the rest.
  const size_t senders = spec_.clients;
  const double period_ns = 1e9 / spec_.request_rps;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> completed{0};
  std::atomic<int64_t> last_completion{start};
  std::vector<std::vector<std::pair<uint64_t, double>>> in_flight(senders);
  std::vector<std::vector<double>> lag(senders);
  std::vector<ClientLog> unrecorded(senders);

  std::vector<std::thread> threads;
  for (size_t w = 0; w < senders; ++w) {
    threads.emplace_back([&, w] {
      const pqsda::ZipfSampler zipf(inputs_.requests.size(),
                                    spec_.zipf_exponent);
      pqsda::Rng rng(inputs_.data.config.seed * 1000003 + phase_index_ * 101 +
                     w);
      size_t served = 0;
      for (uint64_t slot = w;; slot += senders) {
        const int64_t due =
            start + static_cast<int64_t>(static_cast<double>(slot) * period_ns);
        const bool window =
            due < end_ns && (!traced || spans_recorded_.load() < span_budget);
        if (!window && stop.load()) break;
        SleepUntil(due);
        const size_t index = zipf.Sample(rng);
        if (!window) {
          Serve(unrecorded[w], index, due, false, served);
          continue;
        }
        const int64_t sent = NowNs();
        lag[w].push_back(static_cast<double>(sent - due) * 1e-3);
        in_flight[w].emplace_back(
            slot, static_cast<double>(slot + 1 - completed.load()));
        ClientLog& log = phase.clients[w];
        const size_t spans_before = log.spans.spans().size();
        Serve(log, index, due, traced, served++);
        if (traced) {
          spans_recorded_ += log.spans.spans().size() - spans_before;
        }
        ++completed;
        const int64_t now = NowNs();
        int64_t seen = last_completion.load();
        while (now > seen &&
               !last_completion.compare_exchange_weak(seen, now)) {
        }
      }
    });
  }

  // Accepted records ingested before the window ended, once known.
  std::atomic<int64_t> window_records{-1};
  const size_t first_record = ingest_return_ns_.size();
  threads.emplace_back([&] {
    const double ingest_period_ns = 1e9 / spec_.ingest_rps;
    for (uint64_t j = 0;; ++j) {
      const int64_t due = start + static_cast<int64_t>(
                                      static_cast<double>(j) * ingest_period_ns);
      const bool window = due < end_ns;
      if (!window && window_records.load() < 0) {
        std::lock_guard<std::mutex> lock(ingest_mu_);
        window_records = static_cast<int64_t>(ingest_return_ns_.size());
      }
      if ((!window && stop.load()) ||
          stream_cursor_ >= inputs_.stream.size()) {
        break;
      }
      SleepUntil(due);
      const uint32_t span =
          traced && window
              ? phase.ingest_spans.Open(SpanName::kIngest,
                                        next_request_id_.fetch_add(1),
                                        kNoParent)
              : kNoParent;
      const pqsda::Status status =
          engine_.Ingest(inputs_.stream[stream_cursor_++]);
      const int64_t returned = NowNs();
      if (span != kNoParent) phase.ingest_spans.Close(span);
      ++phase.ingest_attempted;
      if (status.ok()) {
        std::lock_guard<std::mutex> lock(ingest_mu_);
        ingest_return_ns_.push_back(returned);
        ingest_stream_index_.push_back(stream_cursor_ - 1);
      } else {
        ++phase.ingest_refused;
      }
    }
    // The stream ran dry: whatever was accepted is the window's share.
    if (window_records.load() < 0) {
      std::lock_guard<std::mutex> lock(ingest_mu_);
      window_records = static_cast<int64_t>(ingest_return_ns_.size());
    }
  });

  // Publications; ends the run once the window's records are all servable,
  // or 30 s after the window (the check then reports them unpublished).
  std::atomic<bool> stop_watch{false};
  std::thread watcher([&] {
    WatchPublications(stop_watch, phase.publications,
                      &phase.publication_check_ok, [&] {
                        const int64_t need = window_records.load();
                        const bool covered =
                            need >= 0 &&
                            (static_cast<size_t>(need) == first_record ||
                             (!phase.publications.empty() &&
                              phase.publications.back().records -
                                      base_records_ >=
                                  static_cast<size_t>(need)));
                        if (covered || NowNs() > end_ns + 30'000'000'000LL) {
                          stop = true;
                        }
                      });
  });
  for (std::thread& t : threads) t.join();
  engine_.index_manager().WaitForRebuilds();
  stop_watch = true;
  watcher.join();

  phase.wall_s = static_cast<double>(last_completion.load() - start) * 1e-9;
  const int64_t window_end = std::max<int64_t>(window_records.load(), 0);
  std::vector<double> freshness;
  size_t unpublished = 0;
  Freshness(first_record, phase.publications, freshness, &unpublished);
  // Only records ingested inside the window count.
  const size_t in_window =
      static_cast<size_t>(window_end) > first_record
          ? static_cast<size_t>(window_end) - first_record
          : 0;
  phase.freshness_s.assign(freshness.begin(),
                           freshness.begin() +
                               std::min(in_window, freshness.size()));
  phase.unpublished = in_window > freshness.size()
                          ? in_window - freshness.size()
                          : 0;
  for (const ClientLog& u : unrecorded) {
    phase.unrecorded_attempted += u.attempted;
    phase.unrecorded_failed += u.failed;
  }
  for (auto& l : lag) phase.lag_us.insert(phase.lag_us.end(), l.begin(), l.end());

  // Backlog: in-flight requests over the window's last quarter against its
  // first quarter, in schedule order.
  std::vector<std::pair<uint64_t, double>> samples;
  for (auto& v : in_flight) samples.insert(samples.end(), v.begin(), v.end());
  std::sort(samples.begin(), samples.end());
  if (samples.size() >= 8) {
    const size_t q = samples.size() / 4;
    double first = 0.0, last = 0.0;
    for (size_t i = 0; i < q; ++i) {
      first += samples[i].second;
      last += samples[samples.size() - 1 - i].second;
    }
    first /= static_cast<double>(q);
    last /= static_cast<double>(q);
    phase.backlog_growth = last - first;
    phase.backlog_growing = phase.backlog_growth > std::max(2.0, first);
  }
}

bool Runner::IsPublished(const pqsda::IndexSnapshot& snap,
                         size_t absorbed) const {
  if (absorbed == 0) return true;
  std::lock_guard<std::mutex> lock(ingest_mu_);
  if (absorbed > ingest_stream_index_.size()) return false;
  const pqsda::QueryLogRecord& last =
      inputs_.stream[ingest_stream_index_[absorbed - 1]];
  return std::find(snap.records.begin(), snap.records.end(), last) !=
         snap.records.end();
}

void Runner::WatchPublications(const std::atomic<bool>& stop,
                               std::vector<Publication>& out, bool* check_ok,
                               const std::function<void()>& after_poll) const {
  uint64_t last = engine_.generation();
  auto poll = [&] {
    if (engine_.generation() == last) return;
    std::shared_ptr<const pqsda::IndexSnapshot> snap = engine_.AcquireIndex();
    last = snap->generation;
    const size_t absorbed = snap->records.size() - base_records_;
    // Rebuilds drain the delta buffer whole, in ingest order, so generation
    // g holds exactly the first `absorbed` accepted records.
    if (!IsPublished(*snap, absorbed)) *check_ok = false;
    out.push_back(
        Publication{snap->generation, snap->published_ns, snap->records.size()});
  };
  while (!stop.load()) {
    poll();
    if (after_poll) after_poll();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  poll();
}

void Runner::Freshness(size_t first_record,
                       const std::vector<Publication>& pubs,
                       std::vector<double>& out, size_t* unpublished) const {
  std::lock_guard<std::mutex> lock(ingest_mu_);
  for (size_t i = first_record; i < ingest_return_ns_.size(); ++i) {
    bool found = false;
    for (const Publication& p : pubs) {
      if (p.records - base_records_ > i) {
        out.push_back(static_cast<double>(p.published_ns -
                                          ingest_return_ns_[i]) *
                      1e-9);
        found = true;
        break;
      }
    }
    if (!found) ++*unpublished;
  }
}

std::vector<double> Runner::FreshnessProbe(size_t count, bool* check_ok) {
  std::vector<Publication> pubs;
  std::atomic<bool> stop{false};
  const size_t first_record = ingest_return_ns_.size();
  std::thread watcher([&] { WatchPublications(stop, pubs, check_ok, {}); });
  for (size_t i = 0; i < count && stream_cursor_ < inputs_.stream.size();
       ++i) {
    const pqsda::Status status =
        engine_.Ingest(inputs_.stream[stream_cursor_++]);
    const int64_t returned = NowNs();
    if (!status.ok()) {
      *check_ok = false;
      continue;
    }
    std::lock_guard<std::mutex> lock(ingest_mu_);
    ingest_return_ns_.push_back(returned);
    ingest_stream_index_.push_back(stream_cursor_ - 1);
  }
  engine_.index_manager().WaitForRebuilds();
  stop = true;
  watcher.join();
  std::vector<double> freshness;
  size_t unpublished = 0;
  Freshness(first_record, pubs, freshness, &unpublished);
  if (unpublished > 0) *check_ok = false;
  return freshness;
}

size_t Runner::CheckProbes(const PhaseResult& phase) const {
  size_t mismatches = 0;
  for (const ClientLog& c : phase.clients) {
    for (const Probe& p : c.probes) {
      auto again = ReServe(*p.snap, inputs_.requests[p.request], kListSize);
      if (!again.ok() || FingerprintOf(*again) != FingerprintOf(p.served)) {
        ++mismatches;
      }
    }
  }
  return mismatches;
}

std::pair<double, double> Runner::Quality(const PhaseResult& phase) const {
  const pqsda::SyntheticDataset& data = inputs_.data;
  const pqsda::ClickedPages pages = pqsda::ClickedPages::Build(data.records);
  const pqsda::SyntheticPageSimilarity similarity(data.facets);
  const pqsda::SyntheticQueryCategories categories(data);
  double diversity = 0.0, relevance = 0.0, weight = 0.0;
  auto add = [&](const SuggestionRequest& request,
                 const std::vector<Suggestion>& list, double w) {
    diversity +=
        w * pqsda::ListDiversity(list, kListSize, pages, similarity);
    relevance += w * pqsda::ListRelevance(request.query, list, kListSize,
                                          data.taxonomy, categories);
    weight += w;
  };
  if (spec_.kind == Workload::kIngestChurn) {
    const std::shared_ptr<const pqsda::IndexSnapshot> snap =
        engine_.AcquireIndex();
    for (const SuggestionRequest& request : inputs_.quality_requests) {
      auto list = ReServe(*snap, request, kListSize);
      if (list.ok()) add(request, *list, 1.0);
    }
  } else if (spec_.kind == Workload::kHeadHit) {
    // Every served head list equals its fill (checked while serving); each
    // distinct list served counts once, since weighting by the Zipf draws
    // would let the top few requests decide the mean.
    for (size_t i = 0; i < spec_.head_size; ++i) {
      bool served = false;
      for (const ClientLog& c : phase.clients) served |= c.served_count[i] > 0;
      if (served) add(inputs_.requests[i], fill_list_[i], 1.0);
    }
  } else {
    for (const ClientLog& c : phase.clients) {
      for (const auto& [index, list] : c.lists) {
        add(inputs_.requests[index], list, 1.0);
      }
    }
  }
  if (weight == 0.0) return {0.0, 0.0};
  return {diversity / weight, relevance / weight};
}

}  // namespace perfbench
