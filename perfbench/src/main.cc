// PQS-DA benchmark binary.
//
//   pqsda_perfbench --workload <tail_miss|head_hit|ingest_churn> --seed <n>
//                   --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 runs
// an untraced phase and then a traced phase that re-drives each request
// through the layer functions, and reports the per-layer metrics. Both
// check the served lists. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. A ledger with the
// host stamp, checks and reconciliation, and (traced) the span export, are
// written to the output directory.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/simd.h"
#include "common/thread_pool.h"
#include "core/pqsda_engine.h"
#include "measure.h"
#include "redrive.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

struct Args {
  Workload workload = Workload::kTailMiss;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

// Setup is measured this many times per run; the median is reported.
constexpr int kSetupRepeats = 3;
// Spans the traced phase may record before it stops early.
constexpr size_t kSpanBudget = 200000;
// A layer self time (or residual) above this share of its parent is named
// in the reconciliation.
constexpr double kResidualShare = 0.10;

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      if (!ParseWorkload(value, &args->workload)) return false;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1;
}

// Metrics in the order they are printed: name -> (value, unit).
class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
  }
  std::string Json() const {
    JsonObject out;
    for (const Entry& e : entries_) {
      out.Raw(e.name,
              JsonObject().Num("value", e.value).Str("unit", e.unit).str());
    }
    return out.str();
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

// Everything a run checks; the run is correct when every count is zero and
// every flag holds.
struct Checks {
  uint64_t probes = 0;
  uint64_t probe_mismatches = 0;
  uint64_t fill_mismatches = 0;
  uint64_t redriven = 0;
  uint64_t redrive_skipped = 0;
  uint64_t redrive_mismatches = 0;
  bool fingerprints_match = true;
  bool publications_ok = true;

  void AddPhase(const PhaseResult& phase, size_t mismatches) {
    probe_mismatches += mismatches;
    for (const ClientLog& c : phase.clients) {
      probes += c.probes.size();
      fill_mismatches += c.fill_mismatches;
      redriven += c.redrives.size() + c.lookup_redrives;
      redrive_skipped += c.redrive_skipped;
      redrive_mismatches += c.redrive_mismatches;
    }
    publications_ok = publications_ok && phase.publication_check_ok;
  }
  bool ok() const {
    return probe_mismatches == 0 && fill_mismatches == 0 &&
           redrive_mismatches == 0 && fingerprints_match && publications_ok;
  }
  std::string Json() const {
    return JsonObject()
        .Int("probes", static_cast<int64_t>(probes))
        .Int("probe_mismatches", static_cast<int64_t>(probe_mismatches))
        .Int("head_fill_mismatches", static_cast<int64_t>(fill_mismatches))
        .Int("redriven", static_cast<int64_t>(redriven))
        .Int("redrive_skipped_generation_moved",
             static_cast<int64_t>(redrive_skipped))
        .Int("redrive_mismatches", static_cast<int64_t>(redrive_mismatches))
        .Bool("partition_fingerprints_match", fingerprints_match)
        .Bool("publication_accounting_ok", publications_ok)
        .Bool("ok", ok())
        .str();
  }
};

std::string Stamp(const Args& args, const WorkloadSpec& spec,
                  const EngineSetup& setup, const BenchInputs& inputs) {
  JsonObject options;
  for (const auto& [name, value] : setup.non_default) options.Str(name, value);
  return JsonObject()
      .Str("workload", WorkloadName(args.workload))
      .Int("seed", static_cast<int64_t>(args.seed))
      .Num("seconds", args.seconds)
      .Bool("trace", args.trace)
      .Str("loop", spec.Describe())
      .Str("cpu_model", CpuModel())
      .Int("nproc", std::thread::hardware_concurrency())
      .Int("shared_pool_threads",
           static_cast<int64_t>(pqsda::ThreadPool::Shared().size()))
      .Str("simd_level",
           pqsda::simd::LevelName(pqsda::simd::ActiveLevel()))
      .Str("build_type", PERFBENCH_BUILD_TYPE)
      .Raw("engine_options_non_default", options.str())
      .Int("log_users", inputs.data.config.num_users)
      .Int("log_records", static_cast<int64_t>(inputs.data.records.size()))
      .Int("log_distinct_queries",
           static_cast<int64_t>(inputs.distinct_queries))
      .Int("request_set", static_cast<int64_t>(inputs.requests.size()))
      .Int("stream_records", static_cast<int64_t>(inputs.stream.size()))
      .str();
}

std::unique_ptr<pqsda::PqsdaEngine> BuildEngine(const BenchInputs& inputs,
                                                const EngineSetup& setup,
                                                double* seconds) {
  std::vector<pqsda::QueryLogRecord> records = inputs.data.records;
  const int64_t start = NowNs();
  auto engine = pqsda::PqsdaEngine::Build(std::move(records), setup.config);
  *seconds = static_cast<double>(NowNs() - start) * 1e-9;
  if (!engine.ok()) {
    std::cerr << "engine build failed: " << engine.status().ToString() << "\n";
    return nullptr;
  }
  return std::move(engine).value();
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Output file of this run: <out-dir>/<workload>-seed<n><suffix>.
std::string RunPath(const Args& args, const std::string& suffix) {
  return args.out_dir + "/" + WorkloadName(args.workload) + "-seed" +
         std::to_string(args.seed) + suffix;
}

// Writes the ledger to `path` and standard output, then prints the result
// line, which must come last.
void Emit(const std::string& path, const std::string& ledger,
          const Checks& checks, uint64_t attempted, uint64_t failed,
          const Metrics& metrics) {
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fputs((ledger + "\n").c_str(), f);
    std::fclose(f);
  }
  std::cout << "ledger " << ledger << "\n";
  std::cout << JsonObject()
                   .Bool("correct", checks.ok())
                   .Int("attempted", static_cast<int64_t>(attempted))
                   .Int("failed", static_cast<int64_t>(failed))
                   .Raw("metrics", metrics.Json())
                   .str()
            << std::endl;
}

// Untraced end-to-end run.
int RunEndToEnd(const Args& args, const WorkloadSpec& spec,
                const EngineSetup& setup, const BenchInputs& inputs,
                const std::string& stamp) {
  std::vector<double> setup_s;
  std::unique_ptr<pqsda::PqsdaEngine> engine;
  for (int i = 0; i < kSetupRepeats; ++i) {
    engine.reset();
    double s = 0.0;
    engine = BuildEngine(inputs, setup, &s);
    if (engine == nullptr) return 1;
    setup_s.push_back(s);
  }
  const double rss_after_setup_mb = PeakRssMb();
  Runner runner(spec, inputs, *engine);
  if (!runner.Warmup()) {
    std::cerr << "warm-up request failed\n";
    return 1;
  }
  PhaseResult phase = runner.RunPhase(args.seconds, false, 0);
  const double rss_after_phase_mb = PeakRssMb();
  Checks checks;
  checks.AddPhase(phase, runner.CheckProbes(phase));
  const auto [diversity, relevance] = runner.Quality(phase);

  std::vector<double> freshness = phase.freshness_s;
  if (!spec.open_loop) {
    // Closed loops ingest nothing while timed; afterwards one rebuild's
    // worth of fresh records measures how long they take to be servable.
    freshness = runner.FreshnessProbe(
        setup.config.ingest.rebuild_min_records, &checks.publications_ok);
  }

  const std::vector<double> latency = phase.Latencies();
  const uint64_t completed = phase.SuggestAttempted() - phase.SuggestFailed();
  Metrics m;
  m.Add("setup_s", Quantile(setup_s, 0.5), "s");
  m.Add("suggest_p50_us", Quantile(latency, 0.5), "us");
  m.Add("suggest_p99_us", Quantile(latency, 0.99), "us");
  m.Add("throughput_rps", Ratio(static_cast<double>(completed), phase.wall_s),
        "1/s");
  m.Add("freshness_p50_s", Quantile(freshness, 0.5), "s");
  m.Add("freshness_p99_s", Quantile(freshness, 0.99), "s");
  m.Add("peak_rss_mb", PeakRssMb(), "MB");
  m.Add("diversity_at10", diversity, "score");
  m.Add("relevance_at10", relevance, "score");

  const uint64_t attempted = phase.SuggestAttempted() +
                             phase.unrecorded_attempted +
                             phase.ingest_attempted;
  const uint64_t failed = phase.SuggestFailed() + phase.unrecorded_failed +
                          phase.ingest_refused;
  const std::string ledger =
      JsonObject()
          .Raw("stamp", stamp)
          .Raw("checks", checks.Json())
          .Raw("metrics", m.Json())
          .Raw("samples",
               JsonObject()
                   .Int("suggest_latency", static_cast<int64_t>(latency.size()))
                   .Int("freshness", static_cast<int64_t>(freshness.size()))
                   .Int("unpublished", static_cast<int64_t>(phase.unpublished))
                   .Int("publications",
                        static_cast<int64_t>(phase.publications.size()))
                   .Int("setup_repeats", kSetupRepeats)
                   .str())
          .Num("error_ratio", Ratio(static_cast<double>(failed),
                                    static_cast<double>(attempted)))
          .Raw("suggest_quantiles_us",
               JsonObject()
                   .Num("p50", Quantile(latency, 0.5))
                   .Num("p90", Quantile(latency, 0.9))
                   .Num("p95", Quantile(latency, 0.95))
                   .Num("p99", Quantile(latency, 0.99))
                   .Num("p999", Quantile(latency, 0.999))
                   .Num("max", Quantile(latency, 1.0))
                   .str())
          .Num("peak_rss_after_setup_mb", rss_after_setup_mb)
          .Num("peak_rss_after_phase_mb", rss_after_phase_mb)
          .Bool("request_set_exhausted", phase.exhausted)
          .Bool("backlog_growing", phase.backlog_growing)
          .Num("generator_lag_p99_us", Quantile(phase.lag_us, 0.99))
          .str();
  Emit(RunPath(args, "-e2e.json"), ledger, checks, attempted, failed, m);
  return 0;
}

double MeanOf(const std::vector<RedriveCounts>& counts,
              size_t RedriveCounts::*field) {
  if (counts.empty()) return 0.0;
  double sum = 0.0;
  for (const RedriveCounts& c : counts) sum += static_cast<double>(c.*field);
  return sum / static_cast<double>(counts.size());
}

// Traced run: per-layer metrics, reconciliation and span export.
int RunTraced(const Args& args, const WorkloadSpec& spec,
              const EngineSetup& setup, const BenchInputs& inputs,
              const std::string& stamp) {
  double build_s = 0.0;
  std::unique_ptr<pqsda::PqsdaEngine> engine =
      BuildEngine(inputs, setup, &build_s);
  if (engine == nullptr) return 1;
  Runner runner(spec, inputs, *engine);
  if (!runner.Warmup()) {
    std::cerr << "warm-up request failed\n";
    return 1;
  }
  PhaseResult plain = runner.RunPhase(args.seconds, false, 0);
  PhaseResult traced = runner.RunPhase(args.seconds, true, kSpanBudget);
  Checks checks;
  checks.AddPhase(plain, runner.CheckProbes(plain));
  checks.AddPhase(traced, runner.CheckProbes(traced));

  std::shared_ptr<const pqsda::IndexSnapshot> final_snap =
      engine->AcquireIndex();
  const RebuildSplit split =
      TimeRebuildConstituents(*final_snap, setup.config);
  checks.fingerprints_match = split.fingerprints_match;

  std::vector<SpanBuffer> buffers;
  std::vector<RedriveCounts> redrives;
  std::vector<double> queue_depth;
  for (ClientLog& c : traced.clients) {
    buffers.push_back(std::move(c.spans));
    redrives.insert(redrives.end(), c.redrives.begin(), c.redrives.end());
    queue_depth.insert(queue_depth.end(), c.queue_depth.begin(),
                       c.queue_depth.end());
  }
  buffers.push_back(std::move(traced.ingest_spans));
  const LayerTimes layers = ReduceSpans(buffers);
  const std::vector<RequestBreakdown> breakdown = BreakdownRequests(buffers);
  size_t span_count = 0;
  for (const SpanBuffer& b : buffers) span_count += b.spans().size();

  auto p = [&](SpanName n, double q) {
    return Quantile(layers.duration(n), q);
  };
  auto self_p50 = [&](SpanName n) { return Quantile(layers.self(n), 0.5); };
  // End-to-end latency of the same workload untraced and traced.
  const double untraced_p50 = Quantile(plain.Latencies(), 0.5);
  const double traced_p50 = Quantile(traced.Latencies(), 0.5);
  const double suggest_p50 = p(SpanName::kRequest, 0.5);
  std::vector<double> residual_us, layers_us, suggest_redriven;
  for (const RequestBreakdown& b : breakdown) {
    residual_us.push_back(b.suggest_us - b.layers_us);
    layers_us.push_back(b.layers_us);
    suggest_redriven.push_back(b.suggest_us);
  }
  const double residual_p50 = Quantile(residual_us, 0.5);
  const double suggest_redriven_p50 = Quantile(suggest_redriven, 0.5);
  const CounterSnapshot& k = plain.counters;
  const double lookups = static_cast<double>(k.cache_hits + k.cache_misses);
  const double rungs = static_cast<double>(k.rung[0] + k.rung[1] + k.rung[2] +
                                           k.rung[3]);
  uint64_t attempted = 0, failed = 0;
  for (const PhaseResult* ph : {&plain, &traced}) {
    attempted += ph->SuggestAttempted() + ph->unrecorded_attempted +
                 ph->ingest_attempted;
    failed += ph->SuggestFailed() + ph->unrecorded_failed +
              ph->ingest_refused;
  }

  Metrics m;
  m.Add("graph.compact_builder.build_us_p50", p(SpanName::kCompactBuild, 0.5),
        "us");
  m.Add("graph.compact_builder.build_us_p99",
        p(SpanName::kCompactBuild, 0.99), "us");
  m.Add("graph.compact_builder.builds",
        static_cast<double>(layers.duration(SpanName::kCompactBuild).size()),
        "count");
  m.Add("graph.compact_builder.walk_steps",
        MeanOf(redrives, &RedriveCounts::walk_steps), "count");
  m.Add("graph.compact_builder.compact_size",
        MeanOf(redrives, &RedriveCounts::compact_size), "count");
  m.Add("solver.regularization.f0_us_p50", p(SpanName::kF0, 0.5), "us");
  m.Add("solver.regularization.solve_us_p50", p(SpanName::kSolve, 0.5), "us");
  m.Add("solver.regularization.iterations",
        MeanOf(redrives, &RedriveCounts::solve_iterations), "count");
  m.Add("suggest.hitting_time.chain_build_us_p50",
        p(SpanName::kChainBuild, 0.5), "us");
  m.Add("suggest.hitting_time.sweep_us_p50", p(SpanName::kSweep, 0.5), "us");
  m.Add("suggest.hitting_time.sweep_us_p99", p(SpanName::kSweep, 0.99), "us");
  m.Add("suggest.hitting_time.rounds",
        MeanOf(redrives, &RedriveCounts::rounds), "count");
  m.Add("suggest.hitting_time.select_us_p50", p(SpanName::kSelect, 0.5), "us");
  m.Add("suggest.hitting_time.select_self_us_p50",
        self_p50(SpanName::kSelect), "us");
  m.Add("common.thread_pool.queue_depth_p99", Quantile(queue_depth, 0.99),
        "count");
  m.Add("core.personalizer.rerank_us_p50", p(SpanName::kRerank, 0.5), "us");
  m.Add("suggest.cache.lookup_us_p50", p(SpanName::kCacheLookup, 0.5), "us");
  m.Add("suggest.cache.hit_ratio",
        Ratio(static_cast<double>(k.cache_hits), lookups), "ratio");
  m.Add("suggest.cache.lookups", lookups, "count");
  m.Add("suggest.cache.evictions", static_cast<double>(k.cache_evictions),
        "count");
  m.Add("suggest.cache.stale_invalidations",
        static_cast<double>(k.cache_stale), "count");
  m.Add("suggest.cache.mismatch_misses", static_cast<double>(k.cache_mismatch),
        "count");
  m.Add("core.engine.suggest_us_p50", suggest_p50, "us");
  m.Add("core.engine.suggest_us_p99", p(SpanName::kRequest, 0.99), "us");
  m.Add("core.engine.residual_us_p50", residual_p50, "us");
  m.Add("core.engine.residual_pct",
        100.0 * Ratio(residual_p50, suggest_redriven_p50), "%");
  m.Add("core.engine.degraded_ratio",
        Ratio(static_cast<double>(k.rung[1] + k.rung[2] + k.rung[3]), rungs),
        "ratio");
  m.Add("core.engine.expansion_us_mean",
        Ratio(k.expansion_us, static_cast<double>(k.expansion_n)), "us");
  m.Add("core.engine.solve_us_mean",
        Ratio(k.solve_us, static_cast<double>(k.solve_n)), "us");
  m.Add("core.engine.selection_us_mean",
        Ratio(k.selection_us, static_cast<double>(k.selection_n)), "us");
  m.Add("core.index_manager.ingest_us_p99", p(SpanName::kIngest, 0.99), "us");
  m.Add("core.index_manager.refused", static_cast<double>(plain.ingest_refused),
        "count");
  m.Add("core.index_manager.rebuilds", static_cast<double>(k.rebuilds),
        "count");
  m.Add("core.index_manager.build_ms",
        static_cast<double>(final_snap->build_us) * 1e-3, "ms");
  m.Add("log.sessionizer.sessionize_ms", split.sessionize_ms, "ms");
  m.Add("graph.multi_bipartite.build_ms", split.multi_bipartite_ms, "ms");
  m.Add("topic.corpus.build_ms", split.corpus_ms, "ms");
  m.Add("graph.shard_partition.build_ms", split.shard_partition_ms, "ms");
  m.Add("topic.upm.train_ms", split.upm_train_ms, "ms");
  m.Add("bench.generator.lag_p99_us", Quantile(plain.lag_us, 0.99), "us");
  m.Add("bench.generator.backlog_growth", plain.backlog_growth, "count");
  m.Add("bench.trace_overhead_pct",
        100.0 * Ratio(traced_p50 - untraced_p50, untraced_p50), "%");
  m.Add("bench.trace.spans", static_cast<double>(span_count), "count");
  m.Add("error_ratio",
        Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
        "ratio");

  // Reconciliation: the re-driven layers' share of Suggest time, and every
  // self time or residual above kResidualShare of its parent.
  std::vector<std::string> named;
  auto name_if = [&](const std::string& what, double part, double whole,
                     const char* unit = "us") {
    if (whole > 0.0 && part / whole > kResidualShare) {
      char buf[192];
      std::snprintf(buf, sizeof(buf), "%s: %.1f %s of %.1f %s (%.1f%%)",
                    what.c_str(), part, unit, whole, unit,
                    100.0 * part / whole);
      named.emplace_back(buf);
    }
  };
  name_if("core.engine residual (Suggest minus re-driven layers)",
          residual_p50, suggest_redriven_p50);
  name_if("suggest.hitting_time.select self (candidate pool, argmax, sort)",
          self_p50(SpanName::kSelect), p(SpanName::kSelect, 0.5));
  name_if("redrive self (the benchmark's own work between layer calls)",
          self_p50(SpanName::kRedrive), p(SpanName::kRedrive, 0.5));
  name_if("core.index_manager build residual (build minus constituents)",
          static_cast<double>(final_snap->build_us) * 1e-3 - split.total_ms(),
          static_cast<double>(final_snap->build_us) * 1e-3, "ms");
  // Sweep time per request: the rounds of one request summed.
  const double sweeps_per_request =
      p(SpanName::kSweep, 0.5) * MeanOf(redrives, &RedriveCounts::rounds);
  JsonObject layer_self;
  for (size_t n = 0; n < static_cast<size_t>(SpanName::kCount); ++n) {
    const SpanName name = static_cast<SpanName>(n);
    if (layers.self(name).empty()) continue;
    layer_self.Raw(SpanNameString(name),
                   JsonObject()
                       .Int("spans",
                            static_cast<int64_t>(layers.self(name).size()))
                       .Num("self_us_p50", self_p50(name))
                       .Num("duration_us_p50", p(name, 0.5))
                       .str());
  }
  std::string named_json = "[";
  for (size_t i = 0; i < named.size(); ++i) {
    named_json += (i ? "," : "") + JsonString(named[i]);
  }
  named_json += "]";
  const std::string reconciliation =
      JsonObject()
          .Num("suggest_us_p50_all", suggest_p50)
          .Int("redriven_requests", static_cast<int64_t>(breakdown.size()))
          .Num("suggest_us_p50_redriven", suggest_redriven_p50)
          .Num("layers_us_p50_redriven", Quantile(layers_us, 0.5))
          .Num("residual_us_p50", residual_p50)
          .Raw("layers", layer_self.str())
          .Raw("selection",
               JsonObject()
                   .Num("engine_selection_us_mean",
                        Ratio(k.selection_us,
                              static_cast<double>(k.selection_n)))
                   .Num("select_us_p50", p(SpanName::kSelect, 0.5))
                   .Num("chain_build_us_p50", p(SpanName::kChainBuild, 0.5))
                   .Num("sweeps_us_per_request", sweeps_per_request)
                   .Num("select_self_us_p50", self_p50(SpanName::kSelect))
                   .str())
          .Raw("rebuild",
               JsonObject()
                   .Num("build_ms", static_cast<double>(final_snap->build_us) *
                                        1e-3)
                   .Num("constituents_ms", split.total_ms())
                   .Int("generation",
                        static_cast<int64_t>(final_snap->generation))
                   .str())
          .Raw("named_residuals", named_json)
          .str();

  const std::string spans_path = RunPath(args, "-spans.jsonl");
  const bool wrote = WriteTrace(spans_path, buffers);
  const std::string ledger =
      JsonObject()
          .Raw("stamp", stamp)
          .Raw("checks", checks.Json())
          .Raw("metrics", m.Json())
          .Raw("reconciliation", reconciliation)
          .Num("setup_s_single_build", build_s)
          .Bool("traced_phase_hit_span_budget", span_count >= kSpanBudget)
          .Num("traced_phase_s", traced.wall_s)
          .Bool("backlog_growing", plain.backlog_growing)
          .Str("span_export", wrote ? spans_path : "")
          .str();
  Emit(RunPath(args, "-ledger.json"), ledger, checks, attempted, failed, m);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: pqsda_perfbench --workload "
                 "<tail_miss|head_hit|ingest_churn> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out-dir <dir>]\n";
    return 2;
  }
  const WorkloadSpec spec = SpecFor(args.workload);
  const EngineSetup setup = SetupFor(args.workload);
  const BenchInputs inputs = MakeInputs(spec, args.seed);
  const std::string stamp = Stamp(args, spec, setup, inputs);
  std::cout << "stamp " << stamp << "\n";
  return args.trace ? RunTraced(args, spec, setup, inputs, stamp)
                    : RunEndToEnd(args, spec, setup, inputs, stamp);
}
