#include "obs/stage_profiler.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <mutex>

#include "obs/metrics.h"
#include "obs/retire.h"

namespace pqsda::obs {

namespace {

int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t SanitizeEpochNs(int64_t epoch_ns) {
  return epoch_ns > 0 ? epoch_ns : 1;
}

size_t SanitizeEpochs(size_t epochs) { return epochs > 0 ? epochs : 1; }

size_t WindowEpochs(int64_t window_ns, int64_t epoch_ns, size_t ring) {
  if (window_ns <= 0) return 1;
  auto n = static_cast<size_t>((window_ns + epoch_ns - 1) / epoch_ns);
  return std::min(std::max<size_t>(n, 1), ring);
}

constexpr const char* kStageNames[kProfileStageCount] = {
    "request", "cache", "expansion", "solve", "selection", "personalization",
    "drain", "sessionize", "graph_build", "publish", "upm_train"};

constexpr const char* kRungNames[kProfileRungCount] = {
    "rung_full", "rung_truncated_solve", "rung_walk_only", "rung_cache_only",
    "rebuild"};

// Per-request accumulator; armed by BeginRequest, handed out by EndRequest,
// always owned by exactly one thread — plain fields, no synchronization.
// `profile` (the profiler was enabled at BeginRequest) adds the thread-CPU
// clock and the fold.
struct ThreadRequest {
  bool armed = false;
  bool profile = false;
  int64_t wall0 = 0;
  int64_t cpu0 = 0;
  StageCosts stages;
};

thread_local ThreadRequest tls_request;

// Cumulative pqsda.profile.* registry surface, folded once per request.
struct StageCounters {
  Counter* count;
  Counter* wall_us;
  Counter* cpu_us;
  Counter* work;
};

const StageCounters& CountersFor(size_t stage) {
  static const auto* all = [] {
    auto* counters = new StageCounters[kProfileStageCount];
    MetricsRegistry& reg = MetricsRegistry::Default();
    for (size_t s = 0; s < kProfileStageCount; ++s) {
      const std::string prefix = std::string("pqsda.profile.") + kStageNames[s];
      counters[s].count = &reg.GetCounter(prefix + ".count_total");
      counters[s].wall_us = &reg.GetCounter(prefix + ".wall_us_total");
      counters[s].cpu_us = &reg.GetCounter(prefix + ".cpu_us_total");
      counters[s].work = &reg.GetCounter(prefix + ".work_total");
    }
    return counters;
  }();
  return all[stage];
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

void AppendCostFields(std::string& out, const StageCost& c) {
  out += "\"count\":" + std::to_string(c.count);
  out += ",\"wall_us\":" + Num(static_cast<double>(c.wall_ns) * 1e-3);
  out += ",\"cpu_us\":" + Num(static_cast<double>(c.cpu_ns) * 1e-3);
  out += ",\"work\":" + std::to_string(c.work);
}

std::atomic<StageProfiler*> g_default{nullptr};
std::mutex g_install_mu;

}  // namespace

const char* ProfileStageName(ProfileStage stage) {
  return kStageNames[static_cast<size_t>(stage)];
}

int64_t ThreadCpuNowNs() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  struct timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
#else
  return 0;
#endif
}

StageProfiler::StageProfiler(WindowOptions options)
    : options_(std::move(options)) {
  options_.epoch_ns = SanitizeEpochNs(options_.epoch_ns);
  options_.epochs = SanitizeEpochs(options_.epochs);
  slots_ = std::make_unique<Slot[]>(options_.epochs);
}

StageProfiler& StageProfiler::Default() {
  StageProfiler* p = g_default.load(std::memory_order_acquire);
  if (p != nullptr) return *p;
  std::lock_guard<std::mutex> lock(g_install_mu);
  p = g_default.load(std::memory_order_relaxed);
  if (p == nullptr) {
    p = new StageProfiler();
    g_default.store(p, std::memory_order_release);
  }
  return *p;
}

StageProfiler& StageProfiler::Install(WindowOptions options) {
  std::lock_guard<std::mutex> lock(g_install_mu);
  // The previous instance is retired, never freed; see
  // ServingTelemetry::Install.
  auto* p = new StageProfiler(std::move(options));
  RetireForever(g_default.exchange(p, std::memory_order_acq_rel));
  return *p;
}

int64_t StageProfiler::NowNs() const {
  return options_.clock ? options_.clock() : SteadyNowNs();
}

void StageProfiler::BeginRequest() {
  ThreadRequest& req = tls_request;
  req.stages.fill(StageCost{});
  req.profile = enabled();
  req.wall0 = SteadyNowNs();
  req.cpu0 = req.profile ? ThreadCpuNowNs() : 0;
  req.armed = true;
}

void StageProfiler::EndRequest(size_t rung, StageCosts* costs) {
  ThreadRequest& req = tls_request;
  if (!req.armed) return;
  req.armed = false;
  StageCost& request = req.stages[static_cast<size_t>(ProfileStage::kRequest)];
  request.count = 1;
  request.wall_ns = SteadyNowNs() - req.wall0;
  if (req.profile) request.cpu_ns = ThreadCpuNowNs() - req.cpu0;
  if (costs != nullptr) *costs = req.stages;
  if (req.profile) {
    Fold(std::min<size_t>(rung, kProfileRungCount - 1), req.stages);
  }
}

void StageProfiler::AddWork(ProfileStage stage, uint64_t items) {
  ThreadRequest& req = tls_request;
  if (!req.armed) return;
  req.stages[static_cast<size_t>(stage)].work += items;
}

void StageProfiler::Fold(size_t rung, const StageCosts& stages) {
  const int64_t epoch = NowNs() / options_.epoch_ns;
  Slot& slot = slots_[static_cast<size_t>(epoch) % options_.epochs];
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    if (slot.epoch.load(std::memory_order_acquire) != epoch) {
      lock.unlock();
      std::unique_lock<std::shared_mutex> retire(mu_);
      const int64_t stored = slot.epoch.load(std::memory_order_relaxed);
      if (stored > epoch) return;  // stale writer; see WindowedRate::Add
      if (stored < epoch) {
        for (auto& per_rung : slot.cells) {
          for (Cell& cell : per_rung) {
            cell.count.store(0, std::memory_order_relaxed);
            cell.wall_ns.store(0, std::memory_order_relaxed);
            cell.cpu_ns.store(0, std::memory_order_relaxed);
            cell.work.store(0, std::memory_order_relaxed);
          }
        }
        slot.epoch.store(epoch, std::memory_order_release);
      }
      retire.unlock();
      lock.lock();
      // Re-check after re-acquiring shared: another retirement may have
      // rotated the slot past our epoch while we were unlocked.
      if (slot.epoch.load(std::memory_order_acquire) != epoch) return;
    }
    for (size_t s = 0; s < kProfileStageCount; ++s) {
      const StageCost& c = stages[s];
      if (c.count == 0 && c.work == 0) continue;
      Cell& cell = slot.cells[rung][s];
      cell.count.fetch_add(c.count, std::memory_order_relaxed);
      cell.wall_ns.fetch_add(c.wall_ns, std::memory_order_relaxed);
      cell.cpu_ns.fetch_add(c.cpu_ns, std::memory_order_relaxed);
      cell.work.fetch_add(c.work, std::memory_order_relaxed);
    }
  }
  for (size_t s = 0; s < kProfileStageCount; ++s) {
    const StageCost& c = stages[s];
    if (c.count == 0 && c.work == 0) continue;
    const StageCounters& counters = CountersFor(s);
    counters.count->Increment(c.count);
    counters.wall_us->Increment(
        static_cast<uint64_t>(std::max<int64_t>(c.wall_ns, 0) / 1000));
    counters.cpu_us->Increment(
        static_cast<uint64_t>(std::max<int64_t>(c.cpu_ns, 0) / 1000));
    counters.work->Increment(c.work);
  }
}

StageProfiler::Snapshot StageProfiler::SnapshotOver(int64_t window_ns) const {
  const int64_t epoch = NowNs() / options_.epoch_ns;
  const size_t span =
      WindowEpochs(window_ns, options_.epoch_ns, options_.epochs);
  const int64_t oldest = epoch - static_cast<int64_t>(span) + 1;

  Snapshot snap;
  std::shared_lock<std::shared_mutex> lock(mu_);
  for (size_t i = 0; i < options_.epochs; ++i) {
    const Slot& slot = slots_[i];
    const int64_t e = slot.epoch.load(std::memory_order_acquire);
    if (e < oldest || e > epoch) continue;
    for (size_t r = 0; r < kProfileRungCount; ++r) {
      for (size_t s = 0; s < kProfileStageCount; ++s) {
        const Cell& cell = slot.cells[r][s];
        StageCost& dst = snap.per_rung[r][s];
        dst.count += cell.count.load(std::memory_order_relaxed);
        dst.wall_ns += cell.wall_ns.load(std::memory_order_relaxed);
        dst.cpu_ns += cell.cpu_ns.load(std::memory_order_relaxed);
        dst.work += cell.work.load(std::memory_order_relaxed);
      }
    }
  }
  for (size_t r = 0; r < kProfileRungCount; ++r) {
    for (size_t s = 0; s < kProfileStageCount; ++s) {
      const StageCost& c = snap.per_rung[r][s];
      snap.total[s].count += c.count;
      snap.total[s].wall_ns += c.wall_ns;
      snap.total[s].cpu_ns += c.cpu_ns;
      snap.total[s].work += c.work;
    }
  }
  return snap;
}

std::string StageProfiler::ProfilezJson(int64_t window_ns) const {
  const Snapshot snap = SnapshotOver(window_ns);
  const size_t request_idx = static_cast<size_t>(ProfileStage::kRequest);

  std::string out = "{\"window_ns\":" + std::to_string(window_ns);
  out += ",\"enabled\":";
  out += enabled() ? "true" : "false";
  out += ",\"root\":{\"name\":\"suggest\",";
  AppendCostFields(out, snap.total[request_idx]);
  out += ",\"children\":[";
  bool first_rung = true;
  for (size_t r = 0; r < kProfileRungCount; ++r) {
    const StageCost& request = snap.per_rung[r][request_idx];
    if (request.count == 0) continue;
    if (!first_rung) out += ",";
    first_rung = false;
    out += "{\"name\":\"" + std::string(kRungNames[r]) + "\",";
    AppendCostFields(out, request);
    out += ",\"children\":[";
    int64_t attributed_ns = 0;
    bool first_stage = true;
    for (size_t s = 0; s < kProfileStageCount; ++s) {
      if (s == request_idx) continue;
      const StageCost& stage = snap.per_rung[r][s];
      if (stage.count == 0 && stage.work == 0) continue;
      attributed_ns += stage.wall_ns;
      if (!first_stage) out += ",";
      first_stage = false;
      out += "{\"name\":\"" + std::string(kStageNames[s]) + "\",";
      AppendCostFields(out, stage);
      out += "}";
    }
    // Flame-graph "self" leaf: request wall outside every stage scope
    // (admission bookkeeping, cache fill, telemetry recording).
    StageCost self;
    self.count = request.count;
    self.wall_ns = std::max<int64_t>(request.wall_ns - attributed_ns, 0);
    if (!first_stage) out += ",";
    out += "{\"name\":\"self\",";
    AppendCostFields(out, self);
    out += "}]}";
  }
  out += "]}}";
  return out;
}

StageScope::StageScope(ProfileStage stage, Histogram* histogram)
    : stage_(stage), histogram_(histogram), armed_(tls_request.armed) {
  if (!armed_ && histogram_ == nullptr) return;
  wall0_ = SteadyNowNs();
  if (armed_ && tls_request.profile) cpu0_ = ThreadCpuNowNs();
}

StageScope::~StageScope() {
  if (!armed_ && histogram_ == nullptr) return;
  const int64_t wall_ns = SteadyNowNs() - wall0_;
  if (histogram_ != nullptr) {
    histogram_->Observe(static_cast<double>(wall_ns) * 1e-3);
  }
  ThreadRequest& req = tls_request;
  // The request may have been disarmed mid-scope (it cannot be in the
  // current pipeline, but the scope must stay safe if stages ever outlive
  // EndRequest).
  if (!armed_ || !req.armed) return;
  StageCost& c = req.stages[static_cast<size_t>(stage_)];
  c.count += 1;
  c.wall_ns += wall_ns;
  if (req.profile) c.cpu_ns += ThreadCpuNowNs() - cpu0_;
}

}  // namespace pqsda::obs
