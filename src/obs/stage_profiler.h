#ifndef PQSDA_OBS_STAGE_PROFILER_H_
#define PQSDA_OBS_STAGE_PROFILER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>

#include "obs/sliding_window.h"

namespace pqsda::obs {

class Histogram;

/// The attribution buckets of the serving pipeline. kRequest is the
/// pseudo-stage covering the whole admitted request (everything between
/// BeginRequest and EndRequest); the others are the StageScope boundaries:
///   kCache           - suggestion-cache lookup
///   kExpansion       - §IV-A compact build
///   kSolve           - Eq. 15 regularization solve
///   kSelection       - Algorithm 1 rounds, or the walk-only scatter on rung 2
///   kPersonalization - §V-B UPM rerank
///
/// The rebuild/ingest path shares the same machinery under its own lane
/// (kProfileRebuildLane): IndexManager brackets each rebuild with
/// BeginRequest/EndRequest and marks its phases with the kDrain..kUpmTrain
/// stages, so /profilez shows where rebuild time goes alongside serving.
enum class ProfileStage : size_t {
  kRequest = 0,
  kCache,
  kExpansion,
  kSolve,
  kSelection,
  kPersonalization,
  // Rebuild-path stages (only folded into the rebuild lane).
  kDrain,      // delta-stream drain + record concatenation
  kSessionize, // record -> session grouping
  kGraphBuild, // bipartite representation + corpus
  kPublish,    // snapshot swap + gauge updates
  kUpmTrain,   // UPM Gibbs training (personalized builds only)
};

inline constexpr size_t kProfileStageCount = 11;
/// Lanes 0..3 are DegradationRung values; lane 4 is the rebuild path.
inline constexpr size_t kProfileRungCount = 5;
inline constexpr size_t kProfileRebuildLane = 4;

const char* ProfileStageName(ProfileStage stage);

/// Aggregate cost of one stage: how many times it ran, wall time, thread
/// CPU time, and a stage-defined work counter (walk steps for expansion,
/// solver iterations for the solve, candidates scored for selection, UPM
/// words scored for personalization).
struct StageCost {
  uint64_t count = 0;
  int64_t wall_ns = 0;
  int64_t cpu_ns = 0;
  uint64_t work = 0;
};

/// One request's costs, indexed by ProfileStage; [kRequest] is the whole
/// bracket.
using StageCosts = std::array<StageCost, kProfileStageCount>;

/// CLOCK_THREAD_CPUTIME_ID in nanoseconds (0 where unavailable). CPU time
/// is attributed to the thread that owns the stage scope; cycles a pool
/// worker spends help-executing another request's parallel chunks land on
/// the helper's current scope — wall time is the authoritative per-stage
/// total, CPU time shows on-thread compute vs. wait.
int64_t ThreadCpuNowNs();

/// Windowed per-stage, per-degradation-rung cost attribution with
/// near-zero request-path overhead: stage scopes accumulate into a plain
/// thread-local struct (no locks, no atomics), and EndRequest hands the
/// finished request's costs to the caller's record and folds them once into
/// a ring of epochs (same shared-lock + relaxed-atomic discipline as
/// SlidingWindowHistogram) plus the cumulative pqsda.profile.* counters.
///
/// The engine brackets every admitted request with BeginRequest/EndRequest;
/// the pipeline stages mark themselves with StageScope/AddWork and cost
/// nothing outside a bracketed request.
class StageProfiler {
 public:
  explicit StageProfiler(WindowOptions options = {});

  /// The instance the request path folds into. Created on first use with
  /// default window options, enabled.
  static StageProfiler& Default();
  /// Replaces Default() (the predecessor leaks deliberately — request
  /// threads may hold references across the swap).
  static StageProfiler& Install(WindowOptions options);

  /// Toggles attribution. A disabled profiler still times each bracket's
  /// stages on the wall clock (the request record needs them) but reads no
  /// thread-CPU clock and folds nothing into the window ring or counters.
  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Arms the calling thread's accumulator for one request. A request is
  /// profiled entirely on the thread that entered it.
  void BeginRequest();
  /// Ends the bracket: copies the accumulated costs into `costs` when
  /// non-null, folds them into the window ring under `rung` (DegradationRung
  /// numeric value, or kProfileRebuildLane) when the profiler was enabled at
  /// BeginRequest, and disarms the thread. No-op when nothing is armed.
  void EndRequest(size_t rung, StageCosts* costs = nullptr);

  /// Adds stage-defined work units to the current thread's in-flight
  /// request; no-op outside BeginRequest/EndRequest.
  static void AddWork(ProfileStage stage, uint64_t items);

  struct Snapshot {
    StageCost total[kProfileStageCount];
    StageCost per_rung[kProfileRungCount][kProfileStageCount];
  };
  /// Merged per-stage costs over the trailing window (clamped to the
  /// ring's coverage, current epoch included).
  Snapshot SnapshotOver(int64_t window_ns) const;

  /// Flame-graph-ready JSON tree for /profilez: root "suggest" node, one
  /// child per rung that served traffic, stage leaves underneath plus a
  /// "self" leaf for request time outside any stage scope.
  std::string ProfilezJson(int64_t window_ns) const;

  const WindowOptions& options() const { return options_; }

 private:
  struct Cell {
    std::atomic<uint64_t> count{0};
    std::atomic<int64_t> wall_ns{0};
    std::atomic<int64_t> cpu_ns{0};
    std::atomic<uint64_t> work{0};
  };
  struct Slot {
    std::atomic<int64_t> epoch{-1};
    Cell cells[kProfileRungCount][kProfileStageCount];
  };

  int64_t NowNs() const;
  void Fold(size_t rung, const StageCosts& stages);

  WindowOptions options_;
  std::atomic<bool> enabled_{true};
  /// Exclusive only while a slot is retired into a new epoch; Fold and
  /// SnapshotOver hold it shared.
  mutable std::shared_mutex mu_;
  std::unique_ptr<Slot[]> slots_;
};

/// RAII stage bracket: measures the enclosed block's wall time (plus thread
/// CPU time while profiling) into the current request's thread-local
/// accumulator. `histogram`, when set, also receives the wall time in
/// microseconds, inside a bracket or not — the one clock feeds both sinks.
/// Free when no request is armed and no histogram is attached.
class StageScope {
 public:
  explicit StageScope(ProfileStage stage, Histogram* histogram = nullptr);
  ~StageScope();

  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;

 private:
  ProfileStage stage_;
  Histogram* histogram_;
  bool armed_;
  int64_t wall0_ = 0;
  int64_t cpu0_ = 0;
};

}  // namespace pqsda::obs

#endif  // PQSDA_OBS_STAGE_PROFILER_H_
