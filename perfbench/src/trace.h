#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// In-memory spans recorded by the benchmark around its calls into each
// layer's public functions. Each client thread owns one SpanBuffer (no
// locking on the timed path); buffers are merged, reduced to per-layer
// durations and self times, and exported when the run ends.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class SpanName : uint8_t {
  kRequest,       // PqsdaEngine::Suggest
  kRedrive,       // the benchmark's re-drive of one request
  kCompactBuild,  // CompactBuilder::Build
  kF0,            // BuildF0Into
  kSolve,         // SolveRegularization
  kSelect,        // Algorithm 1: chain build, sweeps and argmax
  kChainBuild,    // BuildMergedChain
  kSweep,         // one MergedChainHittingTimeInto round
  kRerank,        // Personalizer::Rerank
  kCacheLookup,   // SuggestionCache::Lookup
  kIngest,        // PqsdaEngine::Ingest
  kCount,
};

const char* SpanNameString(SpanName name);

struct Span {
  SpanName name = SpanName::kRequest;
  /// Index of the parent span in the same buffer, or kNoParent.
  uint32_t parent = 0;
  uint64_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

inline constexpr uint32_t kNoParent = UINT32_MAX;

class SpanBuffer {
 public:
  /// Starts a span now and returns its index in this buffer.
  uint32_t Open(SpanName name, uint64_t request, uint32_t parent);
  /// Ends the span at `index` now.
  void Close(uint32_t index);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Opens a span for the lifetime of the scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer& buffer, SpanName name, uint64_t request,
             uint32_t parent)
      : buffer_(buffer), index_(buffer.Open(name, request, parent)) {}
  ~ScopedSpan() { buffer_.Close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint32_t index() const { return index_; }

 private:
  SpanBuffer& buffer_;
  uint32_t index_;
};

/// Per-layer samples in microseconds: whole-span durations and self times
/// (duration minus the part of the span's interval its children cover).
struct LayerTimes {
  std::array<std::vector<double>, static_cast<size_t>(SpanName::kCount)>
      duration_us, self_us;

  const std::vector<double>& duration(SpanName n) const {
    return duration_us[static_cast<size_t>(n)];
  }
  const std::vector<double>& self(SpanName n) const {
    return self_us[static_cast<size_t>(n)];
  }
};

LayerTimes ReduceSpans(const std::vector<SpanBuffer>& buffers);

/// One re-driven request: its Suggest time and the time of the layer calls
/// its re-drive made (the re-drive span's direct children).
struct RequestBreakdown {
  double suggest_us = 0.0;
  double layers_us = 0.0;
  /// The re-drive ran the pipeline (a miss) rather than the cache lookup.
  bool pipeline = false;
};

std::vector<RequestBreakdown> BreakdownRequests(
    const std::vector<SpanBuffer>& buffers);

/// Writes every span as one JSON line: id, parent (-1 for roots), request,
/// name, start_ns, end_ns. Ids are unique across buffers. Returns false when
/// the file cannot be written.
bool WriteTrace(const std::string& path,
                const std::vector<SpanBuffer>& buffers);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
