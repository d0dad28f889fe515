#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "measure.h"

namespace perfbench {

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kRequest: return "request";
    case SpanName::kRedrive: return "redrive";
    case SpanName::kCompactBuild: return "graph.compact_builder.build";
    case SpanName::kF0: return "solver.regularization.f0";
    case SpanName::kSolve: return "solver.regularization.solve";
    case SpanName::kSelect: return "suggest.hitting_time.select";
    case SpanName::kChainBuild: return "suggest.hitting_time.chain_build";
    case SpanName::kSweep: return "suggest.hitting_time.sweep";
    case SpanName::kRerank: return "core.personalizer.rerank";
    case SpanName::kCacheLookup: return "suggest.cache.lookup";
    case SpanName::kIngest: return "core.index_manager.ingest";
    case SpanName::kCount: break;
  }
  return "unknown";
}

uint32_t SpanBuffer::Open(SpanName name, uint64_t request, uint32_t parent) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.request = request;
  span.start_ns = NowNs();
  spans_.push_back(span);
  return static_cast<uint32_t>(spans_.size() - 1);
}

void SpanBuffer::Close(uint32_t index) { spans_[index].end_ns = NowNs(); }

LayerTimes ReduceSpans(const std::vector<SpanBuffer>& buffers) {
  LayerTimes out;
  for (const SpanBuffer& buffer : buffers) {
    const std::vector<Span>& spans = buffer.spans();
    // Children's intervals per parent, clipped to the parent's interval.
    std::vector<std::vector<std::pair<int64_t, int64_t>>> covered(
        spans.size());
    for (const Span& s : spans) {
      if (s.parent == kNoParent) continue;
      const Span& p = spans[s.parent];
      const int64_t lo = std::max(s.start_ns, p.start_ns);
      const int64_t hi = std::min(s.end_ns, p.end_ns);
      if (hi > lo) covered[s.parent].emplace_back(lo, hi);
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      auto& parts = covered[i];
      std::sort(parts.begin(), parts.end());
      int64_t union_ns = 0;
      int64_t reach = INT64_MIN;
      for (const auto& [lo, hi] : parts) {
        const int64_t from = std::max(lo, reach);
        if (hi > from) union_ns += hi - from;
        reach = std::max(reach, hi);
      }
      const size_t n = static_cast<size_t>(s.name);
      const int64_t duration_ns = s.end_ns - s.start_ns;
      out.duration_us[n].push_back(static_cast<double>(duration_ns) * 1e-3);
      out.self_us[n].push_back(static_cast<double>(duration_ns - union_ns) *
                               1e-3);
    }
  }
  return out;
}

std::vector<RequestBreakdown> BreakdownRequests(
    const std::vector<SpanBuffer>& buffers) {
  std::vector<RequestBreakdown> out;
  for (const SpanBuffer& buffer : buffers) {
    const std::vector<Span>& spans = buffer.spans();
    // Per span: the summed duration of its direct children.
    std::vector<RequestBreakdown> by_span(spans.size());
    std::vector<bool> has_children(spans.size(), false);
    for (const Span& s : spans) {
      if (s.parent == kNoParent) continue;
      by_span[s.parent].layers_us +=
          static_cast<double>(s.end_ns - s.start_ns) * 1e-3;
      has_children[s.parent] = true;
      if (s.name == SpanName::kCompactBuild) by_span[s.parent].pipeline = true;
    }
    for (size_t r = 0; r < spans.size(); ++r) {
      if (spans[r].name != SpanName::kRedrive || !has_children[r] ||
          spans[r].parent == kNoParent) {
        continue;
      }
      const Span& request = spans[spans[r].parent];
      RequestBreakdown b = by_span[r];
      b.suggest_us =
          static_cast<double>(request.end_ns - request.start_ns) * 1e-3;
      out.push_back(b);
    }
  }
  return out;
}

bool WriteTrace(const std::string& path,
                const std::vector<SpanBuffer>& buffers) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  uint64_t base = 0;
  for (const SpanBuffer& buffer : buffers) {
    const std::vector<Span>& spans = buffer.spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const long long parent =
          s.parent == kNoParent ? -1 : static_cast<long long>(base + s.parent);
      std::fprintf(f,
                   "{\"id\":%llu,\"parent\":%lld,\"request\":%llu,"
                   "\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   static_cast<unsigned long long>(base + i), parent,
                   static_cast<unsigned long long>(s.request),
                   SpanNameString(s.name), static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    base += spans.size();
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
