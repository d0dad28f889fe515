#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

// Measurement helpers shared by the benchmark binary: the clock, order
// statistics, result fingerprints, process memory, host description and a
// minimal JSON writer.

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "suggest/engine.h"

namespace perfbench {

/// Steady-clock nanoseconds; the same clock IndexSnapshot::published_ns uses.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank quantile of `values` (q in [0, 1]); 0 for an empty set.
double Quantile(std::vector<double> values, double q);

/// A uniform random sample of at most `capacity` values (reservoir sampling),
/// so a phase's memory stays fixed however many requests it serves.
class Reservoir {
 public:
  explicit Reservoir(size_t capacity = size_t{1} << 18, uint64_t seed = 1)
      : capacity_(capacity), state_(seed | 1) {
    values_.reserve(capacity_);  // no reallocation on the timed path
  }
  void Add(double value);
  const std::vector<double>& values() const { return values_; }

 private:
  size_t capacity_;
  uint64_t seen_ = 0;
  uint64_t state_;
  std::vector<double> values_;
};

/// FNV-1a over each suggestion's query bytes and score bits, in rank order —
/// the fingerprint the engine writes into its request log.
uint64_t FingerprintOf(const std::vector<pqsda::Suggestion>& list);

/// Peak resident set size of this process (VmHWM), in MB.
double PeakRssMb();

/// CPU model name from /proc/cpuinfo ("unknown" when unreadable).
std::string CpuModel();

/// Append-only JSON object writer: Num/Str/Bool/Raw add one member each.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double value);
  JsonObject& Int(const std::string& key, int64_t value);
  JsonObject& Str(const std::string& key, const std::string& value);
  JsonObject& Bool(const std::string& key, bool value);
  /// `json` must already be a serialized JSON value.
  JsonObject& Raw(const std::string& key, const std::string& json);
  std::string str() const { return "{" + body_ + "}"; }

 private:
  void Key(const std::string& key);
  std::string body_;
};

std::string JsonString(const std::string& s);

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
