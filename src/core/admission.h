#ifndef PQSDA_CORE_ADMISSION_H_
#define PQSDA_CORE_ADMISSION_H_

#include <cstddef>
#include <cstdint>

#include "common/status.h"

namespace pqsda {

/// Load-shedding policy applied before any per-request work.
struct AdmissionOptions {
  /// Shed when the shared pool's queue depth exceeds this. 0 disables the
  /// queue-depth gate.
  size_t max_queue_depth = 0;
  /// Shed when the serving telemetry's windowed request-latency p95
  /// (microseconds, over `p95_window_ns`) exceeds this. 0 disables the
  /// latency gate.
  double max_p95_us = 0.0;
  /// Window the latency gate reads (trailing).
  int64_t p95_window_ns = 10'000'000'000;
};

/// Admission controller in front of the suggestion request path: an
/// overloaded server that answers a few requests well beats one that answers
/// all of them late. Admit() is two relaxed reads on the happy path; a shed
/// request costs a fast kUnavailable instead of a pipeline run.
///
/// Both observed signals (pool queue depth, windowed p95) can be overridden
/// through FaultInjector::SetValue(faults::kQueueDepth / faults::kP95Us), so
/// the shedding decision is testable without actually saturating a pool.
class AdmissionController {
 public:
  explicit AdmissionController(AdmissionOptions options = {});

  /// OK to proceed, or Unavailable when the request should be shed. Records
  /// pqsda.robust.admitted_total / shed_total either way.
  Status Admit() const;

  const AdmissionOptions& options() const { return options_; }

  /// True when at least one gate is configured (a disabled controller's
  /// Admit is a constant OK and callers may skip it entirely).
  bool enabled() const {
    return options_.max_queue_depth > 0 || options_.max_p95_us > 0.0;
  }

 private:
  AdmissionOptions options_;
};

}  // namespace pqsda

#endif  // PQSDA_CORE_ADMISSION_H_
