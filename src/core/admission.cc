#include "core/admission.h"

#include <string>

#include "common/fault_injector.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"

namespace pqsda {

AdmissionController::AdmissionController(AdmissionOptions options)
    : options_(options) {}

Status AdmissionController::Admit() const {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  static obs::Counter& admitted_total =
      reg.GetCounter("pqsda.robust.admitted_total");
  static obs::Counter& shed_total = reg.GetCounter("pqsda.robust.shed_total");

  if (!enabled()) {
    admitted_total.Increment();
    return Status::OK();
  }

  FaultInjector& injector = FaultInjector::Default();
  if (options_.max_queue_depth > 0) {
    const int64_t depth = injector.Value(
        faults::kQueueDepth,
        static_cast<int64_t>(ThreadPool::Shared().QueueDepth()));
    if (depth > static_cast<int64_t>(options_.max_queue_depth)) {
      shed_total.Increment();
      return Status::Unavailable("load shed: queue depth " +
                                 std::to_string(depth) + " > " +
                                 std::to_string(options_.max_queue_depth));
    }
  }
  if (options_.max_p95_us > 0.0) {
    // The injector override carries microseconds directly (int64); the live
    // reading merges the trailing window of the serving telemetry.
    const int64_t fake = injector.Value(faults::kP95Us, -1);
    const double p95 =
        fake >= 0 ? static_cast<double>(fake)
                  : obs::ServingTelemetry::Default()
                        .latency()
                        .SnapshotOver(options_.p95_window_ns)
                        .p95;
    if (p95 > options_.max_p95_us) {
      shed_total.Increment();
      return Status::Unavailable(
          "load shed: windowed p95 " + std::to_string(p95) + "us > " +
          std::to_string(options_.max_p95_us) + "us");
    }
  }
  admitted_total.Increment();
  return Status::OK();
}

}  // namespace pqsda
