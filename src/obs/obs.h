#ifndef UBE_OBS_OBS_H_
#define UBE_OBS_OBS_H_

#include <string_view>

#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

namespace ube::obs {

/// One observability scope: a metrics registry plus a tracer, handed by
/// pointer to whatever should be instrumented (SolverOptions::obs,
/// ProberOptions::obs, Engine::Options::obs). Null pointer = observability
/// off; every instrumentation site guards on that, so the disabled cost is
/// one pointer test.
///
/// Instrumentation NEVER feeds back into the computation: with a fixed
/// seed, results (Solution, Acquisition, ...) are bit-identical with or
/// without a context attached, and the integer metrics totals are
/// themselves identical for any thread count (see MetricsRegistry).
class ObsContext {
 public:
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }

 private:
  MetricsRegistry metrics_;
  Tracer tracer_;
};

/// Opens a span on `obs`'s tracer, or a no-op span when `obs` is null.
inline Tracer::Span SpanIf(ObsContext* obs, std::string_view name) {
  return obs != nullptr ? obs->tracer().StartSpan(name) : Tracer::Span();
}

}  // namespace ube::obs

#endif  // UBE_OBS_OBS_H_
