#ifndef UBE_OBS_TRACE_H_
#define UBE_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace ube::obs {

/// Scoped-span tracer. Spans are RAII objects (Tracer::Span) that record a
/// complete event when they end; the buffer exports as Chrome trace-event
/// JSON (loadable in chrome://tracing or https://ui.perfetto.dev) and as a
/// compact per-name text summary.
///
/// A default-constructed Span (what SpanIf in obs.h returns for a null
/// context) is a no-op that never reads the clock. Recording is
/// thread-safe; span timestamps are wall-clock, so the JSON is a profile,
/// never part of any determinism contract.
class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// An open span. Ends (and records its event) on destruction or End(),
  /// whichever comes first. Movable, not copyable; a default-constructed
  /// Span is a no-op.
  class Span {
   public:
    Span() = default;
    Span(Span&& other) noexcept { *this = std::move(other); }
    Span& operator=(Span&& other) noexcept;
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span() { End(); }

    /// Ends the span now (idempotent).
    void End();

   private:
    friend class Tracer;
    Span(Tracer* tracer, std::string_view name);

    Tracer* tracer_ = nullptr;
    std::string name_;
    double start_us_ = 0.0;
  };

  Span StartSpan(std::string_view name) { return Span(this, name); }

  /// Records a complete event directly (for callers that measured the
  /// interval themselves).
  void AddEvent(std::string_view name, double start_us, double duration_us);

  /// Microseconds since the tracer was constructed.
  double NowMicros() const;

  int64_t num_events() const;
  void Clear();

  /// Chrome trace-event JSON: {"traceEvents": [...], ...}.
  std::string ToChromeTraceJson() const;

  /// Per-span-name aggregate (count, total/mean/max ms), sorted by name.
  std::string Summary() const;

 private:
  struct Event {
    std::string name;
    double start_us = 0.0;
    double duration_us = 0.0;
    int tid = 0;
  };

  const std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Event> events_;
};

}  // namespace ube::obs

#endif  // UBE_OBS_TRACE_H_
