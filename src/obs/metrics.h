#ifndef UBE_OBS_METRICS_H_
#define UBE_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace ube::obs {

/// Point-in-time value of one counter.
struct CounterSnapshot {
  std::string name;
  int64_t value = 0;
};

/// Point-in-time value of one gauge.
struct GaugeSnapshot {
  std::string name;
  double value = 0.0;
};

/// Point-in-time state of one fixed-bucket histogram. `bounds` are the
/// inclusive upper edges of the first bounds.size() buckets; the last bucket
/// (counts.back()) is the overflow bucket, so counts.size() == bounds.size()
/// + 1. Values are integers (counts, sizes, microseconds) so merging sinks
/// is exact and deterministic — no float summation order to worry about.
struct HistogramSnapshot {
  std::string name;
  std::vector<int64_t> bounds;
  std::vector<int64_t> counts;
  int64_t count = 0;
  int64_t sum = 0;
  int64_t min = 0;  ///< meaningful only when count > 0
  int64_t max = 0;  ///< meaningful only when count > 0

  double Mean() const {
    return count > 0 ? static_cast<double>(sum) / static_cast<double>(count)
                     : 0.0;
  }
};

/// Everything a registry held at one instant, each section sorted by metric
/// name so two snapshots of the same totals compare equal regardless of
/// registration interleaving.
struct MetricsSnapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;

  /// Null when no such metric exists.
  const CounterSnapshot* FindCounter(std::string_view name) const;
  const GaugeSnapshot* FindGauge(std::string_view name) const;
  const HistogramSnapshot* FindHistogram(std::string_view name) const;
};

/// Multi-line human-readable rendering of a snapshot (the text half of the
/// observability output; the tracer owns the chrome-trace half).
std::string FormatMetricsReport(const MetricsSnapshot& snapshot);

/// Thread-safe metrics registry: counters, gauges and fixed-bucket
/// histograms.
///
/// Hot-path writes (Add / Observe) go to a lock-free per-thread sink: each
/// thread keeps a thread-local pointer to its own sink (plain relaxed
/// atomics that only the owning thread writes), so concurrent recording
/// never contends on a lock. A sink is sized to the metrics registered at
/// its creation; when a thread touches a metric registered later, it
/// retires its sink (counts are additive, so a retired sink merges exactly
/// like a live one) and starts a fresh, larger one. Snapshot() merges every
/// sink under the registration mutex; because counters and histogram
/// values are integers, the merged totals are exact and identical for any
/// number of recording threads — the determinism the solver replay
/// contract needs.
///
/// Gauges are last-write-wins process-level values (registry-resident,
/// mutex-guarded); they are for low-rate state, not hot paths.
class MetricsRegistry {
 public:
  /// Handle for one registered metric; cheap to copy, valid for the
  /// registry's lifetime. kInvalidMetric is accepted (and ignored) by every
  /// record call.
  using MetricId = int32_t;
  static constexpr MetricId kInvalidMetric = -1;

  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registration is idempotent: the same name returns the same id. A name
  /// may not be reused across metric kinds. Re-registering a histogram
  /// keeps the original bucket bounds.
  MetricId Counter(std::string_view name);
  MetricId Gauge(std::string_view name);
  /// `bounds` are inclusive upper bucket edges, strictly ascending; an
  /// implicit overflow bucket is appended.
  MetricId Histogram(std::string_view name, std::vector<int64_t> bounds);

  void Add(MetricId id, int64_t delta = 1);
  void Set(MetricId id, double value);
  void Observe(MetricId id, int64_t value);

  /// Merges every per-thread sink (exact for the integer-valued metrics).
  /// Safe to call concurrently with recording; in-flight updates on other
  /// threads may or may not be included.
  MetricsSnapshot Snapshot() const;

  /// Zeroes every metric in place (sinks stay alive, so other threads'
  /// cached sink pointers remain valid). Not synchronized with concurrent
  /// recording: call it between runs, like CandidateEvaluator::BeginRun.
  void Reset();

 private:
  struct HistSlot;
  struct Sink;
  struct HistDef {
    std::string name;
    std::vector<int64_t> bounds;
  };
  struct GaugeCell {
    std::string name;
    double value = 0.0;
  };

  /// The calling thread's sink, with room for metric slot `counter_slots` /
  /// `hist_slots`; creates (and registers) a larger one when needed.
  Sink* SinkFor(size_t counter_slots, size_t hist_slots);
  Sink* NewSinkLocked();

  const uint64_t epoch_;  ///< process-unique id for thread-local keying

  mutable std::mutex mu_;  // guards defs, gauges, and the sink list
  std::vector<std::string> counter_names_;
  std::vector<HistDef> hist_defs_;
  std::vector<GaugeCell> gauges_;
  std::vector<std::unique_ptr<Sink>> sinks_;
};

}  // namespace ube::obs

#endif  // UBE_OBS_METRICS_H_
