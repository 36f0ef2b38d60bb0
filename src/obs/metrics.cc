#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <limits>

namespace ube::obs {

namespace {

// MetricId layout: kind in the top bits, slot (index within the kind's
// definition table) in the rest.
constexpr int kKindShift = 28;
constexpr MetricsRegistry::MetricId kSlotMask = (1 << kKindShift) - 1;
enum MetricKind : int32_t { kCounterKind = 0, kGaugeKind = 1, kHistKind = 2 };

MetricsRegistry::MetricId PackId(MetricKind kind, size_t slot) {
  return static_cast<MetricsRegistry::MetricId>(
      (static_cast<int32_t>(kind) << kKindShift) |
      static_cast<int32_t>(slot));
}

std::atomic<uint64_t> g_next_epoch{1};

// One thread-local sink pointer per live registry this thread has touched,
// keyed by the registry's process-unique epoch (never by pointer: a
// destroyed registry's address can be reused, its epoch cannot).
struct TlsEntry {
  uint64_t epoch = 0;
  void* sink = nullptr;
};
thread_local std::vector<TlsEntry> t_sinks;

std::string FormatCount(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.1f", value);
  return buffer;
}

}  // namespace

// A histogram's per-thread accumulation state. Single writer (the owning
// thread); atomics make the concurrent Snapshot() reads race-free. The
// bucket bounds are copied in at sink creation (under the registry mutex)
// so the record path never touches shared definition storage.
struct MetricsRegistry::HistSlot {
  explicit HistSlot(std::vector<int64_t> bucket_bounds)
      : bounds(std::move(bucket_bounds)), buckets(bounds.size() + 1) {}
  const std::vector<int64_t> bounds;
  std::vector<std::atomic<int64_t>> buckets;
  std::atomic<int64_t> count{0};
  std::atomic<int64_t> sum{0};
  std::atomic<int64_t> min{std::numeric_limits<int64_t>::max()};
  std::atomic<int64_t> max{std::numeric_limits<int64_t>::min()};
};

struct MetricsRegistry::Sink {
  Sink(size_t counter_slots, const std::vector<HistDef>& defs)
      : counters(counter_slots) {
    hists.reserve(defs.size());
    for (const HistDef& def : defs) {
      hists.push_back(std::make_unique<HistSlot>(def.bounds));
    }
  }
  std::vector<std::atomic<int64_t>> counters;
  std::vector<std::unique_ptr<HistSlot>> hists;
};

MetricsRegistry::MetricsRegistry()
    : epoch_(g_next_epoch.fetch_add(1, std::memory_order_relaxed)) {}

MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry::MetricId MetricsRegistry::Counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < counter_names_.size(); ++i) {
    if (counter_names_[i] == name) return PackId(kCounterKind, i);
  }
  counter_names_.emplace_back(name);
  return PackId(kCounterKind, counter_names_.size() - 1);
}

MetricsRegistry::MetricId MetricsRegistry::Gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < gauges_.size(); ++i) {
    if (gauges_[i].name == name) return PackId(kGaugeKind, i);
  }
  gauges_.push_back(GaugeCell{std::string(name), 0.0});
  return PackId(kGaugeKind, gauges_.size() - 1);
}

MetricsRegistry::MetricId MetricsRegistry::Histogram(
    std::string_view name, std::vector<int64_t> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < hist_defs_.size(); ++i) {
    if (hist_defs_[i].name == name) return PackId(kHistKind, i);
  }
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
  hist_defs_.push_back(HistDef{std::string(name), std::move(bounds)});
  return PackId(kHistKind, hist_defs_.size() - 1);
}

MetricsRegistry::Sink* MetricsRegistry::NewSinkLocked() {
  sinks_.push_back(
      std::make_unique<Sink>(counter_names_.size(), hist_defs_));
  return sinks_.back().get();
}

MetricsRegistry::Sink* MetricsRegistry::SinkFor(size_t min_counters,
                                                size_t min_hists) {
  TlsEntry* mine = nullptr;
  for (TlsEntry& entry : t_sinks) {
    if (entry.epoch == epoch_) {
      mine = &entry;
      break;
    }
  }
  if (mine != nullptr) {
    Sink* sink = static_cast<Sink*>(mine->sink);
    if (sink->counters.size() >= min_counters &&
        sink->hists.size() >= min_hists) {
      return sink;
    }
  }
  // First touch from this thread, or a metric registered after this
  // thread's sink was sized: retire the old sink (its totals still merge)
  // and start a fresh one sized to the current definitions.
  std::lock_guard<std::mutex> lock(mu_);
  Sink* sink = NewSinkLocked();
  if (mine != nullptr) {
    mine->sink = sink;
  } else {
    t_sinks.push_back(TlsEntry{epoch_, sink});
  }
  return sink;
}

void MetricsRegistry::Add(MetricId id, int64_t delta) {
  if (id < 0) return;
  const auto slot = static_cast<size_t>(id & kSlotMask);
  Sink* sink = SinkFor(slot + 1, 0);
  sink->counters[slot].fetch_add(delta, std::memory_order_relaxed);
}

void MetricsRegistry::Set(MetricId id, double value) {
  if (id < 0) return;
  const auto slot = static_cast<size_t>(id & kSlotMask);
  std::lock_guard<std::mutex> lock(mu_);
  gauges_[slot].value = value;
}

void MetricsRegistry::Observe(MetricId id, int64_t value) {
  if (id < 0) return;
  const auto slot = static_cast<size_t>(id & kSlotMask);
  Sink* sink = SinkFor(0, slot + 1);
  HistSlot& hist = *sink->hists[slot];
  const std::vector<int64_t>& bounds = hist.bounds;
  size_t bucket = static_cast<size_t>(
      std::lower_bound(bounds.begin(), bounds.end(), value) - bounds.begin());
  hist.buckets[bucket].fetch_add(1, std::memory_order_relaxed);
  hist.count.fetch_add(1, std::memory_order_relaxed);
  hist.sum.fetch_add(value, std::memory_order_relaxed);
  // Single writer per sink: a plain load/compare/store is race-free.
  if (value < hist.min.load(std::memory_order_relaxed)) {
    hist.min.store(value, std::memory_order_relaxed);
  }
  if (value > hist.max.load(std::memory_order_relaxed)) {
    hist.max.store(value, std::memory_order_relaxed);
  }
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot out;
  std::lock_guard<std::mutex> lock(mu_);

  std::vector<int64_t> counter_totals(counter_names_.size(), 0);
  std::vector<HistogramSnapshot> hists(hist_defs_.size());
  for (size_t h = 0; h < hist_defs_.size(); ++h) {
    hists[h].name = hist_defs_[h].name;
    hists[h].bounds = hist_defs_[h].bounds;
    hists[h].counts.assign(hist_defs_[h].bounds.size() + 1, 0);
    hists[h].min = std::numeric_limits<int64_t>::max();
    hists[h].max = std::numeric_limits<int64_t>::min();
  }
  for (const std::unique_ptr<Sink>& sink : sinks_) {
    for (size_t c = 0; c < sink->counters.size(); ++c) {
      counter_totals[c] +=
          sink->counters[c].load(std::memory_order_relaxed);
    }
    for (size_t h = 0; h < sink->hists.size(); ++h) {
      const HistSlot& slot = *sink->hists[h];
      HistogramSnapshot& merged = hists[h];
      for (size_t b = 0; b < slot.buckets.size(); ++b) {
        merged.counts[b] += slot.buckets[b].load(std::memory_order_relaxed);
      }
      merged.count += slot.count.load(std::memory_order_relaxed);
      merged.sum += slot.sum.load(std::memory_order_relaxed);
      merged.min =
          std::min(merged.min, slot.min.load(std::memory_order_relaxed));
      merged.max =
          std::max(merged.max, slot.max.load(std::memory_order_relaxed));
    }
  }
  for (size_t c = 0; c < counter_names_.size(); ++c) {
    out.counters.push_back(CounterSnapshot{counter_names_[c],
                                           counter_totals[c]});
  }
  for (const GaugeCell& gauge : gauges_) {
    out.gauges.push_back(GaugeSnapshot{gauge.name, gauge.value});
  }
  for (HistogramSnapshot& hist : hists) {
    if (hist.count == 0) {
      hist.min = 0;
      hist.max = 0;
    }
    out.histograms.push_back(std::move(hist));
  }
  auto by_name = [](const auto& a, const auto& b) { return a.name < b.name; };
  std::sort(out.counters.begin(), out.counters.end(), by_name);
  std::sort(out.gauges.begin(), out.gauges.end(), by_name);
  std::sort(out.histograms.begin(), out.histograms.end(), by_name);
  return out;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::unique_ptr<Sink>& sink : sinks_) {
    for (std::atomic<int64_t>& counter : sink->counters) {
      counter.store(0, std::memory_order_relaxed);
    }
    for (const std::unique_ptr<HistSlot>& hist : sink->hists) {
      for (std::atomic<int64_t>& bucket : hist->buckets) {
        bucket.store(0, std::memory_order_relaxed);
      }
      hist->count.store(0, std::memory_order_relaxed);
      hist->sum.store(0, std::memory_order_relaxed);
      hist->min.store(std::numeric_limits<int64_t>::max(),
                      std::memory_order_relaxed);
      hist->max.store(std::numeric_limits<int64_t>::min(),
                      std::memory_order_relaxed);
    }
  }
  for (GaugeCell& gauge : gauges_) gauge.value = 0.0;
}

const CounterSnapshot* MetricsSnapshot::FindCounter(
    std::string_view name) const {
  for (const CounterSnapshot& c : counters) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

const GaugeSnapshot* MetricsSnapshot::FindGauge(std::string_view name) const {
  for (const GaugeSnapshot& g : gauges) {
    if (g.name == name) return &g;
  }
  return nullptr;
}

const HistogramSnapshot* MetricsSnapshot::FindHistogram(
    std::string_view name) const {
  for (const HistogramSnapshot& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

std::string FormatMetricsReport(const MetricsSnapshot& snapshot) {
  std::string out;
  if (!snapshot.counters.empty()) {
    out += "counters:\n";
    for (const CounterSnapshot& c : snapshot.counters) {
      out += "  " + c.name + " = " + std::to_string(c.value) + "\n";
    }
  }
  if (!snapshot.gauges.empty()) {
    out += "gauges:\n";
    for (const GaugeSnapshot& g : snapshot.gauges) {
      out += "  " + g.name + " = " + FormatCount(g.value) + "\n";
    }
  }
  if (!snapshot.histograms.empty()) {
    out += "histograms:\n";
    for (const HistogramSnapshot& h : snapshot.histograms) {
      out += "  " + h.name + ": count=" + std::to_string(h.count) +
             " sum=" + std::to_string(h.sum) +
             " min=" + std::to_string(h.min) +
             " max=" + std::to_string(h.max) +
             " mean=" + FormatCount(h.Mean()) + "\n";
      if (h.count > 0) {
        out += "    ";
        for (size_t b = 0; b < h.counts.size(); ++b) {
          if (b > 0) out += " ";
          out += (b < h.bounds.size()
                      ? "[<=" + std::to_string(h.bounds[b]) + "]="
                      : "[inf]=") +
                 std::to_string(h.counts[b]);
        }
        out += "\n";
      }
    }
  }
  if (out.empty()) out = "(no metrics recorded)\n";
  return out;
}

}  // namespace ube::obs
