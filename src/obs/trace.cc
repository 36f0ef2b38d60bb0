#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>

namespace ube::obs {

namespace {

// Small dense thread ids for the "tid" field: assigned once per OS thread,
// stable across tracers so one process's traces line up.
int CurrentTid() {
  static std::atomic<int> next{0};
  thread_local int tid = next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

void AppendJsonEscaped(std::string_view text, std::string* out) {
  for (char c : text) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          *out += buffer;
        } else {
          *out += c;
        }
    }
  }
}

std::string FormatFixed(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.3f", value);
  return buffer;
}

}  // namespace

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

double Tracer::NowMicros() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

Tracer::Span::Span(Tracer* tracer, std::string_view name)
    : tracer_(tracer), name_(name), start_us_(tracer->NowMicros()) {}

Tracer::Span& Tracer::Span::operator=(Span&& other) noexcept {
  if (this != &other) {
    End();
    tracer_ = other.tracer_;
    name_ = std::move(other.name_);
    start_us_ = other.start_us_;
    other.tracer_ = nullptr;
  }
  return *this;
}

void Tracer::Span::End() {
  if (tracer_ == nullptr) return;
  tracer_->AddEvent(name_, start_us_, tracer_->NowMicros() - start_us_);
  tracer_ = nullptr;
}

void Tracer::AddEvent(std::string_view name, double start_us,
                      double duration_us) {
  Event event;
  event.name = name;
  event.start_us = start_us;
  event.duration_us = duration_us;
  event.tid = CurrentTid();
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(event));
}

int64_t Tracer::num_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(events_.size());
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
}

std::string Tracer::ToChromeTraceJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (size_t i = 0; i < events_.size(); ++i) {
    const Event& event = events_[i];
    if (i > 0) out += ",";
    out += "\n{\"name\":\"";
    AppendJsonEscaped(event.name, &out);
    out += "\",\"cat\":\"ube\",\"ph\":\"X\",\"pid\":0,\"tid\":" +
           std::to_string(event.tid) + ",\"ts\":" +
           FormatFixed(event.start_us) + ",\"dur\":" +
           FormatFixed(event.duration_us) + "}";
  }
  out += "\n]}\n";
  return out;
}

std::string Tracer::Summary() const {
  struct Agg {
    int64_t count = 0;
    double total_us = 0.0;
    double max_us = 0.0;
  };
  std::map<std::string, Agg> by_name;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Event& event : events_) {
      Agg& agg = by_name[event.name];
      ++agg.count;
      agg.total_us += event.duration_us;
      agg.max_us = std::max(agg.max_us, event.duration_us);
    }
  }
  if (by_name.empty()) return "(no spans recorded)\n";
  std::string out;
  for (const auto& [name, agg] : by_name) {
    out += "  " + name + ": count=" + std::to_string(agg.count) +
           " total=" + FormatFixed(agg.total_us / 1e3) + "ms mean=" +
           FormatFixed(agg.total_us / 1e3 / static_cast<double>(agg.count)) +
           "ms max=" + FormatFixed(agg.max_us / 1e3) + "ms\n";
  }
  return out;
}

}  // namespace ube::obs
