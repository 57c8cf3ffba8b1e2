// In-memory span log of the traced run, written out as Chrome trace-event
// JSON (chrome://tracing and Perfetto open it as is).
//
// A span is one timed call into a layer's public API, recorded from the
// benchmark side of that call: layer, call name, thread, start, end, and
// the epoch whose work caused it. Nothing is written until the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds from `from` to `to`.
inline double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

struct Span {
  /// Module name ("allocator", "engine", ...). Static storage.
  const char* layer = "";
  /// Public API call ("Rebalance", "Tick", ...). Static storage.
  const char* call = "";
  std::thread::id thread;
  Clock::time_point start;
  Clock::time_point end;
  uint64_t epoch = 0;
  /// Trace-viewer process lane: 1 = the live pipeline run, 2 = the layer
  /// drives that replay its inputs one layer at a time.
  int phase = 1;
};

class SpanLog {
 public:
  void Append(const std::vector<Span>& spans) {
    spans_.insert(spans_.end(), spans.begin(), spans.end());
  }
  const std::vector<Span>& spans() const { return spans_; }

  /// Writes every span as a complete ("X") trace event, timestamps relative
  /// to the earliest span, plus `metadata` (already-rendered JSON object
  /// members, e.g. the banner and per-layer metrics) under "otherData".
  /// Returns false when the file cannot be written.
  bool WriteChromeTrace(const std::string& path,
                        const std::string& metadata) const;

 private:
  std::vector<Span> spans_;
};

/// Records one span over the lifetime of a scope into `out` (if non-null)
/// and adds its duration to `*total_seconds` (if non-null).
class ScopedSpan {
 public:
  ScopedSpan(std::vector<Span>* out, const char* layer, const char* call,
             uint64_t epoch, int phase, double* total_seconds)
      : out_(out),
        total_(total_seconds),
        span_{layer, call, std::this_thread::get_id(), Clock::now(), {},
              epoch, phase} {}
  ~ScopedSpan() {
    span_.end = Clock::now();
    if (total_ != nullptr) *total_ += SecondsBetween(span_.start, span_.end);
    if (out_ != nullptr) out_->push_back(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::vector<Span>* out_;
  double* total_;
  Span span_;
};

}  // namespace perfbench
