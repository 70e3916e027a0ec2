// In-memory span recorder and the layer report built from it.
//
// A span is one timed call into a layer's public function, recorded
// from p8bench's own code (nothing inside src/ is instrumented): its
// name, start and end on the recorder's clock, the span that caused it
// and the request (sweep point, request line) it belongs to.  Spans
// stay in memory while the benchmark runs and are written as JSON lines
// when it ends.
//
// A span's self time is its duration minus the union of its children's
// intervals (clipped to the span), so overlapping children are counted
// once and a child that outlives its parent cannot push self time below
// zero.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/timer.hpp"

namespace p8bench {

struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  std::int64_t parent = -1;  ///< index of the causing span; -1 = root
  std::uint64_t request = 0;
};

class SpanRecorder {
 public:
  using Id = std::int64_t;
  static constexpr Id kRoot = -1;

  /// Seconds since the recorder was created.
  double now() const { return clock_.seconds(); }

  /// Opens a span at now(); close() stamps its end.  Thread-safe.
  Id open(const std::string& name, Id parent, std::uint64_t request);
  void close(Id id);

  /// Records a span whose interval was measured elsewhere.  Thread-safe.
  Id record(const std::string& name, double start_s, double end_s, Id parent,
            std::uint64_t request);

  /// Copy of every span so far, in id order.
  std::vector<Span> spans() const;

  /// Writes one JSON object per span; false when the file cannot be
  /// written.
  bool write_jsonl(const std::string& path) const;

 private:
  p8::common::Timer clock_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction; a null
/// recorder makes both no-ops, which is how untraced runs pay nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const std::string& name,
             SpanRecorder::Id parent = SpanRecorder::kRoot,
             std::uint64_t request = 0)
      : recorder_(recorder),
        id_(recorder ? recorder->open(name, parent, request)
                     : SpanRecorder::kRoot) {}
  ~ScopedSpan() {
    if (recorder_) recorder_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  SpanRecorder::Id id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  SpanRecorder::Id id_;
};

/// Self time of every span (same order as `spans`).
std::vector<double> self_times(const std::vector<Span>& spans);

/// Per span name: call count, summed duration and summed self time.
struct LayerTotal {
  std::size_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};
std::map<std::string, LayerTotal> layer_totals(const std::vector<Span>& spans);

}  // namespace p8bench
