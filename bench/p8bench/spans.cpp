#include "spans.hpp"

#include <algorithm>
#include <cstdio>

#include "common/json.hpp"

namespace p8bench {

SpanRecorder::Id SpanRecorder::open(const std::string& name, Id parent,
                                    std::uint64_t request) {
  const double t = now();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, t, t, parent, request});
  return static_cast<Id>(spans_.size() - 1);
}

void SpanRecorder::close(Id id) {
  const double t = now();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end_s = t;
}

SpanRecorder::Id SpanRecorder::record(const std::string& name, double start_s,
                                      double end_s, Id parent,
                                      std::uint64_t request) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, start_s, end_s, parent, request});
  return static_cast<Id>(spans_.size() - 1);
}

std::vector<Span> SpanRecorder::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

bool SpanRecorder::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<Span> all = spans();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    const std::string line =
        "{\"id\": " + std::to_string(i) +
        ", \"name\": " + p8::common::json_quote(s.name) +
        ", \"start_s\": " + p8::common::json_number(s.start_s) +
        ", \"end_s\": " + p8::common::json_number(s.end_s) +
        ", \"parent\": " + std::to_string(s.parent) +
        ", \"request\": " + std::to_string(s.request) + "}\n";
    std::fputs(line.c_str(), f);
  }
  return std::fclose(f) == 0;
}

namespace {

/// Length of the union of `intervals` clipped to [lo, hi].
double covered_length(std::vector<std::pair<double, double>> intervals,
                      double lo, double hi) {
  if (!(hi > lo)) return 0.0;
  for (auto& [a, b] : intervals) {
    a = std::max(a, lo);
    b = std::min(b, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double reach = lo;
  for (const auto& [a, b] : intervals) {
    if (!(b > a)) continue;
    const double from = std::max(a, reach);
    if (b > from) {
      covered += b - from;
      reach = b;
    }
  }
  return covered;
}

}  // namespace

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size())
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_s,
                                                                s.end_s);
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double duration = std::max(0.0, spans[i].end_s - spans[i].start_s);
    self[i] = duration - covered_length(std::move(children[i]),
                                        spans[i].start_s, spans[i].end_s);
  }
  return self;
}

std::map<std::string, LayerTotal> layer_totals(const std::vector<Span>& spans) {
  const std::vector<double> self = self_times(spans);
  std::map<std::string, LayerTotal> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    LayerTotal& t = out[spans[i].name];
    ++t.count;
    t.total_s += std::max(0.0, spans[i].end_s - spans[i].start_s);
    t.self_s += self[i];
  }
  return out;
}

}  // namespace p8bench
