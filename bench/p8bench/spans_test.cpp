// Self-time arithmetic of the span recorder: the layer report is only
// as honest as the interval union it subtracts.
#include <gtest/gtest.h>

#include "spans.hpp"

namespace p8bench {
namespace {

Span span(const char* name, double start, double end, std::int64_t parent) {
  return Span{name, start, end, parent, 0};
}

TEST(Spans, NestedChildrenSubtractOnce) {
  // root [0, 10] > child [1, 4] > grandchild [2, 3]
  const std::vector<Span> spans = {span("root", 0, 10, -1),
                                   span("child", 1, 4, 0),
                                   span("grandchild", 2, 3, 1)};
  const std::vector<double> self = self_times(spans);
  EXPECT_DOUBLE_EQ(self[0], 7.0);
  EXPECT_DOUBLE_EQ(self[1], 2.0);
  EXPECT_DOUBLE_EQ(self[2], 1.0);
}

TEST(Spans, OverlappingChildrenCountTheirUnion) {
  // Two parallel children [1, 5] and [3, 8] cover [1, 8]: 7 of 10.
  const std::vector<Span> spans = {span("root", 0, 10, -1),
                                   span("a", 1, 5, 0), span("b", 3, 8, 0)};
  EXPECT_DOUBLE_EQ(self_times(spans)[0], 3.0);
}

TEST(Spans, ChildrenAreClippedToTheParent) {
  // A child that starts before and ends after its parent covers it all.
  const std::vector<Span> spans = {span("root", 2, 4, -1),
                                   span("wide", 0, 9, 0)};
  EXPECT_DOUBLE_EQ(self_times(spans)[0], 0.0);
}

TEST(Spans, EmptyAndInvertedChildrenCoverNothing) {
  const std::vector<Span> spans = {span("root", 0, 4, -1),
                                   span("empty", 2, 2, 0),
                                   span("inverted", 3, 1, 0)};
  const std::vector<double> self = self_times(spans);
  EXPECT_DOUBLE_EQ(self[0], 4.0);
  EXPECT_DOUBLE_EQ(self[1], 0.0);
  EXPECT_DOUBLE_EQ(self[2], 0.0);
}

TEST(Spans, LeafSelfTimeIsItsDuration) {
  EXPECT_DOUBLE_EQ(self_times({span("leaf", 1.5, 2.0, -1)})[0], 0.5);
  EXPECT_TRUE(self_times({}).empty());
}

TEST(Spans, LayerTotalsSumPerName) {
  const std::vector<Span> spans = {span("req", 0, 10, -1),
                                   span("parse", 0, 2, 0),
                                   span("req", 10, 14, -1),
                                   span("parse", 10, 11, 2)};
  const auto totals = layer_totals(spans);
  EXPECT_EQ(totals.at("req").count, 2u);
  EXPECT_DOUBLE_EQ(totals.at("req").total_s, 14.0);
  EXPECT_DOUBLE_EQ(totals.at("req").self_s, 11.0);
  EXPECT_DOUBLE_EQ(totals.at("parse").total_s, 3.0);
}

TEST(Spans, RecorderNestsThroughScopedSpans) {
  SpanRecorder recorder;
  {
    ScopedSpan outer(&recorder, "outer");
    ScopedSpan inner(&recorder, "inner", outer.id(), 7);
  }
  const std::vector<Span> spans = recorder.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[1].request, 7u);
  EXPECT_LE(spans[0].start_s, spans[1].start_s);
  EXPECT_GE(spans[0].end_s, spans[1].end_s);
  // A null recorder records nothing and costs nothing.
  ScopedSpan off(nullptr, "off");
  EXPECT_EQ(off.id(), SpanRecorder::kRoot);
}

}  // namespace
}  // namespace p8bench
