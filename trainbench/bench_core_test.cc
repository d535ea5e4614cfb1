#include "bench_core.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

namespace trainbench {
namespace {

using tsplit::Shape;
using tsplit::StatusCode;
using tsplit::Tensor;

std::vector<double> Ramp(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(PercentileTest, MedianOfOddAndEvenSamples) {
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
}

TEST(PercentileTest, P95RefusesBelowTwoHundredSamples) {
  auto refused = TailPercentile(Ramp(199), 0.95);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(TailPercentile({}, 0.95).ok());

  auto p95 = TailPercentile(Ramp(200), 0.95);
  ASSERT_TRUE(p95.ok());
  EXPECT_EQ(*p95, 190);  // nearest rank: exactly ten samples lie beyond it
}

TEST(PercentileTest, TenSamplesBeyondRuleScalesWithQuantile) {
  EXPECT_FALSE(TailPercentile(Ramp(999), 0.99).ok());
  EXPECT_TRUE(TailPercentile(Ramp(1000), 0.99).ok());
  EXPECT_FALSE(TailPercentile(Ramp(19), 0.5).ok());
  EXPECT_TRUE(TailPercentile(Ramp(20), 0.5).ok());
}

TEST(PercentileTest, MedianOverWindowsIgnoresOneBadWindow) {
  auto mean = [](std::vector<double> v) -> tsplit::Result<double> {
    double sum = 0;
    for (double x : v) sum += x;
    return sum / static_cast<double>(v.size());
  };
  // Windows of 2: {1,1} {2,2} {100,100} {3,3,3} (the remainder joins the
  // last window).
  std::vector<double> samples = {1, 1, 2, 2, 100, 100, 3, 3, 3};
  auto median = MedianOverWindows(samples, 2, mean);
  ASSERT_TRUE(median.ok());
  EXPECT_EQ(*median, 2.5);
  // Fewer samples than a window: one window.
  EXPECT_EQ(*MedianOverWindows({4, 6}, 5, mean), 5);
  // A window whose statistic is refused refuses the whole.
  auto p95 = [](std::vector<double> v) { return TailPercentile(v, 0.95); };
  EXPECT_FALSE(MedianOverWindows(Ramp(399), 199, p95).ok());
  EXPECT_TRUE(MedianOverWindows(Ramp(400), 200, p95).ok());
}

Span MakeSpan(int64_t start, int64_t end, int parent) {
  Span span;
  span.start_ns = start;
  span.end_ns = end;
  span.parent = parent;
  return span;
}

TEST(SpanTest, SelfTimeSubtractsDirectChildrenOnly) {
  // root [0,100) has children [10,30) and [50,90); the second has its own
  // child [60,70), which counts against it, not against the root.
  std::vector<Span> spans = {MakeSpan(0, 100, -1), MakeSpan(10, 30, 0),
                             MakeSpan(50, 90, 0), MakeSpan(60, 70, 2)};
  std::vector<double> self = SelfSeconds(spans);
  EXPECT_DOUBLE_EQ(self[0], 40e-9);
  EXPECT_DOUBLE_EQ(self[1], 20e-9);
  EXPECT_DOUBLE_EQ(self[2], 30e-9);
  EXPECT_DOUBLE_EQ(self[3], 10e-9);
}

TEST(SpanTest, OverlappingAndOverhangingChildrenCountOnce) {
  std::vector<Span> spans = {MakeSpan(0, 100, -1), MakeSpan(10, 40, 0),
                             MakeSpan(30, 50, 0), MakeSpan(90, 120, 0)};
  // Covered: [10,50) and [90,100) -> 50 of 100.
  EXPECT_DOUBLE_EQ(SelfSeconds(spans)[0], 50e-9);
}

TEST(SpanTest, RecorderNestsAndAddsChildren) {
  SpanRecorder rec;
  {
    ScopedSpan outer(&rec, "outer", "bench", 7);
    { ScopedSpan inner(&rec, "inner", "runtime", 7); }
    const int64_t begin = rec.NowNs();
    rec.Add("op", "ops", 7, begin, rec.NowNs());
  }
  { ScopedSpan none(nullptr, "ignored", "bench", 0); }
  const auto& spans = rec.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, 0);
  EXPECT_EQ(spans[1].step, 7);
  for (const Span& span : spans) EXPECT_LE(span.start_ns, span.end_ns);
  EXPECT_LE(spans[0].start_ns, spans[1].start_ns);
  EXPECT_GE(spans[0].end_ns, spans[2].end_ns);

  std::string trace = ToChromeTrace(spans, {{"seed", "3"}});
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"inner\",\"cat\":\"runtime\",\"ph\":\"X\""),
            std::string::npos);
  EXPECT_NE(trace.find("\"otherData\":{\"seed\":\"3\"}"), std::string::npos);
}

TEST(ParityTest, UnsplitPlanNeedsBitwiseEqualGradients) {
  ParityRule rule = ParityRuleFor(0);
  EXPECT_TRUE(rule.exact_grads);
  Tensor ref(Shape{4}, 1.0f);
  Tensor same = ref;
  EXPECT_EQ(GradMismatch(same, ref, rule), "");
  Tensor off = ref;
  off.at(2) = std::nextafter(1.0f, 2.0f);
  EXPECT_NE(GradMismatch(off, ref, rule), "");
  Tensor negzero(Shape{1}, 0.0f);
  EXPECT_NE(GradMismatch(negzero, Tensor(Shape{1}, -0.0f), rule), "");
}

TEST(ParityTest, SplitPlanAllowsRelativeTolerance) {
  ParityRule rule = ParityRuleFor(4);
  EXPECT_FALSE(rule.exact_grads);
  EXPECT_DOUBLE_EQ(rule.rel_tolerance, 1e-4);
  Tensor ref(Shape{3});
  ref.at(0) = 10.0f;  // max |ref| = 10, so the limit is 1e-3
  Tensor near = ref;
  near.at(1) = 9e-4f;
  EXPECT_EQ(GradMismatch(near, ref, rule), "");
  Tensor far = ref;
  far.at(1) = 2e-3f;
  EXPECT_NE(GradMismatch(far, ref, rule), "");
  Tensor nan = ref;
  nan.at(2) = std::numeric_limits<float>::quiet_NaN();
  EXPECT_NE(GradMismatch(nan, ref, rule), "");
  EXPECT_NE(GradMismatch(Tensor(Shape{2}), ref, rule), "");
  // Small gradients: the limit never drops below 1e-4 absolute.
  Tensor tiny(Shape{1}, 1e-6f);
  EXPECT_EQ(GradMismatch(Tensor(Shape{1}, 5e-5f), tiny, rule), "");
}

TEST(ParityTest, LossIsComparedBitwise) {
  EXPECT_TRUE(LossMatches(1.5f, 1.5f));
  EXPECT_FALSE(LossMatches(1.5f, std::nextafter(1.5f, 2.0f)));
}

TEST(EnvironmentGuardTest, RefusesAnyTsplitVariable) {
  auto guard = CheckEnvironment({"HOME=/x", "TSPLIT_NUM_THREADS=1"}, "Release",
                                false);
  ASSERT_FALSE(guard.ok());
  EXPECT_NE(guard.message().find("TSPLIT_NUM_THREADS"), std::string::npos);
  EXPECT_FALSE(CheckEnvironment({"TSPLIT_VERIFY="}, "Release", false).ok());
  // Only the prefix counts.
  EXPECT_TRUE(CheckEnvironment({"MY_TSPLIT_X=1", "PATH=/bin"}, "Release",
                               false)
                  .ok());
}

TEST(EnvironmentGuardTest, RefusesNonReleaseBuilds) {
  EXPECT_FALSE(CheckEnvironment({}, "Debug", true).ok());
  EXPECT_FALSE(CheckEnvironment({}, "RelWithDebInfo", false).ok());
  EXPECT_FALSE(CheckEnvironment({}, "", false).ok());
  EXPECT_FALSE(CheckEnvironment({}, "Release", true).ok());
  EXPECT_TRUE(CheckEnvironment({}, "Release", false).ok());
}

TEST(JsonTest, NumbersKeepAllDigits) {
  EXPECT_EQ(JsonNumber(0.1), "0.1");
  EXPECT_EQ(JsonNumber(1944576), "1944576");
  EXPECT_EQ(std::stod(JsonNumber(0.0601234567891234)), 0.0601234567891234);
  EXPECT_EQ(JsonNumber(std::nan("")), "null");
}

}  // namespace
}  // namespace trainbench
