#ifndef TRAINBENCH_BENCH_CORE_H_
#define TRAINBENCH_BENCH_CORE_H_

// The training benchmark's own logic, kept apart from main.cc so that
// bench_core_test.cc can check it: the percentile rule, span recording and
// self-time arithmetic, the parity-tolerance rule against the Interpreter,
// and the environment guard.

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/status.h"
#include "core/tensor.h"

namespace trainbench {

// ---------------------------------------------------------------- timings

// A tail percentile is reported only when at least this many samples lie
// beyond it, so p95 needs 200 samples.
inline constexpr int kMinSamplesBeyond = 10;

// Median (mean of the two middle values for an even count). Requires a
// non-empty sample.
double Median(std::vector<double> samples);

// Nearest-rank percentile: the value at rank ceil(q * n) of the sorted
// sample. Refuses (FailedPrecondition) when fewer than kMinSamplesBeyond
// samples rank above it.
tsplit::Result<double> TailPercentile(std::vector<double> samples, double q);

// Cuts `samples` into consecutive windows of `window` samples (a remainder
// joins the last window; fewer than `window` samples make one window) and
// returns the median over windows of `stat`. A burst of host noise then
// shifts only the windows it hits.
tsplit::Result<double> MedianOverWindows(
    const std::vector<double>& samples, size_t window,
    const std::function<tsplit::Result<double>(std::vector<double>)>& stat);

// ------------------------------------------------------------------ spans

// One call into a layer, timed from the benchmark's own code. `name` and
// `layer` must outlive the recorder (string literals or graph-owned names).
struct Span {
  const char* name = "";
  const char* layer = "";
  int64_t start_ns = 0;  // since the recorder was created
  int64_t end_ns = 0;
  int parent = -1;  // index of the enclosing span, -1 for a root
  int step = -1;    // the training step (or negative set-up id) it served
};

// Keeps spans in memory; nothing is written until the run ends.
class SpanRecorder {
 public:
  SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  // Opens a span nested in the innermost open span; returns its index.
  int Begin(const char* name, const char* layer, int step);
  // Closes the innermost open span, which must be `index`.
  void End(int index);
  // Records an already-timed span as a child of the innermost open span.
  void Add(const char* name, const char* layer, int step, int64_t start_ns,
           int64_t end_ns);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span; a null recorder makes it a no-op (the untraced path).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, const char* layer,
             int step)
      : recorder_(recorder),
        index_(recorder == nullptr ? -1
                                   : recorder->Begin(name, layer, step)) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int index_;
};

// Self time of every span, in seconds: its duration minus the part of its
// interval that its direct children cover (overlapping children counted
// once, parts outside the parent ignored).
std::vector<double> SelfSeconds(const std::vector<Span>& spans);

// Chrome trace-event JSON (the format of runtime/trace's simulated trace;
// opens in Perfetto): one "X" event per span with its layer as category and
// parent/step in args, plus `metadata` as string pairs under "otherData".
std::string ToChromeTrace(
    const std::vector<Span>& spans,
    const std::vector<std::pair<std::string, std::string>>& metadata);

// ----------------------------------------------------------------- parity

// How closely the managed step must reproduce the Interpreter. The loss is
// always bitwise equal. Parameter gradients are bitwise equal when the plan
// splits nothing; a split reassociates kSum merges, so they then only need
// |managed - reference| <= rel_tolerance * max(1, max |reference|), the
// tolerance fuzz_equivalence_test uses.
struct ParityRule {
  bool exact_grads = true;
  double rel_tolerance = 0;
};

ParityRule ParityRuleFor(int split_tensors);

bool LossMatches(float managed, float reference);

// Empty when `managed` matches `reference` under `rule`, else a reason.
std::string GradMismatch(const tsplit::Tensor& managed,
                         const tsplit::Tensor& reference,
                         const ParityRule& rule);

// ------------------------------------------------------------ environment

// Refuses to run when any TSPLIT_* variable is set (each one changes which
// code runs) or when the build is not an optimized Release build (Debug
// turns on the verify gate and the pool-consistency asserts).
// `environment` holds NAME=value entries as in `environ`.
tsplit::Status CheckEnvironment(const std::vector<std::string>& environment,
                                const std::string& build_type,
                                bool asserts_enabled);

// ------------------------------------------------------------------- json

// Shortest decimal that reads back as exactly `value`.
std::string JsonNumber(double value);

}  // namespace trainbench

#endif  // TRAINBENCH_BENCH_CORE_H_
