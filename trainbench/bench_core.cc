#include "bench_core.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <sstream>

namespace trainbench {

using tsplit::Result;
using tsplit::Status;
using tsplit::Tensor;

double Median(std::vector<double> samples) {
  TSPLIT_CHECK(!samples.empty());
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2;
}

Result<double> TailPercentile(std::vector<double> samples, double q) {
  const auto n = static_cast<int64_t>(samples.size());
  const auto rank = static_cast<int64_t>(std::ceil(q * static_cast<double>(n)));
  if (n == 0 || rank < 1 || n - rank < kMinSamplesBeyond) {
    return Status::FailedPrecondition(
        "percentile " + std::to_string(q) + " of " + std::to_string(n) +
        " samples would have fewer than " + std::to_string(kMinSamplesBeyond) +
        " samples beyond it");
  }
  std::sort(samples.begin(), samples.end());
  return samples[static_cast<size_t>(rank - 1)];
}

Result<double> MedianOverWindows(
    const std::vector<double>& samples, size_t window,
    const std::function<Result<double>(std::vector<double>)>& stat) {
  const size_t windows = std::max<size_t>(1, samples.size() / window);
  std::vector<double> values;
  for (size_t i = 0; i < windows; ++i) {
    auto begin = samples.begin() + static_cast<std::ptrdiff_t>(i * window);
    auto end = i + 1 == windows
                   ? samples.end()
                   : begin + static_cast<std::ptrdiff_t>(window);
    ASSIGN_OR_RETURN(double value, stat(std::vector<double>(begin, end)));
    values.push_back(value);
  }
  return Median(values);
}

int SpanRecorder::Begin(const char* name, const char* layer, int step) {
  Span span;
  span.name = name;
  span.layer = layer;
  span.step = step;
  span.parent = open_.empty() ? -1 : open_.back();
  const int index = static_cast<int>(spans_.size());
  spans_.push_back(span);
  open_.push_back(index);
  spans_.back().start_ns = NowNs();  // last, so bookkeeping stays outside
  return index;
}

void SpanRecorder::End(int index) {
  const int64_t now = NowNs();
  TSPLIT_CHECK(!open_.empty() && open_.back() == index);
  open_.pop_back();
  spans_[static_cast<size_t>(index)].end_ns = now;
}

void SpanRecorder::Add(const char* name, const char* layer, int step,
                       int64_t start_ns, int64_t end_ns) {
  Span span;
  span.name = name;
  span.layer = layer;
  span.step = step;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(span);
}

std::vector<double> SelfSeconds(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      children[static_cast<size_t>(span.parent)].emplace_back(span.start_ns,
                                                              span.end_ns);
    }
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t begin = spans[i].start_ns;
    const int64_t end = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t reach = begin;  // end of the covered prefix so far
    for (auto [kid_begin, kid_end] : kids) {
      const int64_t from = std::max(kid_begin, reach);
      const int64_t to = std::min(kid_end, end);
      if (to > from) {
        covered += to - from;
        reach = to;
      }
    }
    self[i] = static_cast<double>(end - begin - covered) * 1e-9;
  }
  return self;
}

namespace {

std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

std::string ToChromeTrace(
    const std::vector<Span>& spans,
    const std::vector<std::pair<std::string, std::string>>& metadata) {
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
        "\"args\":{\"name\":\"trainbench\"}}";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    os << ",{\"name\":\"" << Escape(span.name) << "\",\"cat\":\""
       << Escape(span.layer) << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
       << JsonNumber(static_cast<double>(span.start_ns) * 1e-3)
       << ",\"dur\":"
       << JsonNumber(static_cast<double>(span.end_ns - span.start_ns) * 1e-3)
       << ",\"args\":{\"id\":" << i << ",\"parent\":" << span.parent
       << ",\"step\":" << span.step << "}}";
  }
  os << "],\"displayTimeUnit\":\"ms\",\"otherData\":{";
  for (size_t i = 0; i < metadata.size(); ++i) {
    if (i > 0) os << ",";
    os << "\"" << Escape(metadata[i].first) << "\":\""
       << Escape(metadata[i].second) << "\"";
  }
  os << "}}\n";
  return os.str();
}

ParityRule ParityRuleFor(int split_tensors) {
  if (split_tensors == 0) return ParityRule{};
  return ParityRule{/*exact_grads=*/false, /*rel_tolerance=*/1e-4};
}

bool LossMatches(float managed, float reference) {
  return std::memcmp(&managed, &reference, sizeof(float)) == 0;
}

std::string GradMismatch(const Tensor& managed, const Tensor& reference,
                         const ParityRule& rule) {
  if (managed.shape() != reference.shape()) {
    return "shape " + managed.shape().ToString() + " vs " +
           reference.shape().ToString();
  }
  const int64_t n = reference.num_elements();
  if (rule.exact_grads) {
    for (int64_t i = 0; i < n; ++i) {
      if (std::memcmp(&managed.data()[i], &reference.data()[i],
                      sizeof(float)) != 0) {
        return "element " + std::to_string(i) + " differs bitwise";
      }
    }
    return "";
  }
  double max_abs = 1.0;
  for (int64_t i = 0; i < n; ++i) {
    max_abs = std::max(max_abs, std::abs(static_cast<double>(reference.at(i))));
  }
  const double limit = rule.rel_tolerance * max_abs;
  for (int64_t i = 0; i < n; ++i) {
    const double diff = std::abs(static_cast<double>(managed.at(i)) -
                                 static_cast<double>(reference.at(i)));
    if (!(diff <= limit)) {  // also catches NaN
      return "element " + std::to_string(i) + " differs by " +
             JsonNumber(diff) + " > " + JsonNumber(limit);
    }
  }
  return "";
}

Status CheckEnvironment(const std::vector<std::string>& environment,
                        const std::string& build_type, bool asserts_enabled) {
  for (const std::string& entry : environment) {
    if (entry.rfind("TSPLIT_", 0) == 0) {
      return Status::FailedPrecondition(
          "refusing to run with " + entry.substr(0, entry.find('=')) +
          " set: TSPLIT_* variables change which code runs");
    }
  }
  if (build_type != "Release" || asserts_enabled) {
    return Status::FailedPrecondition(
        "refusing to run a non-Release build (" +
        (build_type.empty() ? std::string("no build type") : build_type) +
        (asserts_enabled ? ", asserts on" : "") + ")");
  }
  return Status::OK();
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  (void)ec;
  return std::string(buf, end);
}

}  // namespace trainbench
