// trainbench: trains one workload through the default
// pipeline exactly as runtime::Trainer does — schedule, profile, TSPLIT
// plan, augmented program, one compiled FunctionalExecutor reused across
// steps, SgdOptimizer — and prints one JSON line of metrics.
//
//   trainbench --workload NAME --seed N --seconds S --trace 0|1
//              [--out-dir DIR]
//
// --trace 0 reports the end-to-end metrics (throughput, step latency,
// set-up time, device peak, passed-step share). --trace 1 is a separate run
// that times every call this program makes into a layer, reports the
// per-layer metrics, and writes the spans as a Chrome trace to DIR.
//
// Every step mirrors Trainer::Step: bind the parameters and the step's
// batch, FunctionalExecutor::Run, read back the parameter gradients,
// SgdOptimizer::Step, read back the loss. A sample of steps is re-run on an
// Interpreter with the same parameters and batch (the parity check), and the
// first steps are cross-checked against runtime::Trainer itself. Only public
// entry points at their defaults are used: no TSPLIT_* variable (the run
// refuses if one is set) and no executor setter beyond the ones Trainer
// calls.
//
// Exit codes: 0 success; 1 a step failed or a check did not hold (the JSON
// line then reads "correct": false); 2 bad arguments or a refused
// environment (no JSON line).

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/verifier.h"
#include "bench_core.h"
#include "core/parallel.h"
#include "graph/liveness.h"
#include "graph/schedule.h"
#include "models/model.h"
#include "planner/planner.h"
#include "planner/profile.h"
#include "rewrite/program.h"
#include "runtime/compiled_program.h"
#include "runtime/functional_executor.h"
#include "runtime/interpreter.h"
#include "runtime/optimizer.h"
#include "runtime/trainer.h"

#ifndef TRAINBENCH_BUILD_TYPE
#define TRAINBENCH_BUILD_TYPE ""
#endif

extern char** environ;

namespace trainbench {
namespace {

using namespace tsplit;
using Clock = std::chrono::steady_clock;
using ParamMap = std::unordered_map<TensorId, Tensor>;

// Kernels plus the copy-engine worker fill a 4-core box.
constexpr int kKernelThreads = 3;
// p95 needs ten timed steps beyond it.
constexpr size_t kMinTimedSteps = 200;
// Untimed work before anything is timed: each run first trains an untimed
// set-up for kWarmupSeconds (a fresh process runs its first steps up to 3x
// slower while the allocator and the CPU clocks settle), and the timed
// run starts with kWarmupSteps untimed steps.
constexpr double kWarmupSeconds = 1.0;
constexpr int kWarmupSteps = 20;
// Fresh set-ups per untraced run (setup_s is their median) and per traced
// run (the per-layer set-up metrics are medians over them). Each run first
// makes one untimed set-up, which pays the process's cold start.
constexpr int kSetups = 15;
constexpr int kTracedSetups = 3;
// Untraced run: about kParityChecks timed steps, spread evenly over the
// run, are checked against the Interpreter, and so is every one of the
// first kTrainerSteps steps.
constexpr int kParityChecks = 32;
// Steps whose losses must equal runtime::Trainer's bit for bit.
constexpr int kTrainerSteps = 3;
// Traced run: at least this many rounds, and about this many per-node op
// timing passes spread evenly over the run (each adds one span per node).
constexpr int kMinRounds = 20;
constexpr int kOpsPasses = 30;

// Trainer's defaults, except the learning rate. At the default 0.05 the
// VGG-16 loss is NaN within 25 steps; at 0.01 ReLUs die at a rate that
// depends on the batches, and since the conv backward kernels skip zero
// gradients, the step time then drifts by up to 30% between seeds.
runtime::TrainerOptions TrainerSettings() {
  runtime::TrainerOptions options;
  options.learning_rate = 0.001f;
  return options;
}
const runtime::TrainerOptions kTrainer = TrainerSettings();

struct Workload {
  const char* name;
  // Budget = floor + fraction * (unconstrained peak - floor).
  double fraction;
  bool transformer;
  int batch;
  // Labels (and, for the Transformer, token ids) lie in [0, classes).
  int classes;
};

const Workload kWorkloads[] = {
    {"vgg16-loose", 0.60, false, 4, 4},
    {"vgg16-split", 0.05, false, 4, 4},
    {"transformer-deep", 0.05, true, 2, 32},
};

Result<models::Model> BuildModel(const Workload& w) {
  if (w.transformer) {
    models::TransformerConfig config;
    config.num_layers = 24;
    config.batch = w.batch;
    config.seq_len = 8;
    config.hidden = 16;
    config.num_heads = 2;
    config.ffn_mult = 2;
    config.vocab = w.classes;
    return models::BuildTransformer(config);
  }
  models::CnnConfig config;
  config.batch = w.batch;
  config.image_size = 64;
  config.num_classes = w.classes;
  config.channel_scale = 4.0 / 64.0;
  return models::BuildVgg(16, config);
}

// CPUs this process may run on (what `nproc` prints).
int Nproc() {
  cpu_set_t set;
  return sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 0;
}

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// ------------------------------------------------------------------ inputs

// SplitMix64: the workload seed and the step index fully determine a batch.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

struct Batch {
  Tensor input;
  Tensor labels;
};

Batch MakeBatch(const models::Model& m, const Workload& w, uint64_t seed,
                int step) {
  Rng rng(seed * 0x100000001B3ull + static_cast<uint64_t>(step));
  Batch batch{Tensor(m.graph.tensor(m.input).shape),
              Tensor(m.graph.tensor(m.labels).shape)};
  for (int64_t i = 0; i < batch.input.num_elements(); ++i) {
    batch.input.at(i) =
        w.transformer
            ? static_cast<float>(static_cast<int>(rng.Uniform() * w.classes))
            : static_cast<float>(rng.Uniform() * 2 - 1);
  }
  for (int64_t i = 0; i < batch.labels.num_elements(); ++i) {
    batch.labels.at(i) =
        static_cast<float>(static_cast<int>(rng.Uniform() * w.classes));
  }
  return batch;
}

// Initial parameters, drawn the way Trainer::Create draws them but from a
// fixed seed: VGG-16's conv backward skips zero gradients, so how many ReLUs
// a draw leaves dead sets the step time, and at these channel counts it
// moves by 30% between draws. The workload seed draws the batches.
constexpr uint64_t kInitSeed = 1;

ParamMap InitialParams(const models::Model& m) {
  auto bindings = runtime::MakeRandomBindings(m.graph, kInitSeed);
  ParamMap params;
  for (TensorId id : m.parameters) params[id] = std::move(bindings.at(id));
  return params;
}

// ------------------------------------------------------------------- steps

// The state Trainer::Create builds. Held by pointer: the executor caches
// its compiled artifact on the program's address.
struct TrainerState {
  Schedule schedule;
  planner::GraphProfile profile;
  size_t capacity = 0;
  planner::Plan plan;
  rewrite::Program program;
  std::unique_ptr<runtime::FunctionalExecutor> executor;
  ParamMap params;
  runtime::SgdOptimizer optimizer{kTrainer.learning_rate, kTrainer.momentum};
};

struct StepOutcome {
  Status status;
  float loss = 0;
  ParamMap grads;  // kept only when the step is parity-checked
  double seconds = 0;
};

// One Trainer::Step. `unit` tags the spans (the step index, or a negative
// set-up id for a set-up's first step).
StepOutcome RunStep(TrainerState& s, const models::Model& m, Batch batch,
                    bool keep_grads, int unit, SpanRecorder* rec) {
  StepOutcome out;
  const Clock::time_point start = Clock::now();
  {
    ScopedSpan step_span(rec, "step", "bench", unit);
    out.status = [&]() -> Status {
      {
        ScopedSpan span(rec, "FunctionalExecutor::Bind", "runtime", unit);
        for (const auto& [id, value] : s.params) {
          RETURN_IF_ERROR(s.executor->Bind(id, value));
        }
        RETURN_IF_ERROR(s.executor->Bind(m.input, std::move(batch.input)));
        RETURN_IF_ERROR(s.executor->Bind(m.labels, std::move(batch.labels)));
      }
      {
        ScopedSpan span(rec, "FunctionalExecutor::Run", "runtime", unit);
        RETURN_IF_ERROR(s.executor->Run(s.program));
      }
      {
        ScopedSpan span(rec, "FunctionalExecutor::ValueOf", "runtime", unit);
        for (auto [param, grad] : m.autodiff.param_grads) {
          ASSIGN_OR_RETURN(Tensor value, s.executor->ValueOf(grad));
          out.grads[param] = std::move(value);
        }
      }
      {
        ScopedSpan span(rec, "SgdOptimizer::Step", "optimizer", unit);
        RETURN_IF_ERROR(s.optimizer.Step(&s.params, out.grads));
      }
      ScopedSpan span(rec, "FunctionalExecutor::ValueOf", "runtime", unit);
      ASSIGN_OR_RETURN(Tensor loss, s.executor->ValueOf(m.loss));
      out.loss = loss.at(0);
      return Status::OK();
    }();
    if (!keep_grads) out.grads.clear();  // Trainer drops them here too
  }
  out.seconds = Seconds(start, Clock::now());
  return out;
}

// A fresh set-up, from the unplanned model until its first step returns.
struct Setup {
  std::unique_ptr<TrainerState> state;
  StepOutcome first;
  double seconds = 0;
};

Result<Setup> RunSetup(const models::Model& m, const Workload& w,
                       const ParamMap& init, Batch batch0, int unit,
                       SpanRecorder* rec) {
  Setup setup;
  setup.state = std::make_unique<TrainerState>();
  TrainerState& s = *setup.state;
  s.params = init;
  const Clock::time_point start = Clock::now();
  {
    ScopedSpan setup_span(rec, "set-up", "bench", unit);
    {
      ScopedSpan span(rec, "BuildSchedule", "graph", unit);
      ASSIGN_OR_RETURN(s.schedule, BuildSchedule(m.graph));
    }
    {
      ScopedSpan span(rec, "ProfileGraph", "planner", unit);
      s.profile = planner::ProfileGraph(m.graph, kTrainer.profile_device);
    }
    {
      // The budget rule of Trainer::Create.
      ScopedSpan span(rec, "ComputeMemoryProfile", "graph", unit);
      MemoryProfile baseline = ComputeMemoryProfile(m.graph, s.schedule);
      size_t floor = baseline.always_live_bytes +
                     m.graph.BytesOfKind(TensorKind::kParamGrad);
      s.capacity = floor + static_cast<size_t>(
                               (baseline.peak_bytes - floor) * w.fraction);
    }
    {
      ScopedSpan span(rec, "TsplitPlanner::BuildPlan", "planner", unit);
      auto planner = planner::MakePlanner(kTrainer.planner_name);
      ASSIGN_OR_RETURN(s.plan, planner->BuildPlan(m.graph, s.schedule,
                                                  s.profile, s.capacity));
    }
    {
      ScopedSpan span(rec, "GenerateProgram", "rewrite", unit);
      ASSIGN_OR_RETURN(s.program, rewrite::GenerateProgram(
                                      m.graph, s.schedule, s.plan, s.profile));
    }
    // Configured as Trainer::Step configures its executor.
    s.executor = std::make_unique<runtime::FunctionalExecutor>(
        &m.graph, s.capacity + s.capacity / 4);
    s.executor->set_keep_freed_values(false);
    s.executor->RetainValue(m.loss);
    for (auto [param, grad] : m.autodiff.param_grads) {
      (void)param;
      s.executor->RetainValue(grad);
    }
    setup.first = RunStep(s, m, std::move(batch0), /*keep_grads=*/true, unit,
                          rec);
  }
  setup.seconds = Seconds(start, Clock::now());
  return setup;
}

// The unmanaged Base twin of one step on the Interpreter: same parameters,
// same batch, same read-back, and an optimizer update of a throwaway copy.
struct TwinOutcome {
  Status status;
  float loss = 0;
  ParamMap grads;
  double seconds = 0;
};

TwinOutcome RunTwin(runtime::Interpreter& interp,
                    runtime::SgdOptimizer& optimizer, const models::Model& m,
                    ParamMap params, Batch batch, int unit,
                    SpanRecorder* rec) {
  TwinOutcome out;
  const Clock::time_point start = Clock::now();
  {
    ScopedSpan twin_span(rec, "Interpreter step", "interpreter", unit);
    out.status = [&]() -> Status {
      {
        ScopedSpan span(rec, "Interpreter::Bind", "interpreter", unit);
        for (const auto& [id, value] : params) {
          RETURN_IF_ERROR(interp.Bind(id, value));
        }
        RETURN_IF_ERROR(interp.Bind(m.input, std::move(batch.input)));
        RETURN_IF_ERROR(interp.Bind(m.labels, std::move(batch.labels)));
      }
      {
        ScopedSpan span(rec, "Interpreter::Run", "interpreter", unit);
        RETURN_IF_ERROR(interp.Run());
      }
      {
        ScopedSpan span(rec, "Interpreter::ValueOf", "interpreter", unit);
        for (auto [param, grad] : m.autodiff.param_grads) {
          ASSIGN_OR_RETURN(const Tensor* value, interp.ValueOf(grad));
          out.grads[param] = *value;
        }
        ASSIGN_OR_RETURN(const Tensor* loss, interp.ValueOf(m.loss));
        out.loss = loss->at(0);
      }
      ScopedSpan span(rec, "SgdOptimizer::Step (twin)", "interpreter", unit);
      return optimizer.Step(&params, out.grads);
    }();
  }
  out.seconds = Seconds(start, Clock::now());
  return out;
}

// Empty when the managed step reproduces the twin under the plan's rule.
std::string ParityFailure(const models::Model& m, const planner::Plan& plan,
                          const StepOutcome& managed,
                          const TwinOutcome& twin) {
  if (!twin.status.ok()) return "interpreter: " + twin.status.ToString();
  if (!LossMatches(managed.loss, twin.loss)) {
    return "loss " + JsonNumber(managed.loss) + " vs interpreter " +
           JsonNumber(twin.loss);
  }
  const ParityRule rule = ParityRuleFor(plan.CountSplit());
  for (auto [param, grad] : m.autodiff.param_grads) {
    auto a = managed.grads.find(param);
    auto b = twin.grads.find(param);
    if (a == managed.grads.end() || b == twin.grads.end()) {
      return "missing gradient " + m.graph.tensor(grad).name;
    }
    std::string why = GradMismatch(a->second, b->second, rule);
    if (!why.empty()) return m.graph.tensor(grad).name + ": " + why;
  }
  return "";
}

// Per-node Op::Compute in schedule order on the step's inputs, one span per
// node; returns the seconds per OpCategory.
constexpr int kNumCategories = static_cast<int>(OpCategory::kReduce) + 1;

Result<std::array<double, kNumCategories>> RunOpsPass(
    const models::Model& m, const Schedule& schedule, ParamMap params,
    Batch batch, int unit, SpanRecorder& rec) {
  std::array<double, kNumCategories> seconds{};
  ScopedSpan pass_span(&rec, "Op::Compute pass", "ops", unit);
  std::unordered_map<TensorId, Tensor> values = std::move(params);
  values[m.input] = std::move(batch.input);
  values[m.labels] = std::move(batch.labels);
  for (OpId op : schedule.order) {
    const OpNode& node = m.graph.node(op);
    std::vector<const Tensor*> inputs;
    for (TensorId t : node.inputs) {
      auto it = values.find(t);
      if (it == values.end()) {
        return Status::Internal("unbound input of " + node.name);
      }
      inputs.push_back(&it->second);
    }
    std::vector<Tensor*> outputs;
    for (TensorId t : node.outputs) {
      values[t] = Tensor(m.graph.tensor(t).shape);
    }
    for (TensorId t : node.outputs) outputs.push_back(&values[t]);
    const int64_t begin = rec.NowNs();
    Status status = node.op->Compute(inputs, outputs);
    const int64_t end = rec.NowNs();
    RETURN_IF_ERROR(status);
    rec.Add(node.name.c_str(), "ops", unit, begin, end);
    seconds[static_cast<size_t>(node.op->category())] +=
        static_cast<double>(end - begin) * 1e-9;
  }
  return seconds;
}

// ----------------------------------------------------------------- results

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> problems;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // human-readable lines before the JSON

  void Fail(std::string why) { problems.push_back(std::move(why)); }
  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

// Losses of this program's first steps vs runtime::Trainer on the same seed
// and batches.
void CrossCheckTrainer(const Workload& w, uint64_t seed,
                       const std::vector<float>& losses, Report& report) {
  auto model = BuildModel(w);
  if (!model.ok()) return report.Fail("trainer model: " + model.status().ToString());
  runtime::TrainerOptions options = kTrainer;
  options.activation_fraction = w.fraction;
  options.init_seed = kInitSeed;
  auto trainer = runtime::Trainer::Create(std::move(*model), options);
  if (!trainer.ok()) {
    return report.Fail("Trainer::Create: " + trainer.status().ToString());
  }
  const models::Model& m = (*trainer)->model();
  for (size_t i = 0; i < losses.size(); ++i) {
    Batch batch = MakeBatch(m, w, seed, static_cast<int>(i));
    auto step = (*trainer)->Step(std::move(batch.input),
                                 std::move(batch.labels));
    if (!step.ok()) {
      return report.Fail("Trainer::Step: " + step.status().ToString());
    }
    if (!LossMatches(losses[i], step->loss)) {
      return report.Fail("step " + std::to_string(i) + " loss " +
                         JsonNumber(losses[i]) + " differs from Trainer's " +
                         JsonNumber(step->loss));
    }
  }
}

void PrintReport(const Report& report) {
  for (const std::string& note : report.notes) std::printf("# %s\n", note.c_str());
  for (const std::string& problem : report.problems) {
    std::printf("# FAILED: %s\n", problem.c_str());
  }
  for (const Metric& metric : report.metrics) {
    std::printf("# %-34s %16s %s\n", metric.name.c_str(),
                JsonNumber(metric.value).c_str(), metric.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += report.problems.empty() && report.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& metric = report.metrics[i];
    if (i > 0) json += ", ";
    json += "\"" + metric.name + "\": {\"value\": " + JsonNumber(metric.value) +
            ", \"unit\": \"" + metric.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// Records a step's outcome; false when the run cannot continue.
bool CountStep(const StepOutcome& step, int index, Report& report) {
  ++report.attempted;
  if (step.status.ok() && std::isfinite(step.loss)) return true;
  ++report.failed;
  report.Fail("step " + std::to_string(index) + ": " +
              (step.status.ok() ? "loss " + JsonNumber(step.loss)
                                : step.status.ToString()));
  return false;
}

// Trains `s` untimed for kWarmupSeconds; false when a step failed.
bool WarmUp(TrainerState& s, const models::Model& m, const Workload& w,
            uint64_t seed, Report& report) {
  const Clock::time_point start = Clock::now();
  for (int step = 1; Seconds(start, Clock::now()) < kWarmupSeconds; ++step) {
    StepOutcome out =
        RunStep(s, m, MakeBatch(m, w, seed, step), false, step, nullptr);
    if (!CountStep(out, step, report)) return false;
  }
  return true;
}

void CheckParity(const models::Model& m, const planner::Plan& plan,
                 const StepOutcome& managed, const TwinOutcome& twin,
                 int index, Report& report) {
  std::string why = ParityFailure(m, plan, managed, twin);
  if (why.empty()) return;
  ++report.failed;
  report.Fail("parity at step " + std::to_string(index) + ": " + why);
}

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
};

// ---------------------------------------------------------- untraced run

void RunEndToEnd(const models::Model& m, const Args& args, Report& report) {
  const Workload& w = *args.workload;
  const ParamMap init = InitialParams(m);

  std::vector<double> setup_seconds;
  std::unique_ptr<TrainerState> state;
  StepOutcome first;
  for (int k = -1; k < kSetups; ++k) {
    state.reset();  // a set-up starts with no executor alive
    auto setup = RunSetup(m, w, init, MakeBatch(m, w, args.seed, 0), -1 - k,
                          nullptr);
    if (!setup.ok()) return report.Fail("set-up: " + setup.status().ToString());
    if (!CountStep(setup->first, 0, report)) return;
    if (k < 0 && !WarmUp(*setup->state, m, w, args.seed, report)) return;
    if (k >= 0) setup_seconds.push_back(setup->seconds);
    state = std::move(setup->state);
    first = std::move(setup->first);
  }
  TrainerState& s = *state;
  runtime::Interpreter interp(&m.graph);
  runtime::SgdOptimizer twin_optimizer(kTrainer.learning_rate,
                                       kTrainer.momentum);
  CheckParity(m, s.plan, first,
              RunTwin(interp, twin_optimizer, m, init,
                      MakeBatch(m, w, args.seed, 0), 0, nullptr),
              0, report);
  std::vector<float> losses = {first.loss};

  // Parity-checked steps keep their inputs and results; their Interpreter
  // twins run after the timed loop so that they do not disturb it.
  struct ParityCase {
    int step;
    ParamMap params;
    Batch batch;
    StepOutcome managed;
  };
  std::vector<ParityCase> checks;
  std::vector<double> step_seconds;
  Clock::time_point loop_start = Clock::now();
  double next_parity = 0;
  for (int step = 1; step <= kWarmupSteps ||
                     Seconds(loop_start, Clock::now()) < args.seconds ||
                     step_seconds.size() < kMinTimedSteps;
       ++step) {
    if (step == kWarmupSteps + 1) loop_start = Clock::now();
    bool parity = step < kTrainerSteps;
    if (step > kWarmupSteps &&
        Seconds(loop_start, Clock::now()) >= next_parity) {
      parity = true;
      next_parity += args.seconds / kParityChecks;
    }
    Batch batch = MakeBatch(m, w, args.seed, step);
    ParityCase check{step, {}, {}, {}};
    if (parity) {
      check.params = s.params;
      check.batch = batch;
    }
    StepOutcome out = RunStep(s, m, std::move(batch), parity, step, nullptr);
    if (!CountStep(out, step, report)) return;
    if (step > kWarmupSteps) step_seconds.push_back(out.seconds);
    if (step < kTrainerSteps) losses.push_back(out.loss);
    if (parity) {
      check.managed = std::move(out);
      checks.push_back(std::move(check));
    }
  }
  for (ParityCase& check : checks) {
    CheckParity(m, s.plan, check.managed,
                RunTwin(interp, twin_optimizer, m, std::move(check.params),
                        std::move(check.batch), check.step, nullptr),
                check.step, report);
  }
  CrossCheckTrainer(w, args.seed, losses, report);

  // Throughput and p95 are taken per window of kMinTimedSteps steps, and
  // the median over windows is reported.
  auto p95 = MedianOverWindows(step_seconds, kMinTimedSteps,
                               [](std::vector<double> window) {
                                 return TailPercentile(std::move(window), 0.95);
                               });
  if (!p95.ok()) return report.Fail(p95.status().ToString());
  auto samples_per_s = MedianOverWindows(
      step_seconds, kMinTimedSteps,
      [&](std::vector<double> window) -> Result<double> {
        return w.batch * static_cast<double>(window.size()) /
               std::accumulate(window.begin(), window.end(), 0.0);
      });
  if (!samples_per_s.ok()) return report.Fail(samples_per_s.status().ToString());
  report.notes.push_back(
      "timed steps " + std::to_string(step_seconds.size()) + " in " +
      std::to_string(std::max<size_t>(1, step_seconds.size() / kMinTimedSteps)) +
      " windows (step_s sample count), set-ups " +
      std::to_string(setup_seconds.size()));
  report.Add("samples_per_s", *samples_per_s, "samples/s");
  report.Add("step_s.p50", Median(step_seconds), "s");
  report.Add("step_s.p95", *p95, "s");
  report.Add("setup_s", Median(setup_seconds), "s");
  report.Add("peak_device_bytes",
             static_cast<double>(s.executor->peak_device_bytes()), "B");
  report.Add("passed_step_share",
             1.0 - static_cast<double>(report.failed) / report.attempted,
             "fraction");
}

// ------------------------------------------------------------ traced run

// Sum of span durations per (unit, name) and self time per (unit, layer).
struct SpanTables {
  std::map<std::pair<int, std::string>, double> by_name;
  std::map<std::pair<int, std::string>, double> self_by_layer;
};

SpanTables Tabulate(const std::vector<Span>& spans) {
  SpanTables t;
  std::vector<double> self = SelfSeconds(spans);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    t.by_name[{span.step, span.name}] +=
        static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
    t.self_by_layer[{span.step, span.layer}] += self[i];
  }
  return t;
}

// Median over `units` of the summed duration of spans called `name`.
double MedianByName(const SpanTables& t, const std::vector<int>& units,
                    const std::string& name) {
  std::vector<double> values;
  for (int unit : units) {
    auto it = t.by_name.find({unit, name});
    values.push_back(it == t.by_name.end() ? 0.0 : it->second);
  }
  return values.empty() ? 0.0 : Median(values);
}

void RunTraced(const models::Model& m, const Args& args, Report& report) {
  const Workload& w = *args.workload;
  const ParamMap init = InitialParams(m);
  SpanRecorder rec;

  std::vector<int> setup_units;
  std::unique_ptr<TrainerState> state;
  StepOutcome first;
  for (int k = -1; k < kTracedSetups; ++k) {
    state.reset();
    const int unit = -2 - k;  // the untimed first set-up gets unit -1
    auto setup = RunSetup(m, w, init, MakeBatch(m, w, args.seed, 0), unit,
                          k < 0 ? nullptr : &rec);
    if (!setup.ok()) return report.Fail("set-up: " + setup.status().ToString());
    if (!CountStep(setup->first, 0, report)) return;
    if (k < 0 && !WarmUp(*setup->state, m, w, args.seed, report)) return;
    if (k >= 0) setup_units.push_back(unit);
    state = std::move(setup->state);
    first = std::move(setup->first);
  }
  TrainerState& s = *state;
  const runtime::CompiledProgram* cp = s.executor->compiled_program();
  if (cp == nullptr) return report.Fail("no compiled artifact after Run");
  const int verify_unit = -2 - kTracedSetups;
  {
    ScopedSpan span(&rec, "VerifyCompiled", "analysis", verify_unit);
    auto diagnostics = analysis::VerifyCompiled(m.graph, s.program, *cp);
    Status clean = analysis::ToStatus(diagnostics, &m.graph);
    if (!clean.ok()) report.Fail("VerifyCompiled: " + clean.ToString());
  }

  runtime::Interpreter interp(&m.graph);
  runtime::SgdOptimizer twin_optimizer(kTrainer.learning_rate,
                                       kTrainer.momentum);
  std::vector<float> losses = {first.loss};
  std::vector<double> untraced_seconds, traced_seconds, twin_seconds;
  std::vector<std::array<double, kNumCategories>> ops_passes;
  std::vector<int> step_units;
  int step = 1;
  const Clock::time_point loop_start = Clock::now();
  double next_ops_pass = 0;
  for (int round = 0; Seconds(loop_start, Clock::now()) < args.seconds ||
                      round < kMinRounds;
       ++round) {
    // Alternate which of the pair runs first, so drift hits both alike.
    for (int half = 0; half < 2; ++half) {
      const bool traced = (half == 0) == (round % 2 == 0);
      Batch batch = MakeBatch(m, w, args.seed, step);
      if (!traced) {
        StepOutcome out = RunStep(s, m, std::move(batch), false, step, nullptr);
        if (!CountStep(out, step, report)) return;
        untraced_seconds.push_back(out.seconds);
        if (step < kTrainerSteps) losses.push_back(out.loss);
        ++step;
        continue;
      }
      ParamMap params_before = s.params;
      Batch batch_copy = batch;
      StepOutcome out = RunStep(s, m, std::move(batch), true, step, &rec);
      if (!CountStep(out, step, report)) return;
      traced_seconds.push_back(out.seconds);
      step_units.push_back(step);
      if (step < kTrainerSteps) losses.push_back(out.loss);
      if (Seconds(loop_start, Clock::now()) >= next_ops_pass) {
        auto pass =
            RunOpsPass(m, s.schedule, params_before, batch_copy, step, rec);
        if (!pass.ok()) return report.Fail("ops: " + pass.status().ToString());
        ops_passes.push_back(*pass);
        next_ops_pass += args.seconds / kOpsPasses;
      }
      TwinOutcome twin =
          RunTwin(interp, twin_optimizer, m, std::move(params_before),
                  std::move(batch_copy), step, &rec);
      twin_seconds.push_back(twin.seconds);
      CheckParity(m, s.plan, out, twin, step, report);
      ++step;
    }
  }
  CrossCheckTrainer(w, args.seed, losses, report);

  const SpanTables t = Tabulate(rec.spans());
  const double step_p50 = Median(untraced_seconds);
  const double run_p50 = MedianByName(t, step_units, "FunctionalExecutor::Run");
  std::vector<double> ops_total;
  for (const auto& pass : ops_passes) {
    ops_total.push_back(std::accumulate(pass.begin(), pass.end(), 0.0));
  }
  const double ops_compute = Median(ops_total);
  report.notes.push_back(
      "traced steps " + std::to_string(traced_seconds.size()) +
      ", untraced steps " + std::to_string(untraced_seconds.size()) +
      ", interpreter twins " + std::to_string(twin_seconds.size()) +
      ", op passes " + std::to_string(ops_total.size()) + ", set-ups " +
      std::to_string(setup_units.size()));

  // graph / planner / rewrite: set-up calls.
  report.Add("graph.schedule_s", MedianByName(t, setup_units, "BuildSchedule"),
             "s");
  report.Add("planner.profile_s", MedianByName(t, setup_units, "ProfileGraph"),
             "s");
  report.Add("planner.plan_s",
             MedianByName(t, setup_units, "TsplitPlanner::BuildPlan"), "s");
  report.Add("planner.rounds", static_cast<double>(s.plan.stats.rounds),
             "count");
  report.Add("planner.candidates_scored",
             static_cast<double>(s.plan.stats.candidates_scored), "count");
  report.Add("planner.swap_tensors", s.plan.CountOpt(MemOpt::kSwap), "count");
  report.Add("planner.split_tensors", s.plan.CountSplit(), "count");
  report.Add("planner.recompute_tensors", s.plan.CountOpt(MemOpt::kRecompute),
             "count");
  report.Add("planner.swap_bytes",
             static_cast<double>(s.plan.BytesWithOpt(m.graph, MemOpt::kSwap)),
             "B");
  report.Add("rewrite.generate_s",
             MedianByName(t, setup_units, "GenerateProgram"), "s");
  report.Add("rewrite.program_steps",
             static_cast<double>(s.program.steps.size()), "count");
  report.Add("rewrite.swap_bytes",
             static_cast<double>(s.program.swap_out_bytes +
                                 s.program.swap_in_bytes),
             "B");
  report.Add("rewrite.micro_computes", s.program.num_micro_computes, "count");

  // runtime/compiled_program + runtime/passes: the artifact of the last
  // set-up; the first Run pays lowering and the pass pipeline.
  report.Add("compile.first_run_s",
             MedianByName(t, setup_units, "FunctionalExecutor::Run") - run_p50,
             "s");
  int changed = 0, rolled_back = 0;
  for (const char* pass : {"dce", "color", "autotune", "reorder", "batch"}) {
    double seconds = 0;
    for (const runtime::PassStats& stats : cp->pass_stats) {
      if (stats.name == pass) seconds += stats.wall_seconds;
    }
    report.Add(std::string("compile.pass.") + pass + "_s", seconds, "s");
  }
  for (const runtime::PassStats& stats : cp->pass_stats) {
    changed += stats.changed ? 1 : 0;
    rolled_back += stats.rolled_back ? 1 : 0;
  }
  report.Add("compile.passes_changed", changed, "count");
  report.Add("compile.passes_rolled_back", rolled_back, "count");
  report.Add("compile.instrs_lowered",
             static_cast<double>(cp->pass_stats.empty()
                                     ? cp->instrs.size()
                                     : cp->pass_stats.front().instrs_before),
             "count");
  report.Add("compile.instrs", static_cast<double>(cp->instrs.size()), "count");
  report.Add("compile.slots", static_cast<double>(cp->slots.size()), "count");
  report.Add("compile.static_bytes",
             static_cast<double>(cp->StaticFootprintBytes()), "B");
  report.Add("analysis.verify_compiled_s",
             MedianByName(t, {verify_unit}, "VerifyCompiled"), "s");

  // runtime executor, optimizer, ops, interpreter: steady-state steps.
  const double interp_p50 = Median(twin_seconds);
  report.Add("executor.run_s.p50", run_p50, "s");
  report.Add("executor.bind_s.p50",
             MedianByName(t, step_units, "FunctionalExecutor::Bind"), "s");
  report.Add("executor.readback_s.p50",
             MedianByName(t, step_units, "FunctionalExecutor::ValueOf"), "s");
  report.Add("executor.overhead_s", run_p50 - ops_compute, "s");
  report.Add("executor.relative_throughput", interp_p50 / step_p50, "ratio");
  report.Add("optimizer.step_s.p50",
             MedianByName(t, step_units, "SgdOptimizer::Step"), "s");
  report.Add("ops.compute_s", ops_compute, "s");
  for (int c = 0; c < kNumCategories; ++c) {
    std::vector<double> values;
    for (const auto& pass : ops_passes) values.push_back(pass[static_cast<size_t>(c)]);
    report.Add(std::string("ops.") +
                   OpCategoryToString(static_cast<OpCategory>(c)) + "_s",
               Median(values), "s");
  }
  report.Add("interpreter.step_s.p50", interp_p50, "s");
  report.Add("trace.overhead_s", Median(traced_seconds) - step_p50, "s");

  // Self time per layer: median over the units (steps, or set-ups for the
  // layers only set-up calls) in which the layer ran.
  for (const char* layer : {"bench", "graph", "planner", "rewrite", "analysis",
                            "runtime", "optimizer", "interpreter", "ops"}) {
    std::vector<double> in_steps, in_setups;
    for (const auto& [key, seconds] : t.self_by_layer) {
      if (key.second != layer) continue;
      (key.first >= 0 ? in_steps : in_setups).push_back(seconds);
    }
    const auto& values = in_steps.empty() ? in_setups : in_steps;
    report.Add(std::string("self.") + layer + "_s",
               values.empty() ? 0.0 : Median(values), "s");
  }

  // One file per workload, replaced by each traced run.
  const std::string path = args.out_dir + "/" + w.name + ".trace.json";
  std::ofstream file(path);
  file << ToChromeTrace(rec.spans(),
                        {{"workload", w.name},
                         {"seed", std::to_string(args.seed)},
                         {"nproc", std::to_string(Nproc())},
                         {"kernel_threads", std::to_string(kKernelThreads)},
                         {"build_type", TRAINBENCH_BUILD_TYPE}});
  if (!file) return report.Fail("cannot write " + path);
  report.notes.push_back("span file " + path + " (" +
                         std::to_string(rec.spans().size()) + " spans)");
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "%s\nusage: trainbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\nworkloads:",
               why);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) args.workload = &w;
      }
      if (args.workload == nullptr) return Usage("unknown workload");
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload == nullptr) return Usage("--workload is required");

  std::vector<std::string> environment;
  for (char** e = environ; *e != nullptr; ++e) environment.emplace_back(*e);
#ifdef NDEBUG
  const bool asserts_enabled = false;
#else
  const bool asserts_enabled = true;
#endif
  Status guard =
      CheckEnvironment(environment, TRAINBENCH_BUILD_TYPE, asserts_enabled);
  if (!guard.ok()) {
    std::fprintf(stderr, "trainbench: %s\n", guard.ToString().c_str());
    return 2;
  }
  core::SetNumThreads(kKernelThreads);

  auto model = BuildModel(*args.workload);
  if (!model.ok()) {
    std::fprintf(stderr, "trainbench: %s\n", model.status().ToString().c_str());
    return 2;
  }
  Report report;
  report.notes.push_back(std::string("workload ") + args.workload->name +
                         " seed " + std::to_string(args.seed) + " nproc " +
                         std::to_string(Nproc()) +
                         " kernel_threads " + std::to_string(core::NumThreads()) +
                         " build " + TRAINBENCH_BUILD_TYPE);
  if (args.trace) {
    RunTraced(*model, args, report);
  } else {
    RunEndToEnd(*model, args, report);
  }
  if (report.attempted == 0) report.Fail("no step ran");
  PrintReport(report);
  return report.problems.empty() && report.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace trainbench

int main(int argc, char** argv) { return trainbench::Main(argc, argv); }
