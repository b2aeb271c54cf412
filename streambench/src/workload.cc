#include "workload.hpp"

#include <utility>

#include "core/sofia_stream.hpp"
#include "data/scenarios.hpp"
#include "data/synthetic.hpp"
#include "eval/stream_guard.hpp"

namespace streambench {

namespace {

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> specs = {
      // The paper's setting: the harshest grid point with a fresh Bernoulli
      // mask every step, so every step rebuilds the shared pattern.
      {"fresh-mask", {70.0, 20.0, 5.0}, false},
      // The deployed stack over the combined-stress scenario: checkpoint
      // writes (StreamGuard ring, DurableGuard journal + snapshots) beside
      // reads (Recover), all on the driver thread (see BuildStack).
      {"guarded-durable", {}, true},
  };
  return specs;
}

/// Splits the last `horizon` slices of a corrupted (stream, truth) pair off
/// as the forecast targets.
void HoldOutHorizon(size_t horizon, Inputs* in) {
  const size_t fed = in->truth.size() - horizon;
  in->forecast_truth.assign(std::make_move_iterator(in->truth.begin() + fed),
                            std::make_move_iterator(in->truth.end()));
  in->truth.resize(fed);
  in->stream.slices.resize(fed);
  in->stream.masks.resize(fed);
  in->stream.outlier_positions.resize(fed);
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed) {
  Inputs in;
  in.init_window = sofia::SofiaConfig{}.InitWindow();
  const size_t total = in.init_window + kPostInitSteps + kPeriod;
  std::vector<sofia::DenseTensor> truth = sofia::MakeScalabilityStream(
      kRows, kCols, total, kRank, kPeriod, seed);
  if (spec.guarded) {
    sofia::ScenarioOptions options;
    // Garbage slices start past SOFIA's 3m init window.
    options.garbage_offset = in.init_window + 4;
    sofia::ScenarioStream scenario = sofia::MakeScenario(
        sofia::ScenarioKind::kCombinedStress, truth, options, seed + 1);
    truth = {};
    in.stream = std::move(scenario.stream);
    in.truth = std::move(scenario.truth);
  } else {
    in.stream = sofia::Corrupt(truth, spec.setting, seed + 1);
    in.truth = std::move(truth);
  }
  HoldOutHorizon(kPeriod, &in);
  return in;
}

Stack BuildStack(const WorkloadSpec& spec, const std::string& state_dir,
                 LayerTotals* totals, InitCache* init_cache) {
  sofia::SofiaConfig config;
  config.num_threads = kWorkers;
  std::unique_ptr<sofia::StreamingMethod> method = std::make_unique<LayerProbe>(
      std::make_unique<sofia::SofiaStream>(config),
      ProbeSpans{"probe.sofia.init", "probe.sofia.step", "probe.sofia.save",
                 "probe.sofia.restore"},
      &totals->sofia, init_cache);
  Stack stack;
  if (spec.guarded) {
    method = std::make_unique<LayerProbe>(
        std::make_unique<sofia::StreamGuard>(std::move(method)),
        ProbeSpans{nullptr, "probe.guard.step", nullptr, nullptr},
        &totals->guard);
    sofia::DurableGuardOptions options;
    options.state_dir = state_dir;
    auto durable =
        std::make_unique<sofia::DurableGuard>(std::move(method), options);
    stack.durable = durable.get();
    method = std::move(durable);
  }
  // The guards keep their IO and checkpoints on the driver thread: handed
  // the executor's aux lane instead, their step times moved by up to 25%
  // between sets of runs of the same code on a shared 4-vCPU VM.
  stack.top = std::make_unique<LayerProbe>(
      std::move(method), ProbeSpans{}, &totals->top, nullptr,
      /*forward_pool=*/!spec.guarded);
  return stack;
}

sofia::StreamEvalOptions PipelineOptions() {
  sofia::StreamEvalOptions options;
  options.workers = kWorkers;
  options.pipeline_depth = 1;
  return options;
}

}  // namespace streambench
