#ifndef STREAMBENCH_WORKLOAD_H_
#define STREAMBENCH_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/corruption.hpp"
#include "eval/durable_guard.hpp"
#include "eval/stream_runner.hpp"
#include "probe.hpp"

/// \file workload.hpp
/// \brief The benchmark's two workloads: how each one's input stream is
/// generated from the seed, and how its method stack is assembled from the
/// library's public pieces (SofiaStream, StreamGuard, DurableGuard) with
/// probes between the layers.

namespace streambench {

/// Fig. 7 generator at the size of the paper's largest real dataset
/// (NYC Taxi, 265 x 265 zones), rank 5, period m = 7.
constexpr size_t kRows = 265;
constexpr size_t kCols = 265;
constexpr size_t kRank = 5;
constexpr size_t kPeriod = 7;
/// Post-init slices per stream: p99 then has ten samples beyond it.
constexpr size_t kPostInitSteps = 1000;
/// Executor workers (== SOFIA num_threads) at pipeline depth 1, on every
/// workload: on a shared 4-vCPU VM, 2 workers or an aux-lane ingest handoff
/// per slice made step times between runs swing by far more than any
/// usable bound (streambench/README.md).
constexpr size_t kWorkers = 1;

struct WorkloadSpec {
  std::string name;
  sofia::CorruptionSetting setting;  ///< Unused by guarded-durable.
  bool guarded = false;     ///< DurableGuard(StreamGuard(SofiaStream)).
};

/// nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);

/// Everything a pass consumes, generated before any timer starts.
struct Inputs {
  sofia::CorruptedStream stream;             ///< What the stack eats.
  std::vector<sofia::DenseTensor> truth;     ///< Scoring truth, per slice.
  /// The m ground-truth slices right after the fed stream, the targets of
  /// ForecastLazy(1..m).
  std::vector<sofia::DenseTensor> forecast_truth;
  size_t init_window = 0;
};

/// Generates `init window + kPostInitSteps` fed slices plus m forecast
/// slices from `seed`. The corruption sees all of them, as in the
/// library's forecasting protocol; the last m are then held out.
Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed);

/// Probe totals of one assembled stack.
struct LayerTotals {
  ProbeTotals top;    ///< Outermost: first-step clock, stack-wide totals.
  ProbeTotals guard;  ///< StreamGuard's StepLazy (guarded only).
  ProbeTotals sofia;  ///< SofiaStream: init, step, save, restore.

  void Reset() {
    top.Reset();
    guard.Reset();
    sofia.Reset();
  }
};

/// One assembled stack. `top` owns every layer; the raw pointers view the
/// guards inside it (null on unguarded workloads).
struct Stack {
  std::unique_ptr<sofia::StreamingMethod> top;
  sofia::DurableGuard* durable = nullptr;
};

/// Unguarded: top probe -> sofia probe -> SofiaStream.
/// Guarded:   top probe -> DurableGuard -> guard probe -> StreamGuard
///            (rollback) -> sofia probe -> SofiaStream.
/// Every knob keeps its library default except SOFIA's num_threads
/// (= kWorkers) and the durable state directory. With an `init_cache`, the
/// sofia probe memoizes SofiaStream's Initialize across stacks.
Stack BuildStack(const WorkloadSpec& spec, const std::string& state_dir,
                 LayerTotals* totals, InitCache* init_cache = nullptr);

sofia::StreamEvalOptions PipelineOptions();

}  // namespace streambench

#endif  // STREAMBENCH_WORKLOAD_H_
