#ifndef SOFIA_EVAL_STREAM_PIPELINE_H_
#define SOFIA_EVAL_STREAM_PIPELINE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "data/corruption.hpp"
#include "eval/stream_runner.hpp"
#include "eval/streaming_method.hpp"
#include "tensor/coo_list.hpp"
#include "util/shard_executor.hpp"

/// \file stream_pipeline.hpp
/// \brief The sharded, pipelined streaming runtime behind the comparison
/// protocol.
///
/// RunImputationComparison's loop interleaves three kinds of work per
/// slice: *ingest* (mask compare, shared CooList/CSF pattern build,
/// held-out eval-pattern sampling, truth gathers), *compute* (every
/// method's StepLazy), and *scoring* (estimate gathers + NRE). The
/// StreamPipeline splits them across a persistent ShardExecutor:
///
///  - Compute and scoring gathers run on the executor's sharded lane.
///    Every kernel task is keyed to a CSF root slab, and the executor's
///    static partition hands worker w the same contiguous slab range on
///    every call — slab ownership is stable across the whole stream, so a
///    worker's private-cache working set stays warm step after step.
///  - Ingest runs in batches of `window` slices. At pipeline_depth >= 2 the
///    batches execute on the executor's aux lane up to depth-1 windows
///    ahead of compute: slice t+1's pattern/CSF-delta build overlaps slice
///    t's solves. Ingest batches are FIFO on one thread, so the sequential
///    mask-cache and CSF-delta-chain dependencies hold unchanged.
///  - Kernel reduction scratch comes from the executor's slot-keyed arena;
///    after warm-up a steady-state step allocates nothing
///    (PipelineTelemetry::arena_growth_steady pins zero).
///
/// Scores are bitwise identical across every (workers, pipeline_depth,
/// window) combination, and identical to the pre-pipeline sequential
/// runner: kernel tasks write disjoint state and slab partials combine in
/// slab order, so only wall-clock shape moves (pinned by
/// tests/stream_pipeline_test.cc).

namespace sofia {

/// Persistent sharded runtime for one stream + truth pair. Owns the
/// ShardExecutor, the ingest ring, and the shared pattern cache; Run()
/// drives a set of methods through the stream under the options' knobs.
/// Reusable: consecutive Run() calls share the executor (and its warm
/// arena), which is how windowed re-runs and mid-stream drains are tested.
class StreamPipeline {
 public:
  StreamPipeline(const CorruptedStream& stream,
                 const std::vector<DenseTensor>& truth,
                 StreamEvalOptions options = {});
  /// Drains in-flight ingest work before tearing down the ring.
  ~StreamPipeline();

  StreamPipeline(const StreamPipeline&) = delete;
  StreamPipeline& operator=(const StreamPipeline&) = delete;

  /// Drive `methods` through slices [0, limit) — limit 0 means the whole
  /// stream. A limit that stops mid-stream still returns cleanly: prefetched
  /// ingest jobs beyond the limit are drained, never leaked. Each call
  /// resets the pattern cache and telemetry (methods keep their own state;
  /// initialize/step semantics match RunImputationComparison exactly).
  std::vector<MethodRunResult> Run(
      const std::vector<StreamingMethod*>& methods, size_t limit = 0);

  /// The shared runtime, e.g. for arena/ownership inspection in tests.
  ShardExecutor* executor() { return executor_.get(); }
  const PipelineTelemetry& telemetry() const { return telemetry_; }

 private:
  /// Everything compute needs about one ingested slice.
  struct SliceIngest {
    std::shared_ptr<const CooList> pattern;
    std::shared_ptr<const CooList> eval_pattern;
    std::vector<double> truth_observed;
    std::vector<double> truth_missing;
  };

  /// Ingest one batch of slices into its ring slot. Runs inline at depth 1,
  /// as an aux-lane job otherwise (FIFO — the mask cache and CSF delta
  /// chain advance strictly in stream order either way).
  void IngestWindow(size_t w, size_t limit);
  void SubmitIngest(size_t w, size_t limit);
  size_t NumWindows(size_t limit) const;

  const CorruptedStream& stream_;
  const std::vector<DenseTensor>& truth_;
  StreamEvalOptions options_;
  PipelineTelemetry telemetry_;

  // Ingest ring: pipeline_depth window slots, each `window` slices.
  std::vector<std::vector<SliceIngest>> ring_;
  std::vector<uint64_t> tickets_;

  // Shared pattern cache, advanced only by ingest (one thread at a time:
  // the aux thread at depth >= 2, the driver at depth 1; Wait() barriers
  // order every hand-off). The pattern is the only record of the cached
  // observed set: the reuse check walks its records against the incoming
  // mask. cache_mask_ is the stream mask it was built from, probed by the
  // rebuild telemetry.
  const Mask* cache_mask_ = nullptr;
  std::shared_ptr<const CooList> cache_pattern_;
  std::shared_ptr<const CooList> cache_eval_;
  size_t pattern_builds_ = 0;
  size_t pattern_reuses_ = 0;
  std::vector<size_t> pattern_delta_sizes_;

  // Declared last: destroyed first, draining aux jobs that reference the
  // ring and cache members above.
  std::unique_ptr<ShardExecutor> executor_;
};

/// One-shot wrapper: construct a StreamPipeline and Run the methods through
/// the whole stream. RunImputationComparison delegates here.
std::vector<MethodRunResult> RunStreamPipeline(
    const std::vector<StreamingMethod*>& methods,
    const CorruptedStream& stream, const std::vector<DenseTensor>& truth,
    const StreamEvalOptions& options = {});

}  // namespace sofia

#endif  // SOFIA_EVAL_STREAM_PIPELINE_H_
