#include "eval/stream_pipeline.hpp"

#include <algorithm>
#include <utility>

#include "baselines/observed_sweep.hpp"
#include "eval/run_helpers.hpp"
#include "obs/obs.hpp"
#include "tensor/csf_tensor.hpp"
#include "util/check.hpp"
#include "util/stopwatch.hpp"

namespace sofia {

using eval_detail::AttachGuardTelemetry;
using eval_detail::BuildEvalPattern;
using eval_detail::FinalizeRunMetrics;
using eval_detail::RunInitWindow;
using eval_detail::ScoreScratch;
using eval_detail::ScoreStep;

namespace {

/// Registry handles for the pipeline stages, looked up once. The time.*
/// counters partition the driver thread's wall clock: init + ingest +
/// stall + compute + score must account for time.pipeline.wall_us
/// (ingest_async runs on the aux lane and overlaps, so it is reported but
/// not part of the driver identity — tools/obs_report pins the sum).
struct PipelineMetrics {
  obs::Counter* init_us;
  obs::Counter* ingest_us;
  obs::Counter* ingest_async_us;
  obs::Counter* stall_us;
  obs::Counter* compute_us;
  obs::Counter* score_us;
  obs::Counter* wall_us;
  obs::Counter* steps;
  obs::Counter* windows;
  obs::Counter* pattern_builds;
  obs::Counter* pattern_reuses;
  obs::Histogram* step_latency_us;
  obs::Gauge* arena_growth;
};

PipelineMetrics& Metrics() {
  obs::Registry& r = obs::Registry::Global();
  static PipelineMetrics m{
      r.FindOrCreateCounter("time.pipeline.init_us"),
      r.FindOrCreateCounter("time.pipeline.ingest_us"),
      r.FindOrCreateCounter("time.pipeline.ingest_async_us"),
      r.FindOrCreateCounter("time.pipeline.stall_us"),
      r.FindOrCreateCounter("time.pipeline.compute_us"),
      r.FindOrCreateCounter("time.pipeline.score_us"),
      r.FindOrCreateCounter("time.pipeline.wall_us"),
      r.FindOrCreateCounter("pipeline.steps"),
      r.FindOrCreateCounter("pipeline.windows"),
      r.FindOrCreateCounter("pipeline.pattern_builds"),
      r.FindOrCreateCounter("pipeline.pattern_reuses"),
      r.FindOrCreateHistogram("pipeline.step_latency_us"),
      r.FindOrCreateGauge("pipeline.arena_growth_events"),
  };
  return m;
}

}  // namespace

StreamPipeline::StreamPipeline(const CorruptedStream& stream,
                               const std::vector<DenseTensor>& truth,
                               StreamEvalOptions options)
    : stream_(stream), truth_(truth), options_(std::move(options)) {
  SOFIA_CHECK_EQ(stream_.slices.size(), truth_.size());
  if (options_.pipeline_depth == 0) options_.pipeline_depth = 1;
  if (options_.window == 0) options_.window = 1;
  ring_.resize(options_.pipeline_depth);
  for (std::vector<SliceIngest>& slot : ring_) slot.resize(options_.window);
  tickets_.assign(options_.pipeline_depth, 0);
  executor_ =
      std::make_unique<ShardExecutor>(ResolveNumThreads(options_.workers));
}

StreamPipeline::~StreamPipeline() {
  // executor_ is declared last, so it is destroyed first — its destructor
  // drains the aux lane while the ring and cache it references still exist.
}

size_t StreamPipeline::NumWindows(size_t limit) const {
  return (limit + options_.window - 1) / options_.window;
}

void StreamPipeline::IngestWindow(size_t w, size_t limit) {
  Stopwatch timer;
  std::vector<SliceIngest>& slot = ring_[w % ring_.size()];
  const size_t begin = w * options_.window;
  const size_t end = std::min(begin + options_.window, limit);
  for (size_t t = begin; t < end; ++t) {
    SliceIngest& ingest = slot[t - begin];
    const Mask& omega = stream_.masks[t];
    if (cache_pattern_ == nullptr || !cache_pattern_->Matches(omega)) {
      std::shared_ptr<const CooList> previous = std::move(cache_pattern_);
      cache_pattern_ = MakeSharedPattern(omega);
      if (options_.pattern_storage == PatternStorage::kCsf) {
        // Attach once (every method adopts it), patching the previous
        // pattern's trees forward on low-churn mask changes instead of
        // recompiling from scratch.
        EnsureCsfDelta(*cache_pattern_, previous);
      }
      cache_eval_ = BuildEvalPattern(*cache_pattern_,
                                     options_.max_eval_entries);
      // Rebuild telemetry: how far did the mask actually move? |Ω_a Δ Ω_b|
      // = |Ω_a| + |Ω_b| − 2 |Ω_a ∩ Ω_b|, the intersection counted by
      // probing the previous mask at the new records. (The first build has
      // no predecessor and logs no delta.)
      if (previous != nullptr) {
        size_t common = 0;
        for (const size_t idx : cache_pattern_->LinearIndices()) {
          common += cache_mask_->Get(idx) ? 1 : 0;
        }
        pattern_delta_sizes_.push_back(previous->nnz() +
                                       cache_pattern_->nnz() - 2 * common);
      }
      cache_mask_ = &omega;
      ++pattern_builds_;
    } else {
      ++pattern_reuses_;
    }
    ingest.pattern = cache_pattern_;
    ingest.eval_pattern = cache_eval_;
    cache_pattern_->GatherInto(truth_[t], &ingest.truth_observed);
    cache_eval_->GatherInto(truth_[t], &ingest.truth_missing);
  }
  ++telemetry_.ingest_jobs;
  telemetry_.ingest_seconds += timer.ElapsedSeconds();
}

void StreamPipeline::SubmitIngest(size_t w, size_t limit) {
  tickets_[w % tickets_.size()] = executor_->Submit([this, w, limit] {
    obs::ObsSpan span("pipeline.ingest_async", Metrics().ingest_async_us, w,
                      "window");
    IngestWindow(w, limit);
  });
}

std::vector<MethodRunResult> StreamPipeline::Run(
    const std::vector<StreamingMethod*>& methods, size_t limit) {
  obs::ObsSpan run_span("pipeline.run", Metrics().wall_us);
  const size_t total =
      limit == 0 ? truth_.size() : std::min(limit, truth_.size());
  const size_t depth = options_.pipeline_depth;

  // Fresh cache + telemetry per Run; the executor (and its warm arena)
  // persists across calls.
  cache_mask_ = nullptr;
  cache_pattern_.reset();
  cache_eval_.reset();
  pattern_builds_ = 0;
  pattern_reuses_ = 0;
  pattern_delta_sizes_.clear();
  telemetry_ = PipelineTelemetry{};
  telemetry_.workers = executor_->num_threads();
  telemetry_.pipeline_depth = depth;
  telemetry_.window = options_.window;
  telemetry_.steps = total;
  const uint64_t arena_base = executor_->arena()->growth_events();
  uint64_t arena_after_first_window = arena_base;

  // The executor is shared with every method (via the AdoptWorkerPool seam)
  // and drives the scoring gathers; serial consumers ignore a 1-thread
  // pool. Aliasing shared_ptr: the pipeline owns the executor, adoption is
  // borrowed and revoked (AdoptWorkerPool(nullptr)) before Run returns.
  std::shared_ptr<WorkerPool> adopted(executor_.get(),
                                      [](WorkerPool*) {});
  WorkerPool* gather_pool =
      executor_->num_threads() > 1 ? executor_.get() : nullptr;

  std::vector<MethodRunResult> out(methods.size());
  std::vector<size_t> windows(methods.size(), 0);
  std::vector<std::vector<DenseTensor>> completions(methods.size());
  {
    obs::ObsSpan init_span("pipeline.init", Metrics().init_us,
                           methods.size(), "methods");
    for (size_t m = 0; m < methods.size(); ++m) {
      StreamingMethod* method = methods[m];
      method->AdoptWorkerPool(adopted);
      out[m].name = method->name();
      const size_t window = method->init_window();
      SOFIA_CHECK_LE(window, total);
      windows[m] = window;
      out[m].run.nre.reserve(total);
      out[m].run.step_seconds.reserve(total - window);
      completions[m] = RunInitWindow(method, stream_, window, &out[m].run);
    }
  }

  const size_t num_windows = NumWindows(total);
  if (depth > 1) {
    for (size_t w = 0; w < std::min(depth - 1, num_windows); ++w) {
      SubmitIngest(w, total);
    }
  }

  ScoreScratch scratch;
  for (size_t w = 0; w < num_windows; ++w) {
    Metrics().windows->Add(1);
    if (depth == 1) {
      obs::ObsSpan ingest_span("pipeline.ingest", Metrics().ingest_us, w,
                               "window");
      IngestWindow(w, total);
    } else {
      Stopwatch stall;
      {
        obs::ObsSpan stall_span("pipeline.stall", Metrics().stall_us, w,
                                "window");
        executor_->Wait(tickets_[w % depth]);
      }
      telemetry_.ingest_stall_seconds += stall.ElapsedSeconds();
      // Keep the ring full: window w's slot frees up after this compute
      // pass; w + depth - 1 is the furthest window the ring can hold.
      if (w + depth - 1 < num_windows) SubmitIngest(w + depth - 1, total);
    }
    const std::vector<SliceIngest>& slot = ring_[w % ring_.size()];
    const size_t begin = w * options_.window;
    const size_t end = std::min(begin + options_.window, total);
    for (size_t t = begin; t < end; ++t) {
      const SliceIngest& ingest = slot[t - begin];
      for (size_t m = 0; m < methods.size(); ++m) {
        if (t < windows[m]) {
          // Init-window slice: score the stored completion at the same
          // entry sets (Dense handles are not lazy materializations).
          StepResult completed =
              StepResult::Dense(std::move(completions[m][t]));
          obs::ObsSpan score_span("pipeline.score", Metrics().score_us, t,
                                  "slice");
          ScoreStep(completed, *ingest.pattern, *ingest.eval_pattern,
                    ingest.truth_observed, ingest.truth_missing, gather_pool,
                    &scratch, &out[m].run);
          continue;
        }
        StepResult estimate;
        Stopwatch timer;
        {
          obs::ObsSpan compute_span("pipeline.step.compute",
                                    Metrics().compute_us, t, "slice");
          if (options_.force_dense) {
            estimate = StepResult::Dense(
                methods[m]->Step(stream_.slices[t], stream_.masks[t],
                                 ingest.pattern));
          } else {
            estimate = methods[m]->StepLazy(stream_.slices[t],
                                            stream_.masks[t], ingest.pattern);
          }
        }
        const double step_seconds = timer.ElapsedSeconds();
        out[m].run.step_seconds.push_back(step_seconds);
        Metrics().steps->Add(1);
        Metrics().step_latency_us->Observe(step_seconds * 1e6);
        {
          obs::ObsSpan score_span("pipeline.score", Metrics().score_us, t,
                                  "slice");
          ScoreStep(estimate, *ingest.pattern, *ingest.eval_pattern,
                    ingest.truth_observed, ingest.truth_missing, gather_pool,
                    &scratch, &out[m].run);
        }
        obs::StatsTick();
      }
    }
    if (w == 0) {
      arena_after_first_window = executor_->arena()->growth_events();
    }
  }

  // Land every in-flight aux job (tail ingest prefetches on an early
  // limit, async guard checkpoints) before reading shared telemetry.
  {
    // Draining counts as stall: the driver is blocked on the aux lane
    // (tail prefetches, async guard checkpoints).
    obs::ObsSpan drain_span("pipeline.drain", Metrics().stall_us);
    executor_->DrainAux();
  }
  telemetry_.arena_growth_total =
      executor_->arena()->growth_events() - arena_base;
  telemetry_.arena_growth_steady =
      executor_->arena()->growth_events() - arena_after_first_window;

  // Mirror the per-run pattern/arena telemetry onto the registry (the
  // struct fields stay as the per-run compatibility view).
  Metrics().pattern_builds->Add(pattern_builds_);
  Metrics().pattern_reuses->Add(pattern_reuses_);
  Metrics().arena_growth->Set(
      static_cast<double>(executor_->arena()->growth_events()));

  for (size_t m = 0; m < methods.size(); ++m) {
    FinalizeRunMetrics(windows[m], &out[m].run);
    // The pattern cache and runtime are shared, so every method reports
    // the same rebuild + pipeline telemetry.
    out[m].run.pattern_builds = pattern_builds_;
    out[m].run.pattern_reuses = pattern_reuses_;
    out[m].run.pattern_delta_sizes = pattern_delta_sizes_;
    out[m].run.pipelined = true;
    out[m].run.pipeline = telemetry_;
    AttachGuardTelemetry(methods[m], &out[m].run);
    methods[m]->AdoptWorkerPool(nullptr);
  }
  return out;
}

std::vector<MethodRunResult> RunStreamPipeline(
    const std::vector<StreamingMethod*>& methods,
    const CorruptedStream& stream, const std::vector<DenseTensor>& truth,
    const StreamEvalOptions& options) {
  StreamPipeline pipeline(stream, truth, options);
  return pipeline.Run(methods);
}

}  // namespace sofia
