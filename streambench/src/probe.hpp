#ifndef STREAMBENCH_PROBE_H_
#define STREAMBENCH_PROBE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "eval/streaming_method.hpp"

/// \file probe.hpp
/// \brief Thin StreamingMethod decorator the benchmark places between the
/// layers of the shipped stack, e.g.
///
///   pipeline -> top probe -> DurableGuard -> guard probe -> StreamGuard
///            -> sofia probe -> SofiaStream
///
/// A probe forwards every call unchanged (so the stack's outputs stay
/// bitwise identical with or without probes) and records:
///  - an obs::ObsSpan per StepLazy / Initialize / SaveState / RestoreState
///    when the layer has span names, carrying the slice index as its id;
///  - always-on totals (wall time, call count, serialized bytes) that the
///    per-layer report reads without a trace session;
///  - for the top probe, the wall-clock start of the first post-init step,
///    which is where the steps_per_s window opens.
///
/// A probe given an InitCache also memoizes its inner method's Initialize:
/// the first call runs it and keeps the post-init state; later calls with
/// the same window restore that state instead of refitting. Restore is
/// byte-exact (a pinned invariant of every method), so the stream that
/// follows is bitwise the same; it lets one run replay the stream several
/// times without paying the multi-second init fit each time.

namespace streambench {

/// Span names of one probed layer (static strings: the trace ring stores
/// the pointers). A null name records no span for that call.
struct ProbeSpans {
  const char* init = nullptr;
  const char* step = nullptr;
  const char* save = nullptr;
  const char* restore = nullptr;
};

/// Totals of one probe, safe to update from the driver and the aux lane
/// (StreamGuard serializes its ring checkpoints on the executor's aux lane).
struct ProbeTotals {
  std::atomic<uint64_t> init_ns{0};
  std::atomic<uint64_t> steps{0};
  std::atomic<uint64_t> step_ns{0};
  std::atomic<uint64_t> saves{0};
  std::atomic<uint64_t> save_ns{0};
  std::atomic<uint64_t> save_bytes{0};
  std::atomic<uint64_t> restores{0};
  std::atomic<uint64_t> restore_ns{0};
  /// obs::NowNs() at the start of the first StepLazy after Initialize
  /// (0 until then).
  std::atomic<uint64_t> first_step_ns{0};

  void Reset();
};

/// Post-Initialize state of one stream, shared by the stacks of one run.
struct InitCache {
  bool filled = false;
  std::string state;                            ///< Inner SaveState bytes.
  std::vector<sofia::DenseTensor> completions;  ///< Initialize's return.
};

class LayerProbe : public sofia::StreamingMethod {
 public:
  /// `init_cache` may be null (no memoized init). With `forward_pool`
  /// false, the probe keeps the pipeline's executor from the layers below,
  /// which then run on the driver thread alone.
  LayerProbe(std::unique_ptr<sofia::StreamingMethod> inner, ProbeSpans spans,
             ProbeTotals* totals, InitCache* init_cache = nullptr,
             bool forward_pool = true);

  std::string name() const override { return inner_->name(); }
  size_t init_window() const override { return inner_->init_window(); }

  std::vector<sofia::DenseTensor> Initialize(
      const std::vector<sofia::DenseTensor>& slices,
      const std::vector<sofia::Mask>& masks) override;
  sofia::StepResult StepLazy(const sofia::DenseTensor& y,
                             const sofia::Mask& omega,
                             std::shared_ptr<const sofia::CooList> pattern =
                                 nullptr) override;
  void Observe(const sofia::DenseTensor& y, const sofia::Mask& omega) override;

  bool SupportsForecast() const override {
    return inner_->SupportsForecast();
  }
  sofia::StepResult ForecastLazy(size_t h) const override {
    return inner_->ForecastLazy(h);
  }
  bool SupportsStateCheckpoint() const override {
    return inner_->SupportsStateCheckpoint();
  }
  void SaveState(std::ostream& out) const override;
  void RestoreState(std::istream& in) override;
  void AdoptWorkerPool(std::shared_ptr<sofia::WorkerPool> pool) override {
    if (forward_pool_) inner_->AdoptWorkerPool(std::move(pool));
  }

 private:
  std::unique_ptr<sofia::StreamingMethod> inner_;
  ProbeSpans spans_;
  ProbeTotals* totals_;
  InitCache* init_cache_;
  bool forward_pool_;
  /// Stream index of the next slice (init window + steps seen), the span
  /// id of the next StepLazy.
  uint64_t next_slice_ = 0;
};

}  // namespace streambench

#endif  // STREAMBENCH_PROBE_H_
