#ifndef SOFIA_EVAL_STREAMING_METHOD_H_
#define SOFIA_EVAL_STREAMING_METHOD_H_

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "eval/step_result.hpp"
#include "tensor/coo_list.hpp"
#include "tensor/dense_tensor.hpp"
#include "tensor/mask.hpp"
#include "util/parallel.hpp"

/// \file streaming_method.hpp
/// \brief Common interface for SOFIA and all streaming competitors.
///
/// A method consumes subtensors one at a time and returns a lazy StepResult
/// handle for each — the estimate's *structure* (factors + temporal row,
/// loadings + weights, masked data), not an O(volume R) materialized
/// tensor. Consumers that need the dense estimate call imputed() on the
/// handle; the eval protocols instead read it only at the entries they
/// score, through the handle's gather accessors. Methods with a start-up
/// phase (SOFIA, MAST, OR-MSTC) declare an init window; the runner feeds
/// those slices to Initialize() and excludes the time spent there from the
/// ART metric, as the paper does.

namespace sofia {

/// Abstract streaming tensor factorization/completion method.
class StreamingMethod {
 public:
  virtual ~StreamingMethod() = default;

  /// Display name used in result tables.
  virtual std::string name() const = 0;

  /// Number of start-up slices consumed by Initialize() (0 = none).
  virtual size_t init_window() const { return 0; }

  /// Consumes the first init_window() slices at once; returns completed
  /// estimates for them (same count and shapes). Only called when
  /// init_window() > 0.
  virtual std::vector<DenseTensor> Initialize(
      const std::vector<DenseTensor>& slices, const std::vector<Mask>& masks);

  /// Primary per-step API: consume one subtensor, return the lazy estimate
  /// handle. `pattern` may hold an externally built coordinate pattern of
  /// `omega` (with mode buckets) — comparison runners build each slice's
  /// CooList once and share it across every method per step; methods on the
  /// ObservedSweep core (and SOFIA's shared_ptr pattern cache) adopt it to
  /// skip their own build, others ignore it.
  virtual StepResult StepLazy(const DenseTensor& y, const Mask& omega,
                              std::shared_ptr<const CooList> pattern =
                                  nullptr) = 0;

  /// Thin materializing wrappers for compatibility: StepLazy + imputed().
  virtual DenseTensor Step(const DenseTensor& y, const Mask& omega);
  virtual DenseTensor Step(const DenseTensor& y, const Mask& omega,
                           std::shared_ptr<const CooList> pattern);

  /// Consumes one subtensor when the caller does not need the estimate at
  /// all (the forecasting protocol): methods override this to also skip the
  /// output-only tail work (final temporal re-solves) that even a lazy
  /// handle requires. Default discards the StepLazy handle unmaterialized.
  virtual void Observe(const DenseTensor& y, const Mask& omega) {
    StepLazy(y, omega);
  }

  /// Whether Forecast() is implemented.
  virtual bool SupportsForecast() const { return false; }

  /// h-step-ahead forecast past the last consumed subtensor (h >= 1).
  /// Thin materializing wrapper over ForecastLazy().
  virtual DenseTensor Forecast(size_t h) const;

  /// Lazy h-step-ahead forecast handle; the forecast protocol scores it at
  /// held-out entries only. Must be overridden (together with
  /// SupportsForecast) by forecast-capable methods.
  virtual StepResult ForecastLazy(size_t h) const;

  /// Whether SaveState/RestoreState are implemented. All in-tree methods
  /// support checkpointing; the default is false so external methods opt in
  /// explicitly (StreamGuard's rollback/reinit policies require it).
  virtual bool SupportsStateCheckpoint() const { return false; }

  /// Serializes the method's complete mutable state in the binary
  /// util/state_io format (doubles as raw IEEE-754 bytes, so saving is
  /// close to a memcpy of the state). A later RestoreState on the
  /// *same configuration* must continue the stream bit-for-bit — this is
  /// the contract StreamGuard's rollback policy is built on. Configuration
  /// (rank, period, solver options) is NOT part of the state; a checkpoint
  /// only makes sense on a method constructed with the same options.
  virtual void SaveState(std::ostream& out) const;

  /// Inverse of SaveState: replaces the method's mutable state with the
  /// checkpoint's. Throws state_io::StateError on malformed input
  /// (truncated, bit-flipped, or wrong-method checkpoints) without
  /// constructing partial state — the durability layer catches it to fall
  /// back to an older checkpoint generation.
  virtual void RestoreState(std::istream& in);

  /// Adopt a shared worker pool for the observed-entry kernels (one pool
  /// per comparison run instead of one lazily spawned pool per method).
  /// Results are bitwise identical with or without it — the kernels'
  /// work units are owner-partitioned for every thread count. Default:
  /// ignore (dense-only methods have no kernel work to thread).
  virtual void AdoptWorkerPool(std::shared_ptr<WorkerPool> pool) {
    (void)pool;
  }
};

}  // namespace sofia

#endif  // SOFIA_EVAL_STREAMING_METHOD_H_
