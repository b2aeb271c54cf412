#include "eval/stream_guard.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "eval/metrics.hpp"
#include "obs/obs.hpp"
#include "tensor/coo_list.hpp"
#include "util/check.hpp"
#include "util/state_io.hpp"

namespace sofia {

namespace {

/// Registry mirrors of GuardTelemetry (the struct stays as the per-run
/// compatibility view; these accumulate process-wide for the stats
/// emitter and obs_report).
struct GuardMetrics {
  obs::Counter* steps;
  obs::Counter* validation_passes;
  obs::Counter* input_trips;
  obs::Counter* health_trips;
  obs::Counter* skips;
  obs::Counter* rollbacks;
  obs::Counter* reinits;
  obs::Counter* checkpoints;
  obs::Counter* recoveries;
  obs::Counter* checkpoint_time_us;
  obs::Histogram* checkpoint_us;
};

GuardMetrics& Gm() {
  obs::Registry& r = obs::Registry::Global();
  static GuardMetrics m{
      r.FindOrCreateCounter("guard.steps"),
      r.FindOrCreateCounter("guard.validation_passes"),
      r.FindOrCreateCounter("guard.input_trips"),
      r.FindOrCreateCounter("guard.health_trips"),
      r.FindOrCreateCounter("guard.skips"),
      r.FindOrCreateCounter("guard.rollbacks"),
      r.FindOrCreateCounter("guard.reinits"),
      r.FindOrCreateCounter("guard.checkpoints"),
      r.FindOrCreateCounter("guard.recoveries"),
      r.FindOrCreateCounter("time.guard.checkpoint_us"),
      r.FindOrCreateHistogram("guard.checkpoint_us"),
  };
  return m;
}

/// Serializes `method` state into `slot`, reusing its capacity. Runs on
/// the caller thread or the executor's aux lane — the timing lands in the
/// same histogram either way, so checkpoint cost is visible even when it
/// is hidden off the critical path.
void SerializeInto(const StreamingMethod& method, std::string* slot) {
  const bool measured = obs::Enabled() || obs::TraceActive();
  const uint64_t start = measured ? obs::NowNs() : 0;
  slot->clear();
  state_io::StringSink sink(slot);
  std::ostream out(&sink);
  method.SaveState(out);
  if (measured) {
    const uint64_t dur = obs::NowNs() - start;
    Gm().checkpoint_time_us->Add(dur / 1000);
    Gm().checkpoint_us->Observe(static_cast<double>(dur) / 1e3);
    if (obs::TraceActive()) {
      obs::TraceRecord("guard.checkpoint", start, dur, slot->size(), "bytes");
    }
  }
}

double WindowMean(const std::deque<double>& window) {
  if (window.empty()) return 0.0;
  double sum = 0.0;
  for (double v : window) sum += v;
  return sum / static_cast<double>(window.size());
}

double WindowMax(const std::deque<double>& window) {
  double max_v = 0.0;
  for (double v : window) max_v = std::max(max_v, v);
  return max_v;
}

}  // namespace

const char* GuardPolicyName(GuardPolicy policy) {
  switch (policy) {
    case GuardPolicy::kSkipSlice:
      return "skip";
    case GuardPolicy::kRollback:
      return "rollback";
    case GuardPolicy::kReinit:
      return "reinit";
  }
  return "unknown";
}

GuardPolicy ParseGuardPolicy(const std::string& name) {
  if (name == "skip") return GuardPolicy::kSkipSlice;
  if (name == "rollback") return GuardPolicy::kRollback;
  if (name == "reinit") return GuardPolicy::kReinit;
  SOFIA_CHECK(false) << "unknown guard policy '" << name
                     << "' (expected skip | rollback | reinit)";
  return GuardPolicy::kSkipSlice;
}

StreamGuard::StreamGuard(std::unique_ptr<StreamingMethod> inner,
                         StreamGuardOptions options)
    : inner_(std::move(inner)), options_(options) {
  SOFIA_CHECK(inner_ != nullptr) << "StreamGuard needs a method to wrap";
  ring_.resize(options_.checkpoint_slots);
}

StreamGuard::~StreamGuard() {
  // An in-flight aux-lane save reads inner_ and writes a ring slot; both
  // die with this object, so land it first.
  SyncCheckpoint();
}

void StreamGuard::AdoptWorkerPool(std::shared_ptr<WorkerPool> pool) {
  SyncCheckpoint();  // A pool swap must not orphan an in-flight save.
  adopted_pool_ = pool;
  executor_ = dynamic_cast<ShardExecutor*>(pool.get());
  inner_->AdoptWorkerPool(std::move(pool));
}

bool StreamGuard::CanCheckpoint() const {
  return inner_->SupportsStateCheckpoint() && options_.checkpoint_slots > 0;
}

void StreamGuard::SaveCheckpoint() {
  const size_t slot = telemetry_.checkpoints_saved % ring_.size();
  ++telemetry_.checkpoints_saved;
  Gm().checkpoints->Add(1);
  // A fresh health-accepted checkpoint is the new best rollback target:
  // restart any in-episode walk-back from it.
  episode_rollback_depth_ = 0;
  if (executor_ != nullptr) {
    // Serialize on the executor's aux lane: the O(state) write overlaps the
    // caller's scoring of this step and the next slice's ingest. The job
    // only *reads* inner state, and every inner-state mutation first passes
    // SyncCheckpoint(), so the serialized bytes match a synchronous save
    // exactly (checkpoint_test.cc pins restore parity).
    StreamingMethod* inner = inner_.get();
    std::string* dst = &ring_[slot];
    pending_ticket_ =
        executor_->Submit([inner, dst] { SerializeInto(*inner, dst); });
    return;
  }
  SerializeInto(*inner_, &ring_[slot]);
}

void StreamGuard::SyncCheckpoint() const {
  if (executor_ != nullptr && pending_ticket_ != 0) {
    executor_->Wait(pending_ticket_);
    pending_ticket_ = 0;
  }
}

void StreamGuard::CaptureReinitSnapshot() {
  SerializeInto(*inner_, &reinit_snapshot_);
}

std::vector<DenseTensor> StreamGuard::Initialize(
    const std::vector<DenseTensor>& slices, const std::vector<Mask>& masks) {
  // Init is an offline batch: a non-finite value here is a data bug the
  // caller must fix (the stream_io loader rejects them too), not a stream
  // fault to degrade around — so validation fails fast.
  for (size_t t = 0; t < slices.size(); ++t) {
    SOFIA_CHECK(t >= masks.size() ||
                slices[t].shape() == masks[t].shape())
        << name() << ": init slice " << t << " shape "
        << slices[t].shape().ToString() << " != mask shape";
    ++telemetry_.validation_passes;
    Gm().validation_passes->Add(1);
    const DenseTensor& slice = slices[t];
    const Mask& mask = masks[t];
    double slice_max = 0.0;
    for (size_t k = 0; k < slice.NumElements(); ++k) {
      SOFIA_CHECK(!mask.Get(k) || std::isfinite(slice[k]))
          << name() << ": init slice " << t
          << " contains a non-finite observed value";
      if (mask.Get(k)) slice_max = std::max(slice_max, std::fabs(slice[k]));
    }
    // Seed the payload-scale baseline so the watch is armed from the very
    // first streamed slice.
    payload_window_.push_back(slice_max);
    if (payload_window_.size() > options_.health_window) {
      payload_window_.pop_front();
    }
  }
  SyncCheckpoint();  // Initialize mutates inner state.
  std::vector<DenseTensor> completed = inner_->Initialize(slices, masks);
  if (!slices.empty()) expected_shape_ = slices.front().shape();
  if (CanCheckpoint()) CaptureReinitSnapshot();
  return completed;
}

void StreamGuard::BeginFault() {
  if (!in_fault_) {
    frozen_baseline_ = nre_window_.empty() ? options_.nre_floor
                                           : WindowMean(nre_window_);
    in_fault_ = true;
  }
  steps_since_fault_ = 0;
}

bool StreamGuard::DegradeState() {
  SyncCheckpoint();  // Restores mutate inner state and read ring slots.
  switch (options_.policy) {
    case GuardPolicy::kSkipSlice:
      ++telemetry_.skips;
      Gm().skips->Add(1);
      return false;
    case GuardPolicy::kRollback: {
      // Walk back through the ring across consecutive trips of one fault
      // episode: the first trip restores the newest slot, a renewed trip
      // (the restored checkpoint was itself poisoned, so the next step
      // tripped again) the one before it, and so on until the ring's
      // history is exhausted — then fall through to the reinit snapshot.
      const size_t available =
          std::min(telemetry_.checkpoints_saved, ring_.size());
      if (CanCheckpoint() && episode_rollback_depth_ < available) {
        const size_t slot =
            (telemetry_.checkpoints_saved - 1 - episode_rollback_depth_) %
            ring_.size();
        ++episode_rollback_depth_;
        std::istringstream in(ring_[slot]);
        inner_->RestoreState(in);
        ++telemetry_.rollbacks;
        Gm().rollbacks->Add(1);
        // The restored state predates the steps accepted since that save.
        steps_since_checkpoint_ = 0;
        return true;  // The restored clock lags the stream by one slice.
      }
      break;  // History exhausted: fall through to the reinit snapshot.
    }
    case GuardPolicy::kReinit:
      break;
  }
  if (!reinit_snapshot_.empty()) {
    std::istringstream in(reinit_snapshot_);
    inner_->RestoreState(in);
    if (options_.policy == GuardPolicy::kRollback) {
      ++telemetry_.rollbacks;
      Gm().rollbacks->Add(1);
    } else {
      ++telemetry_.reinits;
      Gm().reinits->Add(1);
    }
    return false;  // A reinit resets the phase; there is nothing to align.
  }
  ++telemetry_.skips;  // Nothing to restore: state keeps whatever it has.
  Gm().skips->Add(1);
  return false;
}

void StreamGuard::AdvanceInnerClock() {
  if (expected_shape_.order() == 0) return;  // No valid slice seen yet.
  inner_->StepLazy(DenseTensor(expected_shape_), Mask(expected_shape_, false));
}

StepResult StreamGuard::DegradedEstimate(const Shape& shape) {
  // Forecast-imputation needs a method that both forecasts and has seen
  // data; otherwise an all-zero estimate keeps the score finite (NRE <= 1).
  // The horizon is always 1: faulted slices advance the inner clock, so
  // the model's "now" tracks the stream even across fault runs.
  const bool has_state = accepted_steps_ > 0 || inner_->init_window() > 0;
  if (inner_->SupportsForecast() && has_state) {
    return inner_->ForecastLazy(1);
  }
  return StepResult::Dense(DenseTensor(shape));
}

bool StreamGuard::Healthy(double probe_nre, double norm) const {
  if (!std::isfinite(probe_nre) || !std::isfinite(norm)) return false;
  if (accepted_steps_ < options_.min_history) return true;  // Warm-up.
  const double nre_base =
      std::max(WindowMean(nre_window_), options_.nre_floor);
  if (probe_nre > options_.nre_spike_factor * nre_base) return false;
  const double norm_base = WindowMax(norm_window_);
  if (norm_base > 0.0 &&
      norm > options_.norm_explosion_factor * norm_base) {
    return false;
  }
  return true;
}

void StreamGuard::AcceptStep(double probe_nre, double norm) {
  nre_window_.push_back(probe_nre);
  if (nre_window_.size() > options_.health_window) nre_window_.pop_front();
  norm_window_.push_back(norm);
  if (norm_window_.size() > options_.health_window) norm_window_.pop_front();
  ++accepted_steps_;
  if (in_fault_) {
    ++steps_since_fault_;
    const double threshold = options_.recover_factor *
                             std::max(frozen_baseline_, options_.nre_floor);
    if (probe_nre <= threshold) {
      in_fault_ = false;
      ++telemetry_.recoveries;
      Gm().recoveries->Add(1);
      telemetry_.steps_to_recover.push_back(steps_since_fault_);
      steps_since_fault_ = 0;
      episode_rollback_depth_ = 0;  // The episode's walk-back is over.
    }
  }
}

StepResult StreamGuard::StepLazy(const DenseTensor& y, const Mask& omega,
                                 std::shared_ptr<const CooList> pattern) {
  ++telemetry_.steps;
  Gm().steps->Add(1);
  // Land the previous step's async checkpoint before anything below can
  // mutate inner state (the inner step, clock advances, restores).
  SyncCheckpoint();
  // Init-less methods: their pristine state is the kReinit target, captured
  // before the first slice can touch it.
  if (reinit_snapshot_.empty() && CanCheckpoint()) CaptureReinitSnapshot();

  // --- Layer 1a: shape validation (O(1)) -------------------------------
  const bool shape_ok =
      y.shape() == omega.shape() &&
      (expected_shape_.order() == 0 || y.shape() == expected_shape_) &&
      (pattern == nullptr || pattern->shape() == y.shape());
  if (!shape_ok) {
    ++telemetry_.input_trips;
    Gm().input_trips->Add(1);
    BeginFault();
    ++telemetry_.skips;
    Gm().skips->Add(1);
    StepResult degraded = DegradedEstimate(
        expected_shape_.order() != 0 ? expected_shape_ : y.shape());
    AdvanceInnerClock();  // Keep the inner phase aligned with the stream.
    return degraded;
  }
  if (expected_shape_.order() == 0) expected_shape_ = y.shape();

  // Standalone use (no comparison runner): build the pattern once here and
  // hand it to the inner method, replacing — not duplicating — its own
  // build.
  if (pattern == nullptr) {
    pattern = std::make_shared<const CooList>(CooList::Build(omega));
  }

  // --- Layer 1b: the single O(|Ω|) payload scan ------------------------
  // Doubles as the collection pass of the strided health probe, so the
  // probe values come for free.
  ++telemetry_.validation_passes;
  Gm().validation_passes->Add(1);
  const size_t nnz = pattern->nnz();
  const size_t probe_cap = std::max<size_t>(1, options_.health_probe_entries);
  const size_t stride = std::max<size_t>(1, nnz / probe_cap);
  probe_linear_.clear();
  probe_scratch_.clear();
  bool finite = true;
  double slice_max = 0.0;
  for (size_t k = 0; k < nnz; ++k) {
    const double v = y[pattern->LinearIndex(k)];
    if (!std::isfinite(v)) {
      finite = false;
      break;
    }
    slice_max = std::max(slice_max, std::fabs(v));
    if (k % stride == 0 && probe_linear_.size() < probe_cap) {
      probe_linear_.push_back(pattern->LinearIndex(k));
      probe_scratch_.push_back(v);
    }
  }
  // Payload-scale watch: huge-but-finite garbage saturates the NRE probe
  // near 1 (the garbage is the *reference*), so it must be caught here by
  // magnitude, before the inner method sees it.
  const double payload_base = WindowMax(payload_window_);
  const bool payload_ok =
      options_.payload_explosion_factor <= 0.0 || payload_base <= 0.0 ||
      slice_max <= options_.payload_explosion_factor * payload_base;
  if (!finite || nnz == 0 || !payload_ok) {
    ++telemetry_.input_trips;
    Gm().input_trips->Add(1);
    BeginFault();
    ++telemetry_.skips;  // Input never reached the inner method: state is
                         // clean, every policy degrades by skipping.
    Gm().skips->Add(1);
    StepResult degraded = DegradedEstimate(y.shape());
    AdvanceInnerClock();  // Keep the inner phase aligned with the stream.
    return degraded;
  }

  // --- The actual step --------------------------------------------------
  StepResult result = inner_->StepLazy(y, omega, pattern);

  // --- Layer 2: health watch -------------------------------------------
  const double norm = result.MaxAbsComponent();
  GatheredError probe;
  for (size_t i = 0; i < probe_linear_.size(); ++i) {
    expected_shape_.DelinearizeInto(probe_linear_[i], &probe_idx_);
    const double estimate = result.at(probe_idx_);
    const double reference = probe_scratch_[i];
    probe.err_sq += (estimate - reference) * (estimate - reference);
    probe.ref_sq += reference * reference;
    ++probe.count;
  }
  const double probe_nre = GatheredNre(probe);
  if (!Healthy(probe_nre, norm)) {
    ++telemetry_.health_trips;
    Gm().health_trips->Add(1);
    BeginFault();
    const bool rolled_back = DegradeState();
    StepResult degraded = DegradedEstimate(y.shape());
    // A rollback restores a clock that has not yet consumed this slice;
    // advance it (kSkipSlice's inner already consumed it, and kReinit
    // deliberately resets phase).
    if (rolled_back) AdvanceInnerClock();
    return degraded;
  }

  // --- Layer 3: accept + checkpoint cadence ----------------------------
  AcceptStep(probe_nre, norm);
  payload_window_.push_back(slice_max);
  if (payload_window_.size() > options_.health_window) {
    payload_window_.pop_front();
  }
  if (CanCheckpoint()) {
    ++steps_since_checkpoint_;
    if (steps_since_checkpoint_ >= options_.checkpoint_every) {
      SaveCheckpoint();
      steps_since_checkpoint_ = 0;
    }
  }
  return result;
}

}  // namespace sofia
