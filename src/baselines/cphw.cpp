#include "baselines/cphw.hpp"

#include "baselines/batch_als.hpp"
#include "util/check.hpp"
#include "util/state_io.hpp"

namespace sofia {

void Cphw::SaveState(std::ostream& out) const {
  state_io::BeginState(out, "cphw", 1);
  state_io::WriteU64(out, history_.size());
  for (const auto& slice : history_) state_io::WriteTensor(out, *slice);
  for (const Mask& mask : mask_history_) state_io::WriteMask(out, mask);
}

void Cphw::RestoreState(std::istream& in) {
  state_io::ReadStateHeader(in, "cphw", 1);
  const size_t steps = state_io::ReadCount(in, size_t{1} << 20);
  history_.clear();
  history_.reserve(steps);
  for (size_t t = 0; t < steps; ++t) {
    history_.push_back(
        std::make_shared<const DenseTensor>(state_io::ReadTensor(in)));
  }
  mask_history_.clear();
  mask_history_.reserve(steps);
  for (size_t t = 0; t < steps; ++t) {
    mask_history_.push_back(state_io::ReadMask(in));
  }
  // The factorization is derived state: refit lazily on the next forecast.
  fitted_ = false;
  nontemporal_.clear();
  hw_fits_.clear();
}

StepResult Cphw::StepLazy(const DenseTensor& y, const Mask& omega,
                          std::shared_ptr<const CooList> pattern) {
  (void)pattern;  // CPHW does no per-step observed-entry math.
  history_.push_back(std::make_shared<const DenseTensor>(y));
  mask_history_.push_back(omega);
  fitted_ = false;
  return StepResult::Masked(history_.back(), omega);
}

void Cphw::FitIfNeeded() const {
  if (fitted_) return;
  SOFIA_CHECK_GE(history_.size(), 2 * options_.period)
      << "CPHW needs two full seasons of history";

  DenseTensor batch = DenseTensor::StackSlices(history_);
  Mask omega = Mask::StackSlices(mask_history_);
  BatchAlsOptions als_options;
  als_options.rank = options_.rank;
  als_options.max_iterations = options_.max_iterations;
  als_options.tolerance = options_.tolerance;
  als_options.seed = options_.seed;
  BatchAlsResult als = BatchAls(batch, omega, als_options);

  Matrix temporal = als.factors.back();
  als.factors.pop_back();
  nontemporal_ = std::move(als.factors);
  hw_fits_.clear();
  hw_fits_.reserve(options_.rank);
  for (size_t r = 0; r < options_.rank; ++r) {
    hw_fits_.push_back(FitHoltWinters(temporal.ColVector(r), options_.period));
  }
  fitted_ = true;
}

StepResult Cphw::ForecastLazy(size_t h) const {
  SOFIA_CHECK_GE(h, 1u);
  FitIfNeeded();
  std::vector<double> row(options_.rank);
  for (size_t r = 0; r < options_.rank; ++r) {
    HoltWinters hw = ModelFromFit(hw_fits_[r], options_.period);
    row[r] = hw.Forecast(h);
  }
  return StepResult::Kruskal(nontemporal_, std::move(row));
}

}  // namespace sofia
