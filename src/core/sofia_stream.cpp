#include "core/sofia_stream.hpp"

#include <istream>
#include <ostream>
#include <utility>

#include "util/check.hpp"
#include "util/state_io.hpp"

namespace sofia {

std::vector<DenseTensor> SofiaStream::Initialize(
    const std::vector<DenseTensor>& slices, const std::vector<Mask>& masks) {
  model_ = std::make_unique<SofiaModel>(
      SofiaModel::Initialize(slices, masks, config_, ablation_));
  if (adopted_pool_ != nullptr) model_->AdoptPool(adopted_pool_);
  std::vector<DenseTensor> completed;
  completed.reserve(slices.size());
  const DenseTensor& batch = model_->init_completed();
  for (size_t t = 0; t < slices.size(); ++t) {
    completed.push_back(batch.SliceLastMode(t));
  }
  return completed;
}

StepResult SofiaStream::StepLazy(const DenseTensor& y, const Mask& omega,
                                 std::shared_ptr<const CooList> pattern) {
  SOFIA_CHECK(model_ != nullptr) << "SofiaStream::Initialize must run first";
  SofiaStepResult out = model_->Step(y, omega, std::move(pattern));
  return StepResult::Kruskal(out.factors(), out.temporal_row());
}

void SofiaStream::Observe(const DenseTensor& y, const Mask& omega) {
  SOFIA_CHECK(model_ != nullptr) << "SofiaStream::Initialize must run first";
  model_->Step(y, omega);  // The lazy result never materializes a slice.
}

StepResult SofiaStream::ForecastLazy(size_t h) const {
  SOFIA_CHECK(model_ != nullptr) << "SofiaStream::Initialize must run first";
  return StepResult::Kruskal(model_->nontemporal_factors(),
                             model_->ForecastRow(h));
}

void SofiaStream::AdoptWorkerPool(std::shared_ptr<WorkerPool> pool) {
  adopted_pool_ = std::move(pool);
  if (model_ != nullptr) model_->AdoptPool(adopted_pool_);
}

void SofiaStream::SaveState(std::ostream& out) const {
  state_io::BeginState(out, "sofia-stream", 1);
  state_io::WriteBool(out, model_ != nullptr);
  if (model_ != nullptr) model_->Serialize(out);
}

void SofiaStream::RestoreState(std::istream& in) {
  state_io::ReadStateHeader(in, "sofia-stream", 1);
  if (!state_io::ReadBool(in)) {
    model_.reset();
    return;
  }
  model_ = std::make_unique<SofiaModel>(SofiaModel::Deserialize(in));
  if (adopted_pool_ != nullptr) model_->AdoptPool(adopted_pool_);
}

const SofiaModel& SofiaStream::model() const {
  SOFIA_CHECK(model_ != nullptr) << "SofiaStream::Initialize must run first";
  return *model_;
}

}  // namespace sofia
