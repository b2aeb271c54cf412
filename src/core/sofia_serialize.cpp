#include <istream>
#include <ostream>

#include "core/sofia_model.hpp"
#include "util/state_io.hpp"

/// \file sofia_serialize.cpp
/// \brief Binary checkpointing of SofiaModel (Serialize / Deserialize).
///
/// Format: a "sofia-model" v1 header followed by the fields in a fixed
/// order, each written through the util/state_io primitives (the one byte
/// format shared with every StreamingMethod::SaveState). Doubles are raw
/// IEEE-754, so the restored model continues the stream bit-for-bit. The
/// dense error scale Σ̂ makes the state O(slice volume), unlike the
/// factor-only baselines. Checkpoints written before the binary format
/// (text "sofia-model v1/v2") fail the header check with StateError.

namespace sofia {

void SofiaModel::Serialize(std::ostream& out) const {
  state_io::BeginState(out, "sofia-model", 1);
  state_io::WriteU64(out, config_.rank);
  state_io::WriteU64(out, config_.period);
  state_io::WriteU64(out, config_.init_seasons);
  for (const double x : {config_.lambda1, config_.lambda2, config_.lambda3,
                         config_.mu, config_.phi, config_.factor_ridge}) {
    state_io::WriteDouble(out, x);
  }
  state_io::WriteBool(out, config_.normalized_step);
  state_io::WriteDouble(out, config_.huber_k);
  state_io::WriteDouble(out, config_.biweight_ck);
  // Kernel-path knobs: Step's summation order differs between the dense
  // and sparse paths at the ulp level, so the selected path must round-trip
  // for Deserialize() to resume the stream bit-for-bit. num_threads stays
  // runtime-only — results are bitwise identical for every thread count,
  // and the right worker count is a property of the restoring machine, not
  // the checkpoint.
  state_io::WriteBool(out, config_.use_sparse_kernels);
  state_io::WriteBool(out, config_.reuse_step_pattern);
  state_io::WriteBool(out, ablation_.reject_outliers);
  state_io::WriteBool(out, ablation_.scale_before_reject);
  state_io::WriteBool(out, ablation_.temporal_smoothness);

  state_io::WriteMatrixList(out, factors_);
  state_io::WriteU64(out, hw_params_.size());
  for (const HwParams& p : hw_params_) {
    state_io::WriteDouble(out, p.alpha);
    state_io::WriteDouble(out, p.beta);
    state_io::WriteDouble(out, p.gamma);
  }
  state_io::WriteVector(out, level_);
  state_io::WriteVector(out, trend_);
  state_io::WriteU64(out, season_.size());
  state_io::WriteU64(out, season_pos_);
  for (const auto& s : season_) state_io::WriteVector(out, s);
  state_io::WriteU64(out, row_history_.size());
  state_io::WriteU64(out, row_pos_);
  for (const auto& r : row_history_) state_io::WriteVector(out, r);
  state_io::WriteVector(out, last_row_);
  state_io::WriteTensor(out, sigma_);
}

SofiaModel SofiaModel::Deserialize(std::istream& in) {
  state_io::ReadStateHeader(in, "sofia-model", 1);

  SofiaModel model;
  SofiaConfig& config = model.config_;
  config.rank = state_io::ReadU64(in);
  config.period = state_io::ReadU64(in);
  config.init_seasons = state_io::ReadU64(in);
  for (double* x : {&config.lambda1, &config.lambda2, &config.lambda3,
                    &config.mu, &config.phi, &config.factor_ridge}) {
    *x = state_io::ReadDouble(in);
  }
  config.normalized_step = state_io::ReadBool(in);
  config.huber_k = state_io::ReadDouble(in);
  config.biweight_ck = state_io::ReadDouble(in);
  config.use_sparse_kernels = state_io::ReadBool(in);
  config.reuse_step_pattern = state_io::ReadBool(in);
  model.ablation_.reject_outliers = state_io::ReadBool(in);
  model.ablation_.scale_before_reject = state_io::ReadBool(in);
  model.ablation_.temporal_smoothness = state_io::ReadBool(in);

  const char* what = "corrupt sofia-model checkpoint";
  model.factors_ = state_io::ReadMatrixList(in);
  state_io::Require(model.factors_.size() <= 16, what);
  // One HwParams per rank column; the cap matches ReadMatrixList's.
  model.hw_params_.resize(state_io::ReadCount(in, /*cap=*/4096));
  for (HwParams& p : model.hw_params_) {
    p.alpha = state_io::ReadDouble(in);
    p.beta = state_io::ReadDouble(in);
    p.gamma = state_io::ReadDouble(in);
  }
  model.level_ = state_io::ReadVector(in);
  model.trend_ = state_io::ReadVector(in);
  const size_t seasons = state_io::ReadCount(in, size_t{1} << 20);
  model.season_pos_ = state_io::ReadU64(in);
  model.season_.resize(seasons);
  for (auto& s : model.season_) s = state_io::ReadVector(in);
  const size_t history = state_io::ReadCount(in, size_t{1} << 20);
  model.row_pos_ = state_io::ReadU64(in);
  model.row_history_.resize(history);
  for (auto& r : model.row_history_) r = state_io::ReadVector(in);
  model.last_row_ = state_io::ReadVector(in);
  model.sigma_ = state_io::ReadTensor(in);

  // Cross-field consistency: a parseable checkpoint whose structures
  // disagree is still corrupt (a single flipped bit in a count).
  state_io::Require(model.season_.size() == config.period, what);
  state_io::Require(model.row_history_.size() == config.period, what);
  state_io::Require(model.level_.size() == config.rank, what);
  state_io::Require(seasons == 0 || model.season_pos_ < seasons, what);
  state_io::Require(history == 0 || model.row_pos_ < history, what);
  return model;
}

}  // namespace sofia
