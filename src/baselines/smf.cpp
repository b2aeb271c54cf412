#include "baselines/smf.hpp"

#include <algorithm>
#include <utility>

#include "linalg/solve.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/state_io.hpp"

namespace sofia {

void Smf::SaveState(std::ostream& out) const {
  state_io::BeginState(out, "smf", 1);
  state_io::WriteShape(out, slice_shape_);
  state_io::WriteBool(out, loadings_ != nullptr);
  if (loadings_ != nullptr) state_io::WriteMatrix(out, *loadings_);
  state_io::WriteVector(out, level_);
  state_io::WriteVector(out, trend_);
  state_io::WriteU64(out, season_.size());
  state_io::WriteU64(out, season_pos_);
  state_io::WriteU64(out, steps_seen_);
  for (const auto& s : season_) state_io::WriteVector(out, s);
}

void Smf::RestoreState(std::istream& in) {
  state_io::ReadStateHeader(in, "smf", 1);
  slice_shape_ = state_io::ReadShape(in);
  // A fresh shared_ptr (never reusing the old allocation) keeps any live
  // StepLazy/ForecastLazy handles pointing at their snapshot.
  loadings_ = state_io::ReadBool(in)
                  ? std::make_shared<Matrix>(state_io::ReadMatrix(in))
                  : nullptr;
  level_ = state_io::ReadVector(in);
  trend_ = state_io::ReadVector(in);
  // Cap before resize: a bit-flipped count must read as corruption, not an
  // allocation. season_pos_ indexes season_, so it must stay in range too.
  const size_t seasons = state_io::ReadCount(in, size_t{1} << 20);
  season_pos_ = state_io::ReadU64(in);
  steps_seen_ = state_io::ReadU64(in);
  state_io::Require(seasons == 0 || season_pos_ < seasons,
                    "corrupt smf checkpoint");
  season_.resize(seasons);
  for (auto& s : season_) s = state_io::ReadVector(in);
}

StepResult Smf::StepLazy(const DenseTensor& y, const Mask& omega,
                         std::shared_ptr<const CooList> pattern) {
  return StepShared(y, omega, std::move(pattern), /*want_result=*/true);
}

void Smf::Observe(const DenseTensor& y, const Mask& omega) {
  StepShared(y, omega, nullptr, /*want_result=*/false);
}

StepResult Smf::StepShared(const DenseTensor& y, const Mask& omega,
                           std::shared_ptr<const CooList> pattern,
                           bool want_result) {
  const size_t rank = options_.rank;
  const size_t m = options_.period;
  if (loadings_ == nullptr) {
    slice_shape_ = y.shape();
    Rng rng(options_.seed);
    loadings_ = std::make_shared<Matrix>(
        Matrix::Random(slice_shape_.NumElements(), rank, rng, 0.0, 1.0));
    level_.assign(rank, 0.0);
    trend_.assign(rank, 0.0);
    season_.assign(m, std::vector<double>(rank, 0.0));
  } else if (loadings_.use_count() > 1) {
    // A StepLazy/ForecastLazy handle still references the snapshot; clone
    // before the in-place drift (copy-on-write — the protocol loop drops
    // its handle before the next step, so this never fires there).
    loadings_ = std::make_shared<Matrix>(*loadings_);
  }
  SOFIA_CHECK(y.shape() == slice_shape_);
  Matrix& loadings = *loadings_;

  const bool sparse = sweep_.sparse();
  if (sparse) sweep_.BeginStep(y, omega, std::move(pattern));

  // Latent weights: ridge LS of the observed entries against A's rows. The
  // loading rows are keyed by the linear entry index, so the sparse path
  // walks the compacted records (same ascending order as the dense scan).
  Matrix b(rank, rank);
  std::vector<double> c(rank, 0.0);
  if (sparse) {
    const CooList& coo = sweep_.pattern();
    const std::vector<double>& values = sweep_.values();
    for (size_t k = 0; k < coo.nnz(); ++k) {
      const double* arow = loadings.Row(coo.LinearIndex(k));
      for (size_t r = 0; r < rank; ++r) {
        c[r] += values[k] * arow[r];
        double* brow = b.Row(r);
        for (size_t q = 0; q < rank; ++q) brow[q] += arow[r] * arow[q];
      }
    }
  } else {
    for (size_t k = 0; k < y.NumElements(); ++k) {
      if (!omega.Get(k)) continue;
      const double* arow = loadings.Row(k);
      for (size_t r = 0; r < rank; ++r) {
        c[r] += y[k] * arow[r];
        double* brow = b.Row(r);
        for (size_t q = 0; q < rank; ++q) brow[q] += arow[r] * arow[q];
      }
    }
  }
  for (size_t r = 0; r < rank; ++r) b(r, r) += options_.ridge;
  // Latent weights update incrementally, SMF-style: one capped gradient
  // step on the instantaneous LS objective starting from the seasonal
  // prediction. (During the first season there is no seasonal model yet, so
  // the exact LS solution seeds the state.) No outlier rejection anywhere —
  // that is the Table I gap the Fig. 6 experiment probes.
  std::vector<double> w(rank, 0.0);
  if (steps_seen_ < m) {
    w = SolveRidge(b, c);
  } else {
    double trace = 0.0;
    for (size_t r = 0; r < rank; ++r) {
      w[r] = level_[r] + trend_[r] + season_[season_pos_][r];
      trace += b(r, r);
    }
    const double mu = trace > 0.0
                          ? std::min(options_.learning_rate, 0.5 / trace)
                          : options_.learning_rate;
    std::vector<double> bw = MatVec(b, w);
    for (size_t r = 0; r < rank; ++r) {
      w[r] += 2.0 * mu * (c[r] - bw[r]);
    }
  }

  // SGD drift of the loadings toward the residual. Every loading row shares
  // the regressor w, so the per-row curvature trace is ||w||^2; capping the
  // step at 0.5 / ||w||^2 keeps the drift inside its stability region (the
  // paper grid-searched the step per dataset).
  double w_energy = 0.0;
  for (size_t r = 0; r < rank; ++r) w_energy += w[r] * w[r];
  const double mu = w_energy > 0.0
                        ? std::min(options_.learning_rate, 0.5 / w_energy)
                        : options_.learning_rate;
  if (sparse) {
    // Every record owns a distinct loading row (linear indices are unique
    // within a slice), so the drift touches only |Ω_t| rows.
    const CooList& coo = sweep_.pattern();
    const std::vector<double>& values = sweep_.values();
    for (size_t k = 0; k < coo.nnz(); ++k) {
      double* arow = loadings.Row(coo.LinearIndex(k));
      double recon = 0.0;
      for (size_t r = 0; r < rank; ++r) recon += arow[r] * w[r];
      const double resid = values[k] - recon;
      for (size_t r = 0; r < rank; ++r) {
        arow[r] += 2.0 * mu * resid * w[r];
      }
    }
  } else {
    for (size_t k = 0; k < y.NumElements(); ++k) {
      if (!omega.Get(k)) continue;
      double* arow = loadings.Row(k);
      double recon = 0.0;
      for (size_t r = 0; r < rank; ++r) recon += arow[r] * w[r];
      const double resid = y[k] - recon;
      for (size_t r = 0; r < rank; ++r) {
        arow[r] += 2.0 * mu * resid * w[r];
      }
    }
  }

  // Level/trend/seasonal update of the latent weights. During the first
  // season there is no seasonal history yet, so the seasonal slot simply
  // absorbs the de-leveled weight.
  for (size_t r = 0; r < rank; ++r) {
    const double s_old = season_[season_pos_][r];
    const double l_prev = level_[r];
    const double b_prev = trend_[r];
    double l_new, s_new;
    if (steps_seen_ < m) {
      l_new = steps_seen_ == 0 ? w[r]
                               : options_.level_alpha * w[r] +
                                     (1.0 - options_.level_alpha) *
                                         (l_prev + b_prev);
      s_new = w[r] - l_new;
    } else {
      l_new = options_.level_alpha * (w[r] - s_old) +
              (1.0 - options_.level_alpha) * (l_prev + b_prev);
      s_new = options_.season_gamma * (w[r] - l_prev - b_prev) +
              (1.0 - options_.season_gamma) * s_old;
    }
    trend_[r] = steps_seen_ == 0
                    ? 0.0
                    : options_.trend_beta * (l_new - l_prev) +
                          (1.0 - options_.trend_beta) * b_prev;
    level_[r] = l_new;
    season_[season_pos_][r] = s_new;
  }
  season_pos_ = (season_pos_ + 1) % m;
  ++steps_seen_;

  if (!want_result) return StepResult();

  // Reconstruction A w, kept lazy as the (loadings, weights) linear map.
  return StepResult::LinearMap(loadings_, std::move(w), slice_shape_);
}

StepResult Smf::ForecastLazy(size_t h) const {
  SOFIA_CHECK(loadings_ != nullptr) << "SMF has consumed no data";
  SOFIA_CHECK_GE(h, 1u);
  const size_t rank = options_.rank;
  const size_t m = options_.period;
  const std::vector<double>& s = season_[(season_pos_ + (h - 1)) % m];
  std::vector<double> w(rank);
  for (size_t r = 0; r < rank; ++r) {
    w[r] = level_[r] + static_cast<double>(h) * trend_[r] + s[r];
  }
  return StepResult::LinearMap(loadings_, std::move(w), slice_shape_);
}

}  // namespace sofia
