#include "baselines/brst.hpp"

#include <cmath>
#include <utility>

#include "baselines/common.hpp"
#include "linalg/solve.hpp"
#include "util/check.hpp"
#include "util/state_io.hpp"

namespace sofia {

void BrstLite::SaveState(std::ostream& out) const {
  state_io::BeginState(out, "brst-lite", 1);
  state_io::WriteMatrixList(out, factors_);
  state_io::WriteVector(out, ard_precision_);
  state_io::WriteDouble(out, noise_var_);
}

void BrstLite::RestoreState(std::istream& in) {
  state_io::ReadStateHeader(in, "brst-lite", 1);
  factors_ = state_io::ReadMatrixList(in);
  ard_precision_ = state_io::ReadVector(in);
  noise_var_ = state_io::ReadDouble(in);
}

StepResult BrstLite::StepLazy(const DenseTensor& y, const Mask& omega,
                              std::shared_ptr<const CooList> pattern) {
  return StepShared(y, omega, std::move(pattern), /*want_result=*/true);
}

void BrstLite::Observe(const DenseTensor& y, const Mask& omega) {
  StepShared(y, omega, nullptr, /*want_result=*/false);
}

StepResult BrstLite::StepShared(const DenseTensor& y, const Mask& omega,
                                std::shared_ptr<const CooList> pattern,
                                bool want_result) {
  const size_t rank = options_.rank;
  if (factors_.empty()) {
    factors_ = RandomNontemporalFactors(y.shape(), rank, options_.seed);
    ard_precision_.assign(rank, 1.0);
  }
  const double nu = options_.student_nu;

  if (sweep_.sparse()) {
    sweep_.BeginStep(y, omega, std::move(pattern));
    const std::vector<double>& values = sweep_.values();

    // Temporal row with ARD-weighted ridge: strongly-pruned columns are
    // pinned near zero.
    NormalSystem sys = sweep_.TemporalSystem(factors_, values);
    for (size_t r = 0; r < rank; ++r) {
      sys.b(r, r) += options_.ridge + noise_var_ * ard_precision_[r];
    }
    std::vector<double> w = SolveRidge(sys.b, sys.c);

    // Student-t responsibility gating: heavy residuals get weight ~ nu/r².
    // The gated pseudo-residuals g_k then drive the same gradient
    // accumulation as the dense scan, restricted to the records.
    std::vector<double> g = sweep_.Reconstruct(factors_, w);
    double weighted_sq = 0.0, weight_sum = 0.0;
    for (size_t k = 0; k < g.size(); ++k) {
      const double resid = values[k] - g[k];
      const double gate =
          (nu + 1.0) / (nu + resid * resid / std::max(noise_var_, 1e-12));
      weighted_sq += gate * resid * resid;
      weight_sum += gate;
      g[k] = gate * resid;
    }
    ModeGradients grads =
        sweep_.Gradients(factors_, w, g, /*with_traces=*/false);
    return FinishStep(std::move(w), std::move(grads.row_grads), weighted_sq,
                      weight_sum, want_result);
  }

  // Dense-scan reference path.
  const Shape& shape = y.shape();
  Matrix b(rank, rank);
  std::vector<double> c(rank, 0.0);
  std::vector<size_t> idx(shape.order(), 0);
  std::vector<double> h(rank);
  for (size_t linear = 0; linear < shape.NumElements(); ++linear) {
    if (omega.Get(linear)) {
      for (size_t r = 0; r < rank; ++r) {
        double p = 1.0;
        for (size_t l = 0; l < factors_.size(); ++l) {
          p *= factors_[l](idx[l], r);
        }
        h[r] = p;
      }
      for (size_t r = 0; r < rank; ++r) {
        c[r] += y[linear] * h[r];
        double* brow = b.Row(r);
        for (size_t q = 0; q < rank; ++q) brow[q] += h[r] * h[q];
      }
    }
    shape.Next(&idx);
  }
  for (size_t r = 0; r < rank; ++r) {
    b(r, r) += options_.ridge + noise_var_ * ard_precision_[r];
  }
  std::vector<double> w = SolveRidge(b, c);

  // Student-t responsibility gating: heavy residuals get weight ~ nu/r².
  std::vector<Matrix> grads;
  grads.reserve(factors_.size());
  for (const Matrix& f : factors_) grads.emplace_back(f.rows(), rank, 0.0);
  double weighted_sq = 0.0, weight_sum = 0.0;
  idx.assign(shape.order(), 0);
  for (size_t linear = 0; linear < shape.NumElements(); ++linear) {
    if (omega.Get(linear)) {
      double recon = 0.0;
      for (size_t r = 0; r < rank; ++r) {
        double p = w[r];
        for (size_t l = 0; l < factors_.size(); ++l) {
          p *= factors_[l](idx[l], r);
        }
        h[r] = p;  // h now holds per-rank contributions (w included).
        recon += p;
      }
      const double resid = y[linear] - recon;
      const double gate =
          (nu + 1.0) / (nu + resid * resid / std::max(noise_var_, 1e-12));
      weighted_sq += gate * resid * resid;
      weight_sum += gate;
      const double g = gate * resid;
      for (size_t l = 0; l < factors_.size(); ++l) {
        double* grow = grads[l].Row(idx[l]);
        for (size_t r = 0; r < rank; ++r) {
          // d recon / d u^(l)_r: the leave-one-out product seeded with w
          // and multiplied through in mode order — the exact accumulation
          // of the observed-entry kernel (CooModeGradients), so the two
          // paths agree bitwise.
          double loo = w[r];
          for (size_t l2 = 0; l2 < factors_.size(); ++l2) {
            if (l2 != l) loo *= factors_[l2](idx[l2], r);
          }
          grow[r] += g * loo;
        }
      }
    }
    shape.Next(&idx);
  }
  return FinishStep(std::move(w), std::move(grads), weighted_sq, weight_sum,
                    want_result);
}

StepResult BrstLite::FinishStep(std::vector<double> w,
                                std::vector<Matrix> grads,
                                double weighted_sq, double weight_sum,
                                bool want_result) {
  const size_t rank = options_.rank;
  // MAP gradient step with the ARD Gaussian prior: besides the data term,
  // each column r decays by its precision γ_r. Low-energy columns get a
  // large γ, decay further, and spiral into pruning — the rank-collapse
  // dynamic of variational robust factorization.
  for (size_t l = 0; l < factors_.size(); ++l) {
    grads[l] *= 2.0 * options_.learning_rate;
    factors_[l] += grads[l];
    for (size_t r = 0; r < rank; ++r) {
      const double decay = std::max(
          0.1, 1.0 - options_.learning_rate * noise_var_ *
                         ard_precision_[r] /
                         static_cast<double>(factors_[l].rows()));
      for (size_t i = 0; i < factors_[l].rows(); ++i) {
        factors_[l](i, r) *= decay;
      }
    }
  }
  if (weight_sum > 0.0) {
    noise_var_ = 0.9 * noise_var_ + 0.1 * (weighted_sq / weight_sum);
  }

  // ARD update: precision inversely proportional to column energy. Columns
  // with vanishing energy get an enormous precision, which pins their
  // temporal weights to zero on the next step — the rank-collapse dynamic.
  for (size_t r = 0; r < rank; ++r) {
    double energy = w[r] * w[r];
    size_t count = 1;
    for (const Matrix& f : factors_) {
      energy += f.ColNorm(r) * f.ColNorm(r);
      count += f.rows();
    }
    ard_precision_[r] = options_.ard_strength * static_cast<double>(count) /
                        std::max(energy, 1e-12);
  }

  if (!want_result) return StepResult();
  // Zero out the temporal weight of pruned columns in the reconstruction.
  for (size_t r = 0; r < rank; ++r) {
    double energy = 0.0;
    for (const Matrix& f : factors_) energy += f.ColNorm(r) * f.ColNorm(r);
    if (energy < options_.prune_threshold) w[r] = 0.0;
  }
  return StepResult::Kruskal(factors_, std::move(w));
}

size_t BrstLite::EffectiveRank() const {
  if (factors_.empty()) return options_.rank;
  size_t rank = 0;
  for (size_t r = 0; r < options_.rank; ++r) {
    // A column survives if every factor carries non-trivial energy in it
    // *and* ARD has not pinned it (precision below the pin level).
    double energy = 0.0;
    for (const Matrix& f : factors_) energy += f.ColNorm(r) * f.ColNorm(r);
    const bool pinned =
        ard_precision_[r] * noise_var_ > 1.0 / options_.prune_threshold;
    if (energy > options_.prune_threshold && !pinned) ++rank;
  }
  return rank;
}

}  // namespace sofia
