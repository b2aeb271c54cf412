#include "baselines/olstec.hpp"

#include <utility>

#include "baselines/common.hpp"
#include "linalg/vector_ops.hpp"
#include "util/check.hpp"
#include "util/state_io.hpp"

namespace sofia {

void Olstec::SaveState(std::ostream& out) const {
  state_io::BeginState(out, "olstec", 1);
  state_io::WriteMatrixList(out, factors_);
  state_io::WriteU64(out, cov_.size());
  for (const auto& mode_cov : cov_) state_io::WriteMatrixList(out, mode_cov);
}

void Olstec::RestoreState(std::istream& in) {
  state_io::ReadStateHeader(in, "olstec", 1);
  factors_ = state_io::ReadMatrixList(in);
  const size_t modes = state_io::ReadCount(in, /*cap=*/16);
  cov_.clear();
  cov_.reserve(modes);
  for (size_t n = 0; n < modes; ++n) {
    cov_.push_back(state_io::ReadMatrixList(in));
  }
}

/// One entry's RLS update, applied to every mode's factor row: the regressor
/// is h = w ⊛ (⊛_{l != mode} u^(l)) and the target is the entry value; P and
/// the row are updated with exponential forgetting. Entries must be visited
/// in the same (ascending linear) order on both paths — the update is
/// order-dependent, which is also why the sweep stays sequential.
template <typename IndexArray>
void Olstec::RlsUpdate(const IndexArray& idx, double value,
                       const std::vector<double>& w, std::vector<double>* h_buf,
                       std::vector<double>* ph_buf) {
  const size_t rank = options_.rank;
  const double lambda_f = options_.forgetting;
  std::vector<double>& h = *h_buf;
  std::vector<double>& ph = *ph_buf;
  for (size_t mode = 0; mode < factors_.size(); ++mode) {
    for (size_t r = 0; r < rank; ++r) {
      double p = w[r];
      for (size_t l = 0; l < factors_.size(); ++l) {
        if (l != mode) p *= factors_[l](idx[l], r);
      }
      h[r] = p;
    }
    Matrix& p_mat = cov_[mode][idx[mode]];
    // Gain k = P h / (λ_f + h^T P h); P <- (P - k h^T P) / λ_f.
    for (size_t r = 0; r < rank; ++r) {
      const double* prow = p_mat.Row(r);
      double s = 0.0;
      for (size_t q = 0; q < rank; ++q) s += prow[q] * h[q];
      ph[r] = s;
    }
    const double denom = lambda_f + Dot(h, ph);
    double* urow = factors_[mode].Row(idx[mode]);
    double pred = 0.0;
    for (size_t r = 0; r < rank; ++r) pred += urow[r] * h[r];
    const double err = value - pred;
    for (size_t r = 0; r < rank; ++r) {
      const double gain = ph[r] / denom;
      urow[r] += gain * err;
      double* prow = p_mat.Row(r);
      for (size_t q = 0; q < rank; ++q) {
        prow[q] = (prow[q] - gain * ph[q]) / lambda_f;
      }
    }
  }
}

StepResult Olstec::StepLazy(const DenseTensor& y, const Mask& omega,
                            std::shared_ptr<const CooList> pattern) {
  return StepShared(y, omega, std::move(pattern), /*want_result=*/true);
}

void Olstec::Observe(const DenseTensor& y, const Mask& omega) {
  StepShared(y, omega, nullptr, /*want_result=*/false);
}

StepResult Olstec::StepShared(const DenseTensor& y, const Mask& omega,
                              std::shared_ptr<const CooList> pattern,
                              bool want_result) {
  const size_t rank = options_.rank;
  if (factors_.empty()) {
    factors_ = RandomNontemporalFactors(y.shape(), rank, options_.seed);
    cov_.resize(factors_.size());
    for (size_t l = 0; l < factors_.size(); ++l) {
      cov_[l].assign(factors_[l].rows(), Matrix::Identity(rank) *
                                             options_.delta);
    }
  }
  if (!sweep_.sparse()) return StepDense(y, omega, want_result);

  sweep_.BeginStep(y, omega, std::move(pattern));
  const CooList& coo = sweep_.pattern();
  const std::vector<double>& values = sweep_.values();

  std::vector<double> w =
      sweep_.SolveTemporalRow(factors_, values, options_.ridge);

  // Row-wise RLS sweep over the compacted records, in ascending linear
  // order (the bucket-free record order) — exactly the dense scan's visit
  // order restricted to Ω_t.
  std::vector<double> h(rank), ph(rank);
  for (size_t k = 0; k < coo.nnz(); ++k) {
    RlsUpdate(coo.Coords(k), values[k], w, &h, &ph);
  }

  if (!want_result) return StepResult();
  // Re-solve the temporal row against the refreshed factors; the estimate
  // stays lazy as the (factors, row) Kruskal structure.
  w = sweep_.SolveTemporalRow(factors_, values, options_.ridge);
  return StepResult::Kruskal(factors_, std::move(w));
}

StepResult Olstec::StepDense(const DenseTensor& y, const Mask& omega,
                             bool want_result) {
  const size_t rank = options_.rank;
  std::vector<double> w =
      SolveTemporalRow(y, omega, nullptr, factors_, options_.ridge);

  const Shape& shape = y.shape();
  std::vector<size_t> idx(shape.order(), 0);
  std::vector<double> h(rank), ph(rank);
  for (size_t linear = 0; linear < shape.NumElements(); ++linear) {
    if (omega.Get(linear)) {
      RlsUpdate(idx, y[linear], w, &h, &ph);
    }
    shape.Next(&idx);
  }

  if (!want_result) return StepResult();
  // Re-solve the temporal row against the refreshed factors.
  w = SolveTemporalRow(y, omega, nullptr, factors_, options_.ridge);
  return StepResult::Kruskal(factors_, std::move(w));
}

}  // namespace sofia
