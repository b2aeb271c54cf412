#include "baselines/cp_wopt.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>

#include "baselines/observed_sweep.hpp"
#include "optim/lbfgsb.hpp"
#include "tensor/coo_list.hpp"
#include "tensor/kruskal.hpp"
#include "tensor/sparse_kernels.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/shard_executor.hpp"

namespace sofia {

namespace {

/// Total number of scalar parameters across factors.
size_t ParameterCount(const Shape& shape, size_t rank) {
  size_t n = 0;
  for (size_t mode = 0; mode < shape.order(); ++mode) {
    n += shape.dim(mode) * rank;
  }
  return n;
}

/// Packs factor matrices into a flat parameter vector (mode-major).
std::vector<double> Pack(const std::vector<Matrix>& factors) {
  std::vector<double> x;
  for (const Matrix& f : factors) {
    x.insert(x.end(), f.data(), f.data() + f.size());
  }
  return x;
}

/// Unpacks a flat parameter vector into factor matrices of the given shape.
std::vector<Matrix> Unpack(const std::vector<double>& x, const Shape& shape,
                           size_t rank) {
  std::vector<Matrix> factors;
  size_t offset = 0;
  for (size_t mode = 0; mode < shape.order(); ++mode) {
    Matrix f(shape.dim(mode), rank);
    std::copy(x.begin() + static_cast<long>(offset),
              x.begin() + static_cast<long>(offset + f.size()), f.data());
    offset += f.size();
    factors.push_back(std::move(f));
  }
  return factors;
}

/// Observed-entry loss: 0.5 ||Ω ⊛ (Y - [[U]])||_F^2 over the COO records.
double CooLoss(const CooList& coo, const std::vector<double>& values,
               const std::vector<Matrix>& factors,
               WorkerPool* pool = nullptr) {
  return 0.5 * CooResidualSquaredNorm(coo, values, factors, pool);
}

/// Observed-entry gradient. Each record contributes to one row of every
/// mode's gradient, so tasks work on contiguous record ranges with private
/// accumulators, combined in range order afterwards. The task count depends
/// only on |Ω| — never on the thread count — so the summation grouping and
/// hence the gradient bits are reproducible on any machine.
std::vector<Matrix> CooGradient(const CooList& coo,
                                const std::vector<double>& values,
                                const std::vector<Matrix>& factors,
                                WorkerPool* pool = nullptr) {
  constexpr size_t kRecordsPerTask = 4096;
  constexpr size_t kMaxTasks = 16;
  const size_t rank = factors[0].cols();
  const size_t num_modes = factors.size();
  const size_t nnz = coo.nnz();
  const size_t tasks = std::max<size_t>(
      1, std::min(kMaxTasks, (nnz + kRecordsPerTask - 1) / kRecordsPerTask));

  auto zero_grads = [&]() {
    std::vector<Matrix> g;
    g.reserve(num_modes);
    for (const Matrix& f : factors) g.emplace_back(f.rows(), rank, 0.0);
    return g;
  };
  std::vector<std::vector<Matrix>> partial(tasks);

  RunTasks(pool, tasks, [&](size_t task) {
    const size_t begin = task * nnz / tasks;
    const size_t end = (task + 1) * nnz / tasks;
    std::vector<Matrix> grads = zero_grads();
    // prefix[l] = prod of factor rows for modes < l; suffix[l] = for >= l.
    std::vector<double> prefix((num_modes + 1) * rank);
    std::vector<double> suffix((num_modes + 1) * rank);
    for (size_t k = begin; k < end; ++k) {
      const uint32_t* idx = coo.Coords(k);
      for (size_t r = 0; r < rank; ++r) prefix[r] = 1.0;
      for (size_t l = 0; l < num_modes; ++l) {
        const double* row = factors[l].Row(idx[l]);
        const double* cur = &prefix[l * rank];
        double* nxt = &prefix[(l + 1) * rank];
        for (size_t r = 0; r < rank; ++r) nxt[r] = cur[r] * row[r];
      }
      for (size_t r = 0; r < rank; ++r) suffix[num_modes * rank + r] = 1.0;
      for (size_t l = num_modes; l-- > 0;) {
        const double* row = factors[l].Row(idx[l]);
        const double* cur = &suffix[(l + 1) * rank];
        double* nxt = &suffix[l * rank];
        for (size_t r = 0; r < rank; ++r) nxt[r] = cur[r] * row[r];
      }
      double recon = 0.0;
      const double* full = &prefix[num_modes * rank];
      for (size_t r = 0; r < rank; ++r) recon += full[r];
      const double resid = values[k] - recon;
      // d loss / d U^(l)(i_l, r) = -resid * prod_{l' != l} U^(l')(i_{l'}, r).
      for (size_t l = 0; l < num_modes; ++l) {
        double* grow = grads[l].Row(idx[l]);
        const double* pre = &prefix[l * rank];
        const double* suf = &suffix[(l + 1) * rank];
        for (size_t r = 0; r < rank; ++r) {
          grow[r] -= resid * pre[r] * suf[r];
        }
      }
    }
    partial[task] = std::move(grads);
  });

  std::vector<Matrix> grads = std::move(partial[0]);
  for (size_t task = 1; task < tasks; ++task) {
    for (size_t l = 0; l < num_modes; ++l) grads[l] += partial[task][l];
  }
  return grads;
}

/// Objective adapter for the quasi-Newton solver with analytic gradients.
/// The mask never changes across iterates, so the COO structure and the
/// gathered observed values are compacted exactly once (or adopted from a
/// caller that already shares the pattern, e.g. a comparison run).
class CpWoptObjective : public Objective {
 public:
  CpWoptObjective(const DenseTensor& y, const Mask& omega, size_t rank,
                  size_t num_threads, std::shared_ptr<const CooList> pattern)
      : shape_(y.shape()),
        coo_(pattern != nullptr
                 ? std::move(pattern)
                 : MakeSharedPattern(omega, /*with_mode_buckets=*/false)),
        values_(coo_->Gather(y)),
        rank_(rank),
        pool_(MakeShardExecutor(num_threads)) {}

  double Value(const std::vector<double>& x) const override {
    return CooLoss(*coo_, values_, Unpack(x, shape_, rank_), pool_.get());
  }

  void Gradient(const std::vector<double>& x,
                std::vector<double>* grad) const override {
    std::vector<Matrix> g =
        CooGradient(*coo_, values_, Unpack(x, shape_, rank_), pool_.get());
    *grad = Pack(g);
  }

 private:
  Shape shape_;
  std::shared_ptr<const CooList> coo_;
  std::vector<double> values_;
  size_t rank_;
  // One pool for the whole quasi-Newton run: every iterate issues a Value
  // and a Gradient call, so workers are spawned once, not per evaluation.
  std::unique_ptr<ShardExecutor> pool_;
};

}  // namespace

double CpWoptLoss(const CooList& coo, const std::vector<double>& values,
                  const std::vector<Matrix>& factors) {
  return CooLoss(coo, values, factors);
}

std::vector<Matrix> CpWoptGradient(const CooList& coo,
                                   const std::vector<double>& values,
                                   const std::vector<Matrix>& factors) {
  return CooGradient(coo, values, factors);
}

double CpWoptLoss(const DenseTensor& y, const Mask& omega,
                  const std::vector<Matrix>& factors) {
  SOFIA_CHECK(y.shape() == omega.shape());
  const std::shared_ptr<const CooList> coo =
      MakeSharedPattern(omega, /*with_mode_buckets=*/false);
  return CpWoptLoss(*coo, coo->Gather(y), factors);
}

std::vector<Matrix> CpWoptGradient(const DenseTensor& y, const Mask& omega,
                                   const std::vector<Matrix>& factors) {
  SOFIA_CHECK(y.shape() == omega.shape());
  const std::shared_ptr<const CooList> coo =
      MakeSharedPattern(omega, /*with_mode_buckets=*/false);
  return CpWoptGradient(*coo, coo->Gather(y), factors);
}

CpWoptResult CpWoptFactorize(const DenseTensor& y, const Mask& omega,
                             const CpWoptOptions& options,
                             std::shared_ptr<const CooList> pattern,
                             const std::vector<Matrix>* initial) {
  SOFIA_CHECK(y.shape() == omega.shape());
  std::vector<Matrix> init;
  if (initial != nullptr) {
    SOFIA_CHECK_EQ(initial->size(), y.order());
    init = *initial;
  } else {
    Rng rng(options.seed);
    for (size_t mode = 0; mode < y.order(); ++mode) {
      init.push_back(
          Matrix::Random(y.dim(mode), options.rank, rng, 0.0, 1.0));
    }
  }

  CpWoptObjective objective(y, omega, options.rank, options.num_threads,
                            std::move(pattern));
  const size_t n = ParameterCount(y.shape(), options.rank);
  const std::vector<double> lower(n, -std::numeric_limits<double>::infinity());
  const std::vector<double> upper(n, std::numeric_limits<double>::infinity());
  LbfgsbOptions solver_options;
  solver_options.max_iterations = options.max_iterations;
  solver_options.gradient_tolerance = options.gradient_tolerance;
  LbfgsbResult solved =
      LbfgsbMinimize(objective, Pack(init), lower, upper, solver_options);

  CpWoptResult result;
  result.factors = Unpack(solved.x, y.shape(), options.rank);
  result.loss = solved.f;
  result.iterations = solved.iterations;
  result.converged = solved.converged;
  return result;
}

CpWoptResult CpWopt(const DenseTensor& y, const Mask& omega,
                    const CpWoptOptions& options,
                    std::shared_ptr<const CooList> pattern) {
  CpWoptResult result =
      CpWoptFactorize(y, omega, options, std::move(pattern), nullptr);
  result.completed = KruskalTensor(result.factors);
  return result;
}

}  // namespace sofia
