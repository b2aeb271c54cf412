#include "core/sofia_init.hpp"

#include <gtest/gtest.h>

#include "data/corruption.hpp"
#include "data/synthetic.hpp"
#include "eval/metrics.hpp"
#include "util/rng.hpp"

namespace sofia {
namespace {

/// Splits a ground-truth tensor into per-step slices and corrupts them.
struct InitProblem {
  std::vector<DenseTensor> truth_slices;
  CorruptedStream corrupted;
  SofiaConfig config;
};

InitProblem MakeInitProblem(const CorruptionSetting& setting, uint64_t seed) {
  InitProblem p;
  const size_t period = 8;
  p.config.period = period;
  p.config.rank = 3;
  p.config.init_seasons = 3;
  p.config.seed = seed;
  p.config.max_init_iterations = 25;
  // The smoothness weights act against the normal-equation curvature, which
  // scales with the data; 0.5 is the right order for these unit-scale
  // sinusoid tensors (see DESIGN.md §5).
  p.config.lambda1 = 0.5;
  p.config.lambda2 = 0.5;
  SyntheticTensor syn = MakeSinusoidTensor(10, 8, p.config.InitWindow(),
                                           p.config.rank, period, seed);
  for (size_t t = 0; t < p.config.InitWindow(); ++t) {
    p.truth_slices.push_back(syn.tensor.SliceLastMode(t));
  }
  p.corrupted = Corrupt(p.truth_slices, setting, seed + 1);
  return p;
}

TEST(SofiaInitTest, RecoversCleanFullyObservedWindow) {
  InitProblem p = MakeInitProblem({0.0, 0.0, 0.0}, 21);
  // Clean, fully observed data: the smoothness prior only adds bias here,
  // so use the paper-default weight.
  p.config.lambda1 = 1e-3;
  p.config.lambda2 = 1e-3;
  SofiaInitResult res = SofiaInitialize(p.corrupted.slices, p.corrupted.masks,
                                        p.config);
  DenseTensor truth = DenseTensor::StackSlices(p.truth_slices);
  // 0.07 leaves headroom for the small bias of the CP-degeneracy ridge.
  EXPECT_LT(NormalizedResidualError(res.completed, truth), 0.07);
  EXPECT_EQ(res.factors.size(), 3u);
  EXPECT_EQ(res.factors[2].rows(), p.config.InitWindow());
}

TEST(SofiaInitTest, RecoversThroughMissingnessAndOutliers) {
  InitProblem p = MakeInitProblem({30.0, 10.0, 3.0}, 23);
  SofiaInitResult res = SofiaInitialize(p.corrupted.slices, p.corrupted.masks,
                                        p.config);
  DenseTensor truth = DenseTensor::StackSlices(p.truth_slices);
  // Raw corrupted data is far from the truth; the completion must be close.
  EXPECT_LT(NormalizedResidualError(res.completed, truth), 0.25);
}

TEST(SofiaInitTest, OutlierTensorFindsInjectedSpikes) {
  InitProblem p = MakeInitProblem({0.0, 10.0, 4.0}, 25);
  SofiaInitResult res = SofiaInitialize(p.corrupted.slices, p.corrupted.masks,
                                        p.config);
  Mask outlier_truth = Mask::StackSlices(p.corrupted.outlier_positions);
  size_t hits = 0, total = 0, false_alarms = 0, clean = 0;
  for (size_t k = 0; k < res.outliers.NumElements(); ++k) {
    if (outlier_truth.Get(k)) {
      ++total;
      if (std::fabs(res.outliers[k]) > 1e-9) ++hits;
    } else {
      ++clean;
      if (std::fabs(res.outliers[k]) > 1.0) ++false_alarms;
    }
  }
  ASSERT_GT(total, 0u);
  // Recall: the vast majority of the big injected spikes are captured.
  EXPECT_GT(static_cast<double>(hits) / static_cast<double>(total), 0.9);
  // Precision proxy: almost no large spurious outliers on clean entries.
  EXPECT_LT(static_cast<double>(false_alarms) / static_cast<double>(clean),
            0.05);
}

TEST(SofiaInitTest, SmoothInitBeatsVanillaAlsUnderHeavyCorruption) {
  // The Fig. 2 experiment in miniature: harsh missingness + outliers.
  InitProblem p = MakeInitProblem({60.0, 15.0, 5.0}, 27);
  SofiaInitResult smooth = SofiaInitialize(p.corrupted.slices,
                                           p.corrupted.masks, p.config,
                                           /*smooth_temporal=*/true);
  SofiaInitResult vanilla = SofiaInitialize(p.corrupted.slices,
                                            p.corrupted.masks, p.config,
                                            /*smooth_temporal=*/false);
  DenseTensor truth = DenseTensor::StackSlices(p.truth_slices);
  const double nre_smooth = NormalizedResidualError(smooth.completed, truth);
  const double nre_vanilla =
      NormalizedResidualError(vanilla.completed, truth);
  EXPECT_LT(nre_smooth, nre_vanilla);
}

// Initialization inherits SofiaAls's pool: factors and the outlier tensor
// are bitwise the serial run's at every thread count.
TEST(SofiaInitTest, BitwiseIdenticalAcrossThreadCounts) {
  InitProblem p = MakeInitProblem({30.0, 10.0, 3.0}, 31);
  p.config.num_threads = 1;
  const SofiaInitResult ref =
      SofiaInitialize(p.corrupted.slices, p.corrupted.masks, p.config);
  for (size_t threads : {size_t{2}, size_t{4}}) {
    p.config.num_threads = threads;
    const SofiaInitResult got =
        SofiaInitialize(p.corrupted.slices, p.corrupted.masks, p.config);
    EXPECT_EQ(got.outer_iterations, ref.outer_iterations);
    for (size_t n = 0; n < ref.factors.size(); ++n) {
      EXPECT_EQ(got.factors[n].MaxAbsDiff(ref.factors[n]), 0.0)
          << "threads=" << threads << " mode=" << n;
    }
    DenseTensor diff = got.outliers;
    diff -= ref.outliers;
    EXPECT_EQ(diff.MaxAbs(), 0.0) << "threads=" << threads;
  }
}

TEST(SofiaInitTest, RejectsWrongSliceCount) {
  InitProblem p = MakeInitProblem({0.0, 0.0, 0.0}, 29);
  p.corrupted.slices.pop_back();
  p.corrupted.masks.pop_back();
  EXPECT_DEATH(
      SofiaInitialize(p.corrupted.slices, p.corrupted.masks, p.config),
      "init");
}

}  // namespace
}  // namespace sofia
