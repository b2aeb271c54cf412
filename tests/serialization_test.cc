#include <gtest/gtest.h>

#include <sstream>

#include "core/sofia_model.hpp"
#include "data/corruption.hpp"
#include "util/state_io.hpp"
#include "data/synthetic.hpp"
#include "eval/metrics.hpp"

namespace sofia {
namespace {

struct Fixture {
  std::vector<DenseTensor> truth;
  CorruptedStream stream;
  SofiaConfig config;
  SofiaModel model;
};

Fixture MakeFixture(uint64_t seed) {
  SofiaConfig config;
  config.rank = 3;
  config.period = 6;
  config.init_seasons = 3;
  config.lambda1 = 0.5;
  config.lambda2 = 0.5;
  config.seed = seed;
  config.max_init_iterations = 8;
  SyntheticTensor syn = MakeSinusoidTensor(7, 5, 60, 3, 6, seed);
  std::vector<DenseTensor> truth;
  for (size_t t = 0; t < 60; ++t) truth.push_back(syn.tensor.SliceLastMode(t));
  CorruptedStream stream = Corrupt(truth, {20.0, 10.0, 3.0}, seed + 1);
  const size_t w = config.InitWindow();
  std::vector<DenseTensor> is(stream.slices.begin(),
                              stream.slices.begin() + w);
  std::vector<Mask> im(stream.masks.begin(), stream.masks.begin() + w);
  SofiaModel model = SofiaModel::Initialize(is, im, config);
  return {std::move(truth), std::move(stream), config, std::move(model)};
}

TEST(SerializationTest, RoundtripPreservesForecasts) {
  Fixture f = MakeFixture(61);
  // Advance a few steps so the state is no longer the fresh init.
  for (size_t t = f.config.InitWindow(); t < 30; ++t) {
    f.model.Step(f.stream.slices[t], f.stream.masks[t]);
  }
  std::stringstream buffer;
  f.model.Serialize(buffer);
  SofiaModel restored = SofiaModel::Deserialize(buffer);
  for (size_t h = 1; h <= 2 * f.config.period; ++h) {
    DenseTensor a = f.model.Forecast(h);
    DenseTensor b = restored.Forecast(h);
    DenseTensor diff = a - b;
    EXPECT_DOUBLE_EQ(diff.FrobeniusNorm(), 0.0) << "h=" << h;
  }
}

TEST(SerializationTest, RestoredModelContinuesStreamIdentically) {
  Fixture f = MakeFixture(63);
  const size_t w = f.config.InitWindow();
  for (size_t t = w; t < 28; ++t) {
    f.model.Step(f.stream.slices[t], f.stream.masks[t]);
  }
  std::stringstream buffer;
  f.model.Serialize(buffer);
  SofiaModel restored = SofiaModel::Deserialize(buffer);

  // Bit-for-bit identical stepping after restore.
  for (size_t t = 28; t < 40; ++t) {
    SofiaStepResult a = f.model.Step(f.stream.slices[t], f.stream.masks[t]);
    SofiaStepResult b = restored.Step(f.stream.slices[t], f.stream.masks[t]);
    DenseTensor diff = a.imputed() - b.imputed();
    EXPECT_DOUBLE_EQ(diff.FrobeniusNorm(), 0.0) << "t=" << t;
    DenseTensor odiff = a.outliers() - b.outliers();
    EXPECT_DOUBLE_EQ(odiff.FrobeniusNorm(), 0.0) << "t=" << t;
  }
}

TEST(SerializationTest, RoundtripAfterRingWraparound) {
  // Step past a full period so the seasonal ring (season_pos_), the
  // temporal-row ring (row_pos_/row_history_), and the error-scale tensor
  // all hold genuinely streamed state — freshly-initialized models leave
  // those at their seed values.
  Fixture f = MakeFixture(67);
  const size_t w = f.config.InitWindow();
  const size_t m = f.config.period;
  for (size_t t = w; t < w + m + 3; ++t) {
    f.model.Step(f.stream.slices[t], f.stream.masks[t]);
  }
  std::stringstream buffer;
  f.model.Serialize(buffer);
  SofiaModel restored = SofiaModel::Deserialize(buffer);

  // season_pos_ alignment: the next seasonal component must be the same slot.
  EXPECT_EQ(restored.next_season(), f.model.next_season());
  EXPECT_EQ(restored.level(), f.model.level());
  EXPECT_EQ(restored.trend(), f.model.trend());
  EXPECT_EQ(restored.last_temporal_row(), f.model.last_temporal_row());
  // sigma_ round-trips exactly (raw IEEE-754 bytes).
  DenseTensor sdiff = restored.error_scale() - f.model.error_scale();
  EXPECT_DOUBLE_EQ(sdiff.FrobeniusNorm(), 0.0);

  // row_history_/row_pos_ feed the λ2 seasonal coupling of Eq. (25): over
  // the next full period every ring slot is consumed, so bitwise-identical
  // stepping proves the whole ring (and its rotation) round-tripped.
  for (size_t t = w + m + 3; t < w + 2 * m + 4; ++t) {
    SofiaStepResult a = f.model.Step(f.stream.slices[t], f.stream.masks[t]);
    SofiaStepResult b = restored.Step(f.stream.slices[t], f.stream.masks[t]);
    DenseTensor idiff = a.imputed() - b.imputed();
    EXPECT_DOUBLE_EQ(idiff.FrobeniusNorm(), 0.0) << "t=" << t;
    DenseTensor fdiff = a.forecast() - b.forecast();
    EXPECT_DOUBLE_EQ(fdiff.FrobeniusNorm(), 0.0) << "t=" << t;
    EXPECT_EQ(a.observed_outliers(), b.observed_outliers()) << "t=" << t;
    EXPECT_EQ(restored.next_season(), f.model.next_season()) << "t=" << t;
    EXPECT_EQ(restored.last_temporal_row(), f.model.last_temporal_row())
        << "t=" << t;
  }
}

TEST(SerializationTest, PreservesConfigAndHwState) {
  Fixture f = MakeFixture(65);
  std::stringstream buffer;
  f.model.Serialize(buffer);
  SofiaModel restored = SofiaModel::Deserialize(buffer);
  EXPECT_EQ(restored.config().rank, f.config.rank);
  EXPECT_EQ(restored.config().period, f.config.period);
  EXPECT_EQ(restored.level(), f.model.level());
  EXPECT_EQ(restored.trend(), f.model.trend());
  EXPECT_EQ(restored.last_temporal_row(), f.model.last_temporal_row());
  for (size_t r = 0; r < f.config.rank; ++r) {
    EXPECT_DOUBLE_EQ(restored.hw_params()[r].alpha,
                     f.model.hw_params()[r].alpha);
  }
}

TEST(SerializationTest, KernelPathKnobsRoundTrip) {
  // Step's summation order differs between the kernel paths at the ulp
  // level, so the selected path must survive a checkpoint for the restored
  // model to continue the stream bit-for-bit. num_threads is deliberately
  // runtime-only: results are thread-count invariant and the worker count
  // belongs to the restoring machine.
  Fixture f = MakeFixture(69);
  f.model.set_use_sparse_kernels(false);
  f.model.set_num_threads(3);
  std::stringstream buffer;
  f.model.Serialize(buffer);
  SofiaModel restored = SofiaModel::Deserialize(buffer);
  EXPECT_FALSE(restored.config().use_sparse_kernels);
  EXPECT_TRUE(restored.config().reuse_step_pattern);
  EXPECT_EQ(restored.config().num_threads, 0u);
}

TEST(SerializationTest, RejectsGarbageInput) {
  // Garbage bytes throw state_io::StateError (the durability layer's
  // snapshot fallback relies on this) — never abort, never a partial model.
  std::stringstream buffer("not a checkpoint at all");
  EXPECT_THROW(SofiaModel::Deserialize(buffer), state_io::StateError);
}

TEST(SerializationTest, RejectsPreBinaryTextCheckpoint) {
  // A rank-1 model on 2x2 slices after init + two steps, as the text
  // encoder (replaced by the binary format) wrote it.
  std::stringstream buffer(R"(sofia-model v2
1 2 2 0.001 0.001 10 0.10000000000000001 0.01 0.01 1 2 2.52
1 1
1 0 1
2
2 1 -1.0014161250236726 -0.05727400695216877
2 1 0.31716499836999079 0.95158863546111627
1
0.40712620990643644 0.54297214807478111 0
1 0.70477070178643197
1 0.00030128297220929538
2 0
1 0.44211181474933536
1 -0.44211181474933531
2 0
1 1.1480831561178895
1 0.26265361858381681
1 0.26265361858381681
2 2 2 0.099001732842473378 0.099000005670815863 0.09901554091611911 0.099000051046770191
)");
  EXPECT_THROW(SofiaModel::Deserialize(buffer), state_io::StateError);
}

}  // namespace
}  // namespace sofia
