// StreamingMethod::SaveState / RestoreState across all nine methods:
//  - a checkpoint taken mid-stream and restored into a freshly constructed
//    method (same configuration) continues the stream bit-for-bit — the
//    contract StreamGuard's rollback policy is built on;
//  - re-serializing the restored state reproduces the checkpoint bytes
//    (bitwise-identical factors);
//  - re-saving a restored method reproduces the original's bytes at every
//    point of a stream, and pre-binary text checkpoints are rejected with
//    StateError;
//  - StreamGuard's checkpoint ring wraps past its slot count, and a
//    rollback restores exactly the newest pre-fault state (pinned by
//    comparing against a twin that never saw the poisoned slice).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/brst.hpp"
#include "baselines/cp_wopt_stream.hpp"
#include "baselines/cphw.hpp"
#include "baselines/mast.hpp"
#include "baselines/olstec.hpp"
#include "baselines/online_sgd.hpp"
#include "baselines/or_mstc.hpp"
#include "baselines/smf.hpp"
#include "core/sofia_stream.hpp"
#include "data/corruption.hpp"
#include "data/synthetic.hpp"
#include "eval/stream_guard.hpp"
#include "tensor/coo_list.hpp"
#include "util/state_io.hpp"

namespace sofia {
namespace {

std::vector<DenseTensor> MakeTruth(size_t steps, uint64_t seed) {
  SyntheticTensor syn = MakeSinusoidTensor(6, 5, steps, 3, 4, seed);
  std::vector<DenseTensor> truth;
  for (size_t t = 0; t < steps; ++t) {
    truth.push_back(syn.tensor.SliceLastMode(t));
  }
  return truth;
}

/// All nine streaming methods, small configs (one factory call per
/// instance so paired instances share their configuration exactly).
std::vector<std::unique_ptr<StreamingMethod>> MakeAllMethods() {
  std::vector<std::unique_ptr<StreamingMethod>> methods;
  SofiaConfig config;
  config.rank = 3;
  config.period = 4;
  config.lambda1 = 0.5;
  config.lambda2 = 0.5;
  config.num_threads = 1;
  methods.push_back(std::make_unique<SofiaStream>(config));
  methods.push_back(std::make_unique<OnlineSgd>(OnlineSgdOptions{.rank = 3}));
  methods.push_back(std::make_unique<Olstec>(OlstecOptions{.rank = 3}));
  methods.push_back(std::make_unique<Mast>(MastOptions{.rank = 3}));
  methods.push_back(std::make_unique<OrMstc>(
      OrMstcOptions{.rank = 3, .outlier_lambda = 2.0}));
  methods.push_back(std::make_unique<BrstLite>(BrstOptions{.rank = 4}));
  methods.push_back(std::make_unique<Smf>(SmfOptions{.rank = 3, .period = 4}));
  methods.push_back(std::make_unique<Cphw>(CphwOptions{.rank = 3,
                                                       .period = 4}));
  methods.push_back(std::make_unique<CpWoptStream>(
      CpWoptStreamOptions{.rank = 3, .iterations_per_step = 5}));
  return methods;
}

/// Steps `method` over stream slices [from, to) and returns the estimates
/// gathered at every step's observed entries (the values rollback must
/// reproduce bit-for-bit).
std::vector<double> DriveAndGather(StreamingMethod* method,
                                   const CorruptedStream& stream, size_t from,
                                   size_t to) {
  std::vector<double> out;
  for (size_t t = from; t < to; ++t) {
    StepResult result = method->StepLazy(stream.slices[t], stream.masks[t]);
    CooList pattern =
        CooList::Build(stream.masks[t], /*with_mode_buckets=*/false);
    std::vector<double> gathered = result.GatherAt(pattern);
    out.insert(out.end(), gathered.begin(), gathered.end());
  }
  return out;
}

TEST(CheckpointTest, RoundTripContinuesBitwiseForAllNineMethods) {
  const size_t steps = 24;
  std::vector<DenseTensor> truth = MakeTruth(steps, 131);
  CorruptedStream stream = Corrupt(truth, {20.0, 5.0, 2.0}, 132);

  std::vector<std::unique_ptr<StreamingMethod>> originals = MakeAllMethods();
  std::vector<std::unique_ptr<StreamingMethod>> restored = MakeAllMethods();
  ASSERT_EQ(originals.size(), 9u);

  for (size_t m = 0; m < originals.size(); ++m) {
    StreamingMethod* a = originals[m].get();
    StreamingMethod* b = restored[m].get();
    SCOPED_TRACE(a->name());
    ASSERT_TRUE(a->SupportsStateCheckpoint());

    const size_t w = a->init_window();
    const size_t split = std::max<size_t>(w, 12) + 4;
    ASSERT_LT(split, steps);
    if (w > 0) {
      std::vector<DenseTensor> init_slices(stream.slices.begin(),
                                           stream.slices.begin() + w);
      std::vector<Mask> init_masks(stream.masks.begin(),
                                   stream.masks.begin() + w);
      a->Initialize(init_slices, init_masks);
    }
    DriveAndGather(a, stream, w, split);

    std::ostringstream snapshot;
    a->SaveState(snapshot);

    // `b` is a fresh instance: no Initialize, no steps — the checkpoint is
    // its entire state.
    std::istringstream in(snapshot.str());
    b->RestoreState(in);

    // Bitwise-identical state: re-serializing reproduces the bytes.
    std::ostringstream again;
    b->SaveState(again);
    EXPECT_EQ(snapshot.str(), again.str());

    // Bit-for-bit continuation on the shared tail.
    std::vector<double> tail_a = DriveAndGather(a, stream, split, steps);
    std::vector<double> tail_b = DriveAndGather(b, stream, split, steps);
    ASSERT_EQ(tail_a.size(), tail_b.size());
    for (size_t k = 0; k < tail_a.size(); ++k) {
      ASSERT_EQ(tail_a[k], tail_b[k]) << "diverged at gathered value " << k;
    }
  }
}

std::string SaveBytes(const StreamingMethod& method) {
  std::ostringstream out;
  method.SaveState(out);
  return out.str();
}

/// Restores `bytes` into `method`, then returns its re-saved bytes.
std::string RestoreAndResave(StreamingMethod* method,
                             const std::string& bytes) {
  std::istringstream in(bytes);
  method->RestoreState(in);
  return SaveBytes(*method);
}

TEST(CheckpointTest, ResavedBytesAreByteIdenticalForAllNineMethods) {
  // Save → Restore → Save must reproduce the bytes exactly, before any
  // data, mid-stream, and after the restored copy has stepped on: the
  // recovery check of the stream benchmark compares a recovered stack's
  // bytes with the live one's.
  const size_t steps = 24;
  std::vector<DenseTensor> truth = MakeTruth(steps, 181);
  CorruptedStream stream = Corrupt(truth, {20.0, 5.0, 2.0}, 182);

  std::vector<std::unique_ptr<StreamingMethod>> originals = MakeAllMethods();
  std::vector<std::unique_ptr<StreamingMethod>> copies = MakeAllMethods();
  for (size_t m = 0; m < originals.size(); ++m) {
    StreamingMethod* a = originals[m].get();
    StreamingMethod* b = copies[m].get();
    SCOPED_TRACE(a->name());

    const std::string fresh = SaveBytes(*a);
    EXPECT_EQ(RestoreAndResave(b, fresh), fresh);

    const size_t w = a->init_window();
    if (w > 0) {
      std::vector<DenseTensor> init_slices(stream.slices.begin(),
                                           stream.slices.begin() + w);
      std::vector<Mask> init_masks(stream.masks.begin(),
                                   stream.masks.begin() + w);
      a->Initialize(init_slices, init_masks);
    }
    const size_t split = std::max<size_t>(w, 12) + 4;
    DriveAndGather(a, stream, w, split);
    const std::string mid = SaveBytes(*a);
    EXPECT_EQ(RestoreAndResave(b, mid), mid);

    DriveAndGather(a, stream, split, steps);
    DriveAndGather(b, stream, split, steps);
    EXPECT_EQ(SaveBytes(*b), SaveBytes(*a));
  }
}

TEST(CheckpointTest, RestoreRejectsPreBinaryTextCheckpoints) {
  // Checkpoints the text encoder (replaced by the binary format) wrote for
  // a rank-1 SOFIA on 2x2 slices after init + two steps, and for MAST after
  // two steps. They must fail cleanly, never abort or half-restore.
  const std::string sofia_text = R"(sofia-stream v1
1
sofia-model v2
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
)";
  const std::string mast_text = R"(mast v1
2
2 1 0.7359629502399857 0.14706917171169015
2 1 0.12346913714254736 0.39786297641455032
)";
  SofiaConfig config;
  config.rank = 1;
  config.period = 2;
  config.init_seasons = 2;
  SofiaStream sofia(config);
  std::istringstream sofia_in(sofia_text);
  EXPECT_THROW(sofia.RestoreState(sofia_in), state_io::StateError);

  Mast mast(MastOptions{.rank = 1});
  std::istringstream mast_in(mast_text);
  EXPECT_THROW(mast.RestoreState(mast_in), state_io::StateError);
}

TEST(CheckpointTest, RestoreRejectsWrongMethodTag) {
  // A recoverable error, not an abort: the durability layer catches
  // StateError to fall back to an older checkpoint generation.
  OnlineSgd sgd(OnlineSgdOptions{.rank = 3});
  std::ostringstream snapshot;
  sgd.SaveState(snapshot);
  Mast mast(MastOptions{.rank = 3});
  std::istringstream in(snapshot.str());
  EXPECT_THROW(mast.RestoreState(in), state_io::StateError);
}

TEST(CheckpointTest, RestoreSurvivesTruncationAndBitFlipFuzz) {
  // Corruption fuzz across all nine methods: every truncation and every
  // single-byte mutation of a valid checkpoint must either restore
  // cleanly or throw StateError — never abort, crash, or allocate from a
  // poisoned size field. (ASan runs this same loop in CI.)
  const size_t steps = 20;
  std::vector<DenseTensor> truth = MakeTruth(steps, 171);
  CorruptedStream stream = Corrupt(truth, {20.0, 5.0, 2.0}, 172);

  std::vector<std::unique_ptr<StreamingMethod>> originals = MakeAllMethods();
  for (size_t m = 0; m < originals.size(); ++m) {
    StreamingMethod* a = originals[m].get();
    SCOPED_TRACE(a->name());
    const size_t w = a->init_window();
    if (w > 0) {
      std::vector<DenseTensor> init_slices(stream.slices.begin(),
                                           stream.slices.begin() + w);
      std::vector<Mask> init_masks(stream.masks.begin(),
                                   stream.masks.begin() + w);
      a->Initialize(init_slices, init_masks);
    }
    DriveAndGather(a, stream, w, std::max<size_t>(w, 12) + 4);
    std::ostringstream snapshot;
    a->SaveState(snapshot);
    const std::string bytes = snapshot.str();
    ASSERT_FALSE(bytes.empty());

    const auto restore_must_not_crash = [&](const std::string& corrupt) {
      std::unique_ptr<StreamingMethod> fresh =
          std::move(MakeAllMethods()[m]);
      std::istringstream in(corrupt);
      try {
        fresh->RestoreState(in);
      } catch (const state_io::StateError&) {
        // Rejected cleanly — the expected outcome for most mutations.
      }
    };

    // Truncations (torn writes at rest), including every 8-byte field
    // boundary of the header and the leading counts.
    for (const double frac : {0.0, 0.1, 0.3, 0.5, 0.7, 0.9}) {
      restore_must_not_crash(
          bytes.substr(0, static_cast<size_t>(frac * bytes.size())));
    }
    restore_must_not_crash(bytes.substr(0, bytes.size() - 1));
    for (size_t pos = 0; pos < std::min<size_t>(256, bytes.size());
         pos += 8) {
      restore_must_not_crash(bytes.substr(0, pos));
    }

    // High-bit flips: at the low and high byte of every leading 8-byte
    // field (a flipped top bit turns a count into ~2^63, a flipped low-byte
    // bit into a plausible but wrong size) and across the whole buffer.
    const auto flip_high_bit = [&](size_t pos) {
      std::string mutated = bytes;
      mutated[pos] = static_cast<char>(mutated[pos] ^ 0x80);
      restore_must_not_crash(mutated);
    };
    for (size_t pos = 0; pos < std::min<size_t>(256, bytes.size());
         pos += 8) {
      flip_high_bit(pos);
      if (pos + 7 < bytes.size()) flip_high_bit(pos + 7);
    }

    // Single-character mutations (bit rot), spread across the buffer. '9'
    // inflates digits (stressing the allocation caps); '#' breaks parses.
    const size_t stride = std::max<size_t>(1, bytes.size() / 24);
    for (size_t pos = 0; pos < bytes.size(); pos += stride) {
      flip_high_bit(pos);
      for (const char c : {'9', '#'}) {
        if (bytes[pos] == c) continue;
        std::string mutated = bytes;
        mutated[pos] = c;
        restore_must_not_crash(mutated);
      }
    }
  }
}

TEST(CheckpointTest, GuardRingWrapsAndRollbackRestoresNewestState) {
  const size_t steps = 12;
  std::vector<DenseTensor> truth = MakeTruth(steps, 141);
  CorruptedStream stream = Corrupt(truth, {20.0, 0.0, 0.0}, 142);

  StreamGuardOptions options;
  options.policy = GuardPolicy::kRollback;
  options.checkpoint_every = 1;  // Per-step saves: rollback loses nothing.
  options.checkpoint_slots = 2;  // Force wraparound well within the run.
  // Disable the payload-scale watch so the huge slice reaches the health
  // layer (this test pins the rollback path, not input validation).
  options.payload_explosion_factor = 0.0;
  StreamGuard guard(std::make_unique<OnlineSgd>(OnlineSgdOptions{.rank = 3}),
                    options);
  // Twin that simply never receives the poisoned slice: after the guard's
  // rollback both must be in the same state bit-for-bit.
  OnlineSgd twin(OnlineSgdOptions{.rank = 3});

  const size_t fault_step = 8;
  for (size_t t = 0; t < fault_step; ++t) {
    guard.StepLazy(stream.slices[t], stream.masks[t]);
    twin.StepLazy(stream.slices[t], stream.masks[t]);
  }
  // More ring writes than slots: the ring wrapped.
  EXPECT_EQ(guard.telemetry().checkpoints_saved, fault_step);
  EXPECT_GT(guard.telemetry().checkpoints_saved, options.checkpoint_slots);

  // A hugely scaled payload passes input validation (finite) but trips the
  // health watch; rollback restores the newest checkpoint = the state after
  // step fault_step - 1, which is exactly the twin's state.
  DenseTensor poisoned = stream.slices[fault_step];
  for (size_t k = 0; k < poisoned.NumElements(); ++k) {
    poisoned[k] = (stream.max_abs + 1.0) * 1e9;
  }
  guard.StepLazy(poisoned, stream.masks[fault_step]);
  EXPECT_EQ(guard.telemetry().health_trips, 1u);
  EXPECT_EQ(guard.telemetry().rollbacks, 1u);

  std::vector<double> after_guard =
      DriveAndGather(&guard, stream, fault_step + 1, steps);
  std::vector<double> after_twin =
      DriveAndGather(&twin, stream, fault_step + 1, steps);
  ASSERT_EQ(after_guard.size(), after_twin.size());
  for (size_t k = 0; k < after_guard.size(); ++k) {
    ASSERT_EQ(after_guard[k], after_twin[k])
        << "rollback did not restore the pre-fault state (value " << k << ")";
  }
}

TEST(CheckpointTest, AsyncCheckpointsMatchSynchronousBitwise) {
  // When a guard adopts a ShardExecutor, SaveCheckpoint serializes on the
  // executor's aux lane, off the step path. The ring bytes, the rollback
  // behavior, and every later estimate must be bitwise identical to the
  // synchronous guard — async moves *when* the bytes are written, never
  // what they are (every inner-state mutation syncs the pending job first).
  const size_t steps = 14;
  std::vector<DenseTensor> truth = MakeTruth(steps, 151);
  CorruptedStream stream = Corrupt(truth, {20.0, 0.0, 0.0}, 152);

  StreamGuardOptions options;
  options.policy = GuardPolicy::kRollback;
  options.checkpoint_every = 1;
  options.checkpoint_slots = 2;
  options.payload_explosion_factor = 0.0;
  StreamGuard sync_guard(
      std::make_unique<OnlineSgd>(OnlineSgdOptions{.rank = 3}), options);
  StreamGuard async_guard(
      std::make_unique<OnlineSgd>(OnlineSgdOptions{.rank = 3}), options);
  auto executor = std::make_shared<ShardExecutor>(2);
  async_guard.AdoptWorkerPool(executor);

  const size_t fault_step = 8;
  std::vector<double> sync_pre =
      DriveAndGather(&sync_guard, stream, 0, fault_step);
  std::vector<double> async_pre =
      DriveAndGather(&async_guard, stream, 0, fault_step);
  ASSERT_EQ(sync_pre, async_pre);
  EXPECT_EQ(async_guard.telemetry().checkpoints_saved, fault_step);

  // SaveState must first land the in-flight aux serialization; the full
  // guard state (ring included) then matches the synchronous twin's bytes.
  std::ostringstream sync_state, async_state;
  sync_guard.SaveState(sync_state);
  async_guard.SaveState(async_state);
  EXPECT_EQ(sync_state.str(), async_state.str());

  // Rollback restores from an async-written ring slot: same recovery.
  DenseTensor poisoned = stream.slices[fault_step];
  for (size_t k = 0; k < poisoned.NumElements(); ++k) {
    poisoned[k] = (stream.max_abs + 1.0) * 1e9;
  }
  sync_guard.StepLazy(poisoned, stream.masks[fault_step]);
  async_guard.StepLazy(poisoned, stream.masks[fault_step]);
  EXPECT_EQ(async_guard.telemetry().rollbacks, 1u);
  std::vector<double> sync_post =
      DriveAndGather(&sync_guard, stream, fault_step + 1, steps);
  std::vector<double> async_post =
      DriveAndGather(&async_guard, stream, fault_step + 1, steps);
  ASSERT_EQ(sync_post.size(), async_post.size());
  for (size_t k = 0; k < sync_post.size(); ++k) {
    ASSERT_EQ(sync_post[k], async_post[k])
        << "async-checkpoint rollback diverged (value " << k << ")";
  }

  // Revoking the pool syncs and returns the guard to inline saves.
  async_guard.AdoptWorkerPool(nullptr);
  DriveAndGather(&async_guard, stream, steps - 1, steps);
}

}  // namespace
}  // namespace sofia
