// DurableGuard kill-and-recover matrix: for every injected crash point —
// snapshot mid-write (torn tmp), snapshot rename, journal mid-append (torn
// record), fsync, and recovery mid-replay — a restart from whatever the
// "disk" holds resumes the stream and produces estimates bitwise identical
// to a run that never crashed. Corrupted-at-rest snapshots degrade to the
// newest older uncorrupted generation (with the journal covering the gap),
// and when nothing on disk is usable the guard reports that instead of
// crashing, hanging, or silently answering wrong.

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "baselines/online_sgd.hpp"
#include "core/sofia_stream.hpp"
#include "data/corruption.hpp"
#include "data/synthetic.hpp"
#include "eval/durable_guard.hpp"
#include "eval/stream_guard.hpp"
#include "tensor/coo_list.hpp"
#include "util/durable_io.hpp"
#include "util/fault_injection.hpp"
#include "util/shard_executor.hpp"

namespace sofia {
namespace {

constexpr size_t kSteps = 60;

std::string MakeTempDir() {
  char tmpl[] = "/tmp/sofia_dguard_XXXXXX";
  const char* dir = mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir;
}

/// A 60-step corrupted stream, pre-decoded to the canonical form (observed
/// entries only) so raw methods and durable guards see identical inputs.
CorruptedStream MakeStream(uint64_t seed) {
  SyntheticTensor syn = MakeSinusoidTensor(6, 5, kSteps, 3, 4, seed);
  std::vector<DenseTensor> truth;
  for (size_t t = 0; t < kSteps; ++t) {
    truth.push_back(syn.tensor.SliceLastMode(t));
  }
  CorruptedStream stream = Corrupt(truth, {20.0, 5.0, 2.0}, seed + 1);
  for (size_t t = 0; t < stream.slices.size(); ++t) {
    stream.slices[t] = stream.masks[t].Apply(stream.slices[t]);
  }
  return stream;
}

std::unique_ptr<StreamingMethod> MakeInner() {
  return std::make_unique<OnlineSgd>(OnlineSgdOptions{.rank = 3});
}

DurableGuardOptions MakeOptions(const std::string& dir) {
  DurableGuardOptions options;
  options.state_dir = dir;
  options.snapshot_every = 7;  // Several generations within 60 steps.
  options.generations = 3;
  options.retry.sleep = false;
  return options;
}

/// Estimates gathered at the observed entries of step t.
std::vector<double> GatherStep(StreamingMethod* method,
                               const CorruptedStream& stream, size_t t) {
  StepResult result = method->StepLazy(stream.slices[t], stream.masks[t]);
  CooList pattern =
      CooList::Build(stream.masks[t], /*with_mode_buckets=*/false);
  return result.GatherAt(pattern);
}

/// Per-step gathered estimates of an uninterrupted, unguarded run — the
/// bitwise reference every recovered run must reproduce.
std::vector<std::vector<double>> Reference(const CorruptedStream& stream) {
  std::unique_ptr<StreamingMethod> method = MakeInner();
  std::vector<std::vector<double>> out;
  for (size_t t = 0; t < kSteps; ++t) {
    out.push_back(GatherStep(method.get(), stream, t));
  }
  return out;
}

/// Drives a fresh durable guard until `spec` kills it, "reboots" into a new
/// guard over the same state_dir, recovers, and finishes the stream.
/// Verifies every estimate produced after recovery is bitwise identical to
/// the reference, and that recovery lost at most the steps after the last
/// consistency point (it must never resume PAST the crash step).
void KillRecoverResume(const CorruptedStream& stream,
                       const std::vector<std::vector<double>>& reference,
                       const fault::FaultSpec& spec) {
  SCOPED_TRACE(spec.site + " at op " + std::to_string(spec.at));
  const std::string dir = MakeTempDir();

  // --- Phase 1: run until the injected crash kills the "process". -------
  size_t crash_step = kSteps;
  {
    DurableGuard guard(MakeInner(), MakeOptions(dir));
    fault::ScopedFaultPlan plan(spec);
    try {
      for (size_t t = 0; t < kSteps; ++t) {
        const std::vector<double> got = GatherStep(&guard, stream, t);
        ASSERT_EQ(got, reference[t]) << "pre-crash divergence at step " << t;
      }
      guard.Drain();
    } catch (const fault::SimulatedCrash& crash) {
      crash_step = guard.telemetry().steps;
      EXPECT_EQ(crash.site, spec.site);
    }
    fault::Reset();
    ASSERT_LT(crash_step, kSteps) << "fault never fired — dead matrix row";
  }  // Guard destroyed: whatever reached disk is all recovery gets.

  // --- Phase 2: reboot, recover, resume. --------------------------------
  DurableGuard rebooted(MakeInner(), MakeOptions(dir));
  const RecoveryReport report = rebooted.Recover();
  ASSERT_TRUE(report.restored) << "no usable snapshot after " << spec.site;
  ASSERT_LE(report.resume_step, crash_step + 1);
  for (size_t t = report.resume_step; t < kSteps; ++t) {
    const std::vector<double> got = GatherStep(&rebooted, stream, t);
    ASSERT_EQ(got, reference[t])
        << "recovered run diverged at step " << t << " (resumed from "
        << report.resume_step << ")";
  }
}

TEST(DurableGuardTest, UninterruptedRunMatchesRawMethodBitwise) {
  const CorruptedStream stream = MakeStream(211);
  const std::vector<std::vector<double>> reference = Reference(stream);
  DurableGuard guard(MakeInner(), MakeOptions(MakeTempDir()));
  for (size_t t = 0; t < kSteps; ++t) {
    EXPECT_EQ(GatherStep(&guard, stream, t), reference[t]) << "step " << t;
  }
  guard.Drain();
  EXPECT_EQ(guard.telemetry().steps, kSteps);
  EXPECT_EQ(guard.telemetry().journal_appends, kSteps);
  EXPECT_GT(guard.telemetry().snapshots_written, 0u);
  EXPECT_EQ(guard.telemetry().journal_failures, 0u);
}

TEST(DurableGuardTest, KillAndRecoverMatrixIsBitwiseIdentical) {
  const CorruptedStream stream = MakeStream(223);
  const std::vector<std::vector<double>> reference = Reference(stream);

  const fault::FaultSpec matrix[] = {
      // Snapshot mid-write: torn tmp file (never renamed in).
      {"atomic.write", fault::FaultKind::kTornWrite, 2, 1, 0.5},
      {"atomic.write", fault::FaultKind::kTornWrite, 4, 1, 0.1},
      // Snapshot crash before any bytes / at fsync / at rename.
      {"atomic.write", fault::FaultKind::kCrash, 3, 1, 0.5},
      {"atomic.fsync", fault::FaultKind::kCrash, 2, 1, 0.5},
      {"atomic.rename", fault::FaultKind::kCrash, 1, 1, 0.5},
      {"atomic.rename", fault::FaultKind::kCrash, 3, 1, 0.5},
      // Journal mid-append: torn record, various points in the run.
      {"journal.append", fault::FaultKind::kTornWrite, 5, 1, 0.5},
      {"journal.append", fault::FaultKind::kTornWrite, 20, 1, 0.8},
      {"journal.append", fault::FaultKind::kCrash, 33, 1, 0.5},
      // Journal group-commit fsync.
      {"journal.fsync", fault::FaultKind::kCrash, 2, 1, 0.5},
  };
  for (const fault::FaultSpec& spec : matrix) {
    KillRecoverResume(stream, reference, spec);
  }
}

TEST(DurableGuardTest, CrashDuringRecoveryReplayIsReRecoverable) {
  const CorruptedStream stream = MakeStream(227);
  const std::vector<std::vector<double>> reference = Reference(stream);
  const std::string dir = MakeTempDir();

  // Run partway, then stop without a final snapshot: the journal tail is
  // ahead of the newest snapshot, so recovery must replay.
  size_t ran = 24;
  {
    DurableGuard guard(MakeInner(), MakeOptions(dir));
    for (size_t t = 0; t < ran; ++t) GatherStep(&guard, stream, t);
    guard.Drain();
  }

  // First recovery attempt dies mid-replay; the second must succeed off
  // the same files (recovery mutates nothing until its final snapshot).
  {
    DurableGuard guard(MakeInner(), MakeOptions(dir));
    fault::ScopedFaultPlan plan(
        {"recover.replay", fault::FaultKind::kCrash, 1, 1, 0.5});
    EXPECT_THROW(guard.Recover(), fault::SimulatedCrash);
  }
  DurableGuard rebooted(MakeInner(), MakeOptions(dir));
  const RecoveryReport report = rebooted.Recover();
  ASSERT_TRUE(report.restored);
  EXPECT_EQ(report.resume_step, ran);  // Drained journal: nothing lost.
  EXPECT_GT(report.replayed_records, 0u);
  for (size_t t = report.resume_step; t < kSteps; ++t) {
    ASSERT_EQ(GatherStep(&rebooted, stream, t), reference[t])
        << "step " << t;
  }
}

TEST(DurableGuardTest, CorruptNewestSnapshotDegradesToOlderGeneration) {
  const CorruptedStream stream = MakeStream(229);
  const std::vector<std::vector<double>> reference = Reference(stream);
  const std::string dir = MakeTempDir();
  {
    DurableGuard guard(MakeInner(), MakeOptions(dir));
    for (size_t t = 0; t < 40; ++t) GatherStep(&guard, stream, t);
    guard.Drain();
  }

  // Bit-rot the newest snapshot generation at rest.
  durable::SnapshotStore store(dir, "snap", durable::SnapshotOptions{});
  const std::vector<uint64_t> gens = store.ListGenerations();
  ASSERT_GE(gens.size(), 2u);
  ASSERT_TRUE(fault::FlipFileBit(store.GenerationPath(gens.back()), 64, 2));

  DurableGuard rebooted(MakeInner(), MakeOptions(dir));
  const RecoveryReport report = rebooted.Recover();
  ASSERT_TRUE(report.restored);
  EXPECT_EQ(report.snapshot_seq, gens[gens.size() - 2]);
  EXPECT_EQ(report.skipped_generations, 1u);
  // The retained journal segments cover the gap up to the drained tail.
  EXPECT_EQ(report.resume_step, 40u);
  for (size_t t = report.resume_step; t < kSteps; ++t) {
    ASSERT_EQ(GatherStep(&rebooted, stream, t), reference[t])
        << "step " << t;
  }
}

TEST(DurableGuardTest, AllGenerationsCorruptReportsNotRestored) {
  const CorruptedStream stream = MakeStream(233);
  const std::string dir = MakeTempDir();
  {
    DurableGuard guard(MakeInner(), MakeOptions(dir));
    for (size_t t = 0; t < 20; ++t) GatherStep(&guard, stream, t);
    guard.Drain();
  }
  durable::SnapshotStore store(dir, "snap", durable::SnapshotOptions{});
  for (const uint64_t seq : store.ListGenerations()) {
    ASSERT_TRUE(fault::TruncateFile(store.GenerationPath(seq), 10));
  }
  DurableGuard rebooted(MakeInner(), MakeOptions(dir));
  const RecoveryReport report = rebooted.Recover();
  EXPECT_FALSE(report.restored);  // Caller streams from scratch — no crash,
  EXPECT_EQ(report.resume_step, 0u);  // no hang, no silent wrong answer.
  EXPECT_GE(report.skipped_generations, 2u);
}

TEST(DurableGuardTest, PreBinaryTextSnapshotReportsNotRestored) {
  // A CRC-valid frame around a payload in the pre-binary text layout
  // ("<step>\n" + the inner method's text checkpoint, here OnlineSgd after
  // two steps on 2x2 slices): the frame checks pass, the state does not.
  const std::string dir = MakeTempDir();
  durable::SnapshotStore store(dir, "snap", durable::SnapshotOptions{});
  const std::string payload = R"(2
online-sgd v1
2
2 3 0.75437610518178766 0.94929921297228081 0.12434181659774315 0.89192096181701785 0.14128494509434922 0.039059448295804745
2 3 0.82522583688606566 0.89811811051786239 0.25751501865158982 0.72636163894589167 0.75883430991720158 0.59611572132263135
)";
  ASSERT_EQ(store.Write(0, payload), durable::IoStatus::kOk);

  DurableGuard rebooted(MakeInner(), MakeOptions(dir));
  const RecoveryReport report = rebooted.Recover();
  EXPECT_FALSE(report.restored);
  EXPECT_EQ(report.resume_step, 0u);
  EXPECT_EQ(report.skipped_generations, 1u);
}

TEST(DurableGuardTest, AsyncJournalOnAuxLaneMatchesInlineBitwise) {
  const CorruptedStream stream = MakeStream(239);
  const std::vector<std::vector<double>> reference = Reference(stream);
  const std::string dir = MakeTempDir();

  DurableGuard guard(MakeInner(), MakeOptions(dir));
  auto executor = std::make_shared<ShardExecutor>(2);
  guard.AdoptWorkerPool(executor);
  for (size_t t = 0; t < kSteps; ++t) {
    EXPECT_EQ(GatherStep(&guard, stream, t), reference[t]) << "step " << t;
  }
  guard.Drain();
  EXPECT_EQ(guard.telemetry().async_appends, kSteps);
  EXPECT_EQ(guard.telemetry().journal_failures, 0u);

  // The drained journal tail + snapshots recover to the exact stream end.
  DurableGuard rebooted(MakeInner(), MakeOptions(dir));
  const RecoveryReport report = rebooted.Recover();
  ASSERT_TRUE(report.restored);
  EXPECT_EQ(report.resume_step, kSteps);
}

TEST(DurableGuardTest, AuxLaneCrashSurfacesOnIngestThread) {
  const CorruptedStream stream = MakeStream(241);
  const std::string dir = MakeTempDir();
  DurableGuard guard(MakeInner(), MakeOptions(dir));
  auto executor = std::make_shared<ShardExecutor>(2);
  guard.AdoptWorkerPool(executor);

  fault::ScopedFaultPlan plan(
      {"journal.append", fault::FaultKind::kTornWrite, 10, 1, 0.5});
  bool crashed = false;
  try {
    for (size_t t = 0; t < kSteps; ++t) {
      GatherStep(&guard, stream, t);
    }
    guard.Drain();
  } catch (const fault::SimulatedCrash& crash) {
    crashed = true;
    EXPECT_EQ(crash.site, "journal.append");
  }
  fault::Reset();
  EXPECT_TRUE(crashed);  // Parked by the aux shim, rethrown on this thread.
}

TEST(DurableGuardTest, ComposesOverStreamGuardAndRecoversBitwise) {
  // The production stack: DurableGuard(StreamGuard(method)). On a
  // trip-free stream the guard's rolling windows stay quiescent, so a
  // kill-recover cycle reproduces the uninterrupted composite bitwise.
  const CorruptedStream stream = MakeStream(251);
  const std::string dir = MakeTempDir();
  // Trip-free configuration: StreamGuard's rolling health windows are not
  // part of its checkpoint (PR 6 caveat), so bitwise recovery of the
  // composite holds exactly when no trip fires in either run.
  StreamGuardOptions guard_options;
  guard_options.payload_explosion_factor = 0.0;  // 0 disables the layer.
  guard_options.nre_spike_factor = 1e18;
  guard_options.norm_explosion_factor = 1e18;
  const auto make_composite = [&] {
    return std::make_unique<StreamGuard>(MakeInner(), guard_options);
  };

  std::vector<std::vector<double>> reference;
  {
    std::unique_ptr<StreamGuard> plain = make_composite();
    for (size_t t = 0; t < kSteps; ++t) {
      reference.push_back(GatherStep(plain.get(), stream, t));
    }
  }

  size_t crash_step = kSteps;
  {
    DurableGuard guard(make_composite(), MakeOptions(dir));
    fault::ScopedFaultPlan plan(
        {"journal.append", fault::FaultKind::kTornWrite, 30, 1, 0.5});
    try {
      for (size_t t = 0; t < kSteps; ++t) GatherStep(&guard, stream, t);
    } catch (const fault::SimulatedCrash&) {
      crash_step = guard.telemetry().steps;
    }
    fault::Reset();
    ASSERT_LT(crash_step, kSteps);
  }

  DurableGuard rebooted(make_composite(), MakeOptions(dir));
  const RecoveryReport report = rebooted.Recover();
  ASSERT_TRUE(report.restored);
  for (size_t t = report.resume_step; t < kSteps; ++t) {
    ASSERT_EQ(GatherStep(&rebooted, stream, t), reference[t])
        << "step " << t;
  }
}

TEST(DurableGuardTest, SnapshotIoErrorsDegradeWithoutDataLoss) {
  // Persistent EIO on snapshot writes: durability degrades (telemetry
  // says so) but the stream never stops, and the journal — still rooted
  // at the last good snapshot — recovers everything up to the drain.
  const CorruptedStream stream = MakeStream(257);
  const std::vector<std::vector<double>> reference = Reference(stream);
  const std::string dir = MakeTempDir();
  {
    DurableGuard guard(MakeInner(), MakeOptions(dir));
    for (size_t t = 0; t < 10; ++t) GatherStep(&guard, stream, t);
    guard.Drain();
    // From op 100 on (well past the early snapshots), every atomic write
    // fails — beyond the retry budget.
    fault::ScopedFaultPlan plan(
        {"atomic.write", fault::FaultKind::kIoError, 0, 1000000, 0.5});
    for (size_t t = 10; t < 30; ++t) {
      EXPECT_EQ(GatherStep(&guard, stream, t), reference[t]) << "step " << t;
    }
    guard.Drain();
    fault::Reset();
    EXPECT_GT(guard.telemetry().snapshot_failures, 0u);
  }
  DurableGuard rebooted(MakeInner(), MakeOptions(dir));
  const RecoveryReport report = rebooted.Recover();
  ASSERT_TRUE(report.restored);
  EXPECT_EQ(report.resume_step, 30u);
  for (size_t t = report.resume_step; t < kSteps; ++t) {
    ASSERT_EQ(GatherStep(&rebooted, stream, t), reference[t])
        << "step " << t;
  }
}

}  // namespace
}  // namespace sofia
