#include "eval/durable_guard.hpp"

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "obs/obs.hpp"
#include "util/check.hpp"
#include "util/fault_injection.hpp"
#include "util/state_io.hpp"

namespace sofia {

namespace {

/// Registry mirrors of DurabilityTelemetry (the struct stays as the
/// per-run compatibility view).
struct DurableMetrics {
  obs::Counter* steps;
  obs::Counter* journal_appends;
  obs::Counter* journal_bytes;
  obs::Counter* async_appends;
  obs::Counter* journal_failures;
  obs::Counter* snapshots_written;
  obs::Counter* snapshot_failures;
  obs::Counter* snapshot_time_us;
  obs::Histogram* snapshot_us;
};

DurableMetrics& Dm() {
  obs::Registry& r = obs::Registry::Global();
  static DurableMetrics m{
      r.FindOrCreateCounter("durable.steps"),
      r.FindOrCreateCounter("durable.journal_appends"),
      r.FindOrCreateCounter("durable.journal_bytes"),
      r.FindOrCreateCounter("durable.async_appends"),
      r.FindOrCreateCounter("durable.journal_failures"),
      r.FindOrCreateCounter("durable.snapshots_written"),
      r.FindOrCreateCounter("durable.snapshot_failures"),
      r.FindOrCreateCounter("time.durable.snapshot_us"),
      r.FindOrCreateHistogram("durable.snapshot_us"),
  };
  return m;
}

}  // namespace

DurableGuard::DurableGuard(std::unique_ptr<StreamingMethod> inner,
                           DurableGuardOptions options)
    : inner_(std::move(inner)),
      options_(std::move(options)),
      snapshots_(options_.state_dir, "snap",
                 durable::SnapshotOptions{options_.generations, 1,
                                          options_.retry}) {
  SOFIA_CHECK(!options_.state_dir.empty())
      << "DurableGuard needs a state_dir";
  SOFIA_CHECK(inner_->SupportsStateCheckpoint())
      << inner_->name() << " cannot be made durable without checkpoints";
  durable::EnsureDir(options_.state_dir);
}

DurableGuard::~DurableGuard() {
  // Land in-flight aux IO so no job outlives its captured `this`. A crash
  // captured here is dropped on purpose: the "process" is being torn down
  // either way, and a destructor cannot throw.
  if (executor_ != nullptr && pending_ticket_ != 0) {
    executor_->Wait(pending_ticket_);
    pending_ticket_ = 0;
  }
  journal_.Close();
}

std::string DurableGuard::SegmentPath(uint64_t seq) const {
  return options_.state_dir + "/wal-" + std::to_string(seq) + ".slices";
}

void DurableGuard::RethrowPendingCrash() {
  std::exception_ptr crash;
  {
    std::lock_guard<std::mutex> lock(crash_mutex_);
    crash = std::exchange(pending_crash_, nullptr);
  }
  if (crash) std::rethrow_exception(crash);
}

void DurableGuard::SyncAux() {
  if (executor_ != nullptr && pending_ticket_ != 0) {
    executor_->Wait(pending_ticket_);
    pending_ticket_ = 0;
  }
}

void DurableGuard::SubmitIo(std::function<void()> job) {
  if (executor_ == nullptr) {
    // Inline: a SimulatedCrash propagates straight out of the ingest call,
    // exactly where a real synchronous-IO death would surface.
    job();
    return;
  }
  pending_ticket_ = executor_->Submit([this, job = std::move(job)] {
    try {
      job();
    } catch (...) {
      // Includes SimulatedCrash (deliberately not a std::exception).
      // Escaping an executor thread would std::terminate; park it for the
      // ingest thread to rethrow at its next step.
      std::lock_guard<std::mutex> lock(crash_mutex_);
      if (!pending_crash_) pending_crash_ = std::current_exception();
    }
  });
}

void DurableGuard::SubmitIoBytes(
    const std::string& bytes, std::function<void(const std::string&)> write) {
  if (executor_ == nullptr) {
    write(bytes);  // Inline: read the reused buffer in place.
    return;
  }
  // The next step may refill the buffer before an aux job runs, so the job
  // owns a copy.
  SubmitIo([write = std::move(write), bytes] { write(bytes); });
}

void DurableGuard::MarkJournalLost() {
  std::lock_guard<std::mutex> lock(io_mutex_);
  journal_lost_ = true;
  ++telemetry_.journal_failures;
  Dm().journal_failures->Add(1);
}

void DurableGuard::RotateJournalLocked(uint64_t seq) {
  journal_.Close();
  if (!options_.journal) return;  // Snapshot-only mode: no segments.
  if (slice_shape_.order() == 0) return;  // No slice seen yet; no segment.
  const bool lost = !journal_.Create(SegmentPath(seq), slice_shape_, seq);
  if (lost) {
    MarkJournalLost();
  } else {
    std::lock_guard<std::mutex> lock(io_mutex_);
    journal_lost_ = false;
  }
}

std::vector<uint64_t> DurableGuard::ListSegments() const {
  std::vector<uint64_t> out;
  DIR* dir = ::opendir(options_.state_dir.c_str());
  if (dir == nullptr) return out;
  const std::string prefix = "wal-";
  const std::string suffix = ".slices";
  while (struct dirent* entry = ::readdir(dir)) {
    const std::string name = entry->d_name;
    if (name.size() <= prefix.size() + suffix.size()) continue;
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
        0) {
      continue;
    }
    const std::string digits = name.substr(
        prefix.size(), name.size() - prefix.size() - suffix.size());
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    out.push_back(std::strtoull(digits.c_str(), nullptr, 10));
  }
  ::closedir(dir);
  std::sort(out.begin(), out.end());
  return out;
}

void DurableGuard::PruneSegmentsLocked() {
  // A segment is needed as long as some retained snapshot might replay
  // through it: keep every segment >= the oldest snapshot generation.
  const std::vector<uint64_t> gens = snapshots_.ListGenerations();
  if (gens.empty()) return;
  for (const uint64_t seq : ListSegments()) {
    if (seq < gens.front()) ::unlink(SegmentPath(seq).c_str());
  }
}

void DurableGuard::TakeSnapshot() {
  // Serialize synchronously — the bytes must capture the state *now*,
  // before the next step mutates it. The disk write rides the aux lane.
  snapshot_buf_.clear();
  {
    state_io::StringSink sink(&snapshot_buf_);
    std::ostream out(&sink);
    state_io::WriteU64(out, step_);
    inner_->SaveState(out);
  }
  const uint64_t seq = next_seq_++;
  SubmitIoBytes(snapshot_buf_, [this, seq](const std::string& payload) {
    // Group-commit point: everything journaled so far becomes durable
    // before the snapshot that supersedes it lands.
    if (journal_.is_open()) journal_.Sync();
    const bool measured = obs::Enabled() || obs::TraceActive();
    const uint64_t start = measured ? obs::NowNs() : 0;
    const durable::IoStatus status = snapshots_.Write(seq, payload);
    if (measured) {
      const uint64_t dur = obs::NowNs() - start;
      Dm().snapshot_time_us->Add(dur / 1000);
      Dm().snapshot_us->Observe(static_cast<double>(dur) / 1e3);
      if (obs::TraceActive()) {
        obs::TraceRecord("durable.snapshot", start, dur, payload.size(),
                         "bytes");
      }
    }
    const bool landed = status == durable::IoStatus::kOk;
    {
      std::lock_guard<std::mutex> lock(io_mutex_);
      if (landed) {
        ++telemetry_.snapshots_written;
        Dm().snapshots_written->Add(1);
      } else {
        ++telemetry_.snapshot_failures;
        Dm().snapshot_failures->Add(1);
      }
    }
    // Fail-soft: older generations remain, and the journal keeps
    // accumulating into the *current* segment so they can still replay.
    if (!landed) return;
    RotateJournalLocked(seq);
    PruneSegmentsLocked();
  });
  steps_since_snapshot_ = 0;
}

void DurableGuard::JournalSlice(const DenseTensor& decoded,
                                const Mask& omega) {
  if (!options_.journal) return;
  {
    std::lock_guard<std::mutex> lock(io_mutex_);
    if (journal_lost_) {
      ++telemetry_.journal_failures;
      Dm().journal_failures->Add(1);
      return;
    }
  }
  slicefmt::EncodeRecord(step_, decoded, omega, &encode_buf_);
  ++telemetry_.journal_appends;
  telemetry_.journal_bytes += encode_buf_.size();
  Dm().journal_appends->Add(1);
  Dm().journal_bytes->Add(encode_buf_.size());
  if (executor_ != nullptr) {
    ++telemetry_.async_appends;
    Dm().async_appends->Add(1);
  }
  const bool sync_each = options_.sync_each_append;
  SubmitIoBytes(encode_buf_, [this, sync_each](const std::string& bytes) {
    if (!journal_.is_open() || !journal_.AppendEncoded(bytes)) {
      MarkJournalLost();
      return;
    }
    if (sync_each && !journal_.Sync()) MarkJournalLost();
  });
}

std::vector<DenseTensor> DurableGuard::Initialize(
    const std::vector<DenseTensor>& slices, const std::vector<Mask>& masks) {
  RethrowPendingCrash();
  SOFIA_CHECK(!slices.empty());
  slice_shape_ = slices[0].shape();
  std::vector<DenseTensor> out = inner_->Initialize(slices, masks);
  // Baseline generation: recovery needs the post-init state even when the
  // process dies before the first cadence snapshot.
  TakeSnapshot();
  return out;
}

StepResult DurableGuard::StepLazy(const DenseTensor& y, const Mask& omega,
                                  std::shared_ptr<const CooList> pattern) {
  RethrowPendingCrash();
  if (slice_shape_.order() == 0) slice_shape_ = y.shape();
  // Init-less methods skip Initialize: write the pristine baseline
  // generation before the first slice, for the same reason as above.
  if (next_seq_ == 0) TakeSnapshot();
  // The journal stores — and the inner method consumes — the canonical
  // decoded form: observed entries only, zero elsewhere. Live and replayed
  // runs therefore feed the model byte-identical inputs even if a method
  // peeks at unobserved entries.
  DenseTensor decoded = omega.Apply(y);
  JournalSlice(decoded, omega);
  StepResult result = inner_->StepLazy(decoded, omega, std::move(pattern));
  ++step_;
  ++telemetry_.steps;
  Dm().steps->Add(1);
  if (options_.snapshot_every > 0 &&
      ++steps_since_snapshot_ >= options_.snapshot_every) {
    TakeSnapshot();
  }
  return result;
}

void DurableGuard::Observe(const DenseTensor& y, const Mask& omega) {
  RethrowPendingCrash();
  if (slice_shape_.order() == 0) slice_shape_ = y.shape();
  if (next_seq_ == 0) TakeSnapshot();
  DenseTensor decoded = omega.Apply(y);
  JournalSlice(decoded, omega);
  inner_->Observe(decoded, omega);
  ++step_;
  ++telemetry_.steps;
  Dm().steps->Add(1);
  if (options_.snapshot_every > 0 &&
      ++steps_since_snapshot_ >= options_.snapshot_every) {
    TakeSnapshot();
  }
}

void DurableGuard::SaveState(std::ostream& out) const {
  const_cast<DurableGuard*>(this)->SyncAux();
  inner_->SaveState(out);
}

void DurableGuard::RestoreState(std::istream& in) {
  SyncAux();
  inner_->RestoreState(in);
}

void DurableGuard::AdoptWorkerPool(std::shared_ptr<WorkerPool> pool) {
  SyncAux();
  adopted_pool_ = pool;
  executor_ = dynamic_cast<ShardExecutor*>(pool.get());
  inner_->AdoptWorkerPool(std::move(pool));
}

void DurableGuard::Drain() {
  SubmitIo([this] {
    if (journal_.is_open()) journal_.Sync();
  });
  SyncAux();
  RethrowPendingCrash();
}

RecoveryReport DurableGuard::Recover() {
  SOFIA_CHECK(step_ == 0 && next_seq_ == 0)
      << "Recover must run on a fresh guard, before any step";
  RecoveryReport report;

  // --- 1. Newest snapshot whose frame AND payload both validate ---------
  const std::vector<uint64_t> gens = snapshots_.ListGenerations();
  for (auto it = gens.rbegin(); it != gens.rend(); ++it) {
    std::string payload;
    if (durable::ReadFramedFile(snapshots_.GenerationPath(*it), &payload) !=
        durable::IoStatus::kOk) {
      ++report.skipped_generations;  // Torn or bit-rotted frame.
      continue;
    }
    std::istringstream in(payload);
    uint64_t saved_step = 0;
    try {
      saved_step = state_io::ReadU64(in);
      inner_->RestoreState(in);
    } catch (const state_io::StateError&) {
      // CRC-valid frame, corrupt state (e.g. flipped bit pre-framing):
      // fall back to the next-older generation, which re-assigns every
      // field and erases any partial parse.
      ++report.skipped_generations;
      continue;
    }
    report.restored = true;
    report.snapshot_seq = *it;
    report.snapshot_step = saved_step;
    step_ = saved_step;
    break;
  }
  if (!report.restored) {
    // Nothing usable on disk: the caller streams from scratch. Journal
    // segments (if any) are useless without their base state — leave them
    // for the first snapshot's prune.
    report.resume_step = 0;
    return report;
  }

  // --- 2. Replay the journal tail in step order --------------------------
  // Segments >= the restored generation can hold steps at/after the
  // snapshot — including newer segments when we fell back past a corrupt
  // newest snapshot. Expected-step chaining skips the overlap and stops at
  // the first gap or torn record; nothing after a torn record is trusted.
  uint64_t expected = report.snapshot_step;
  bool stop = false;
  for (const uint64_t seq : ListSegments()) {
    if (stop || seq < report.snapshot_seq) continue;
    slicefmt::SliceFileReader reader;
    if (!reader.Open(SegmentPath(seq))) {
      report.journal_truncated = true;
      break;
    }
    if (slice_shape_.order() == 0) slice_shape_ = reader.slice_shape();
    for (size_t i = 0; i < reader.num_records(); ++i) {
      const uint64_t record_step = reader.record(i).step;
      if (record_step < expected) continue;  // Pre-snapshot overlap.
      if (record_step > expected) {          // Gap: lost record(s).
        report.journal_truncated = true;
        stop = true;
        break;
      }
      if (fault::Enabled()) {
        const fault::Decision decision = fault::OnIo("recover.replay", 0);
        if (decision.crash) fault::Crash("recover.replay");
      }
      DenseTensor slice;
      Mask mask;
      reader.Decode(i, &slice, &mask);
      inner_->StepLazy(slice, mask);
      ++expected;
      ++report.replayed_records;
    }
    if (reader.truncated()) {
      report.journal_truncated = true;
      stop = true;
    }
  }
  step_ = expected;
  report.resume_step = expected;
  telemetry_.steps = expected;

  // --- 3. Fresh consistency point ---------------------------------------
  // Never append to an old (possibly torn) segment: write a new snapshot
  // and start a clean segment past every existing generation. A crash
  // anywhere above re-runs against unchanged files (idempotent); a crash
  // in here leaves the restored snapshot + journal intact.
  uint64_t max_seq = gens.empty() ? 0 : gens.back();
  const std::vector<uint64_t> segments = ListSegments();
  if (!segments.empty()) max_seq = std::max(max_seq, segments.back());
  next_seq_ = max_seq + 1;
  TakeSnapshot();
  return report;
}

}  // namespace sofia
