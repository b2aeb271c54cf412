#include "util/shard_executor.hpp"

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

#include "obs/obs.hpp"

namespace sofia {

namespace {

/// Aux-lane registry handles (the compute lane uses per-worker counters
/// looked up at thread start instead — see WorkerLoop).
struct AuxMetrics {
  obs::Counter* jobs;
  obs::Counter* busy_us;
  obs::Gauge* queue_depth;
};

AuxMetrics& Aux() {
  obs::Registry& r = obs::Registry::Global();
  static AuxMetrics m{
      r.FindOrCreateCounter("executor.aux.jobs"),
      r.FindOrCreateCounter("executor.aux.busy_us"),
      r.FindOrCreateGauge("executor.aux.queue_depth"),
  };
  return m;
}

obs::Counter* WorkerBusyCounter(size_t worker_index) {
  return obs::Registry::Global().FindOrCreateCounter(
      "executor.w" + std::to_string(worker_index) + ".busy_us");
}

}  // namespace

double* ScratchArena::RawDoubles(size_t slot, size_t count) {
  if (slot >= slots_.size()) slots_.resize(slot + 1);
  std::vector<double>& buf = slots_[slot];
  if (buf.size() < count) {
    buf.resize(std::max(count, buf.size() * 2));
    ++growth_events_;
  }
  return buf.data();
}

double* ScratchArena::Doubles(size_t slot, size_t count) {
  double* ptr = RawDoubles(slot, count);
  // A fresh slot asked for zero doubles has no storage yet (ptr is null),
  // and memset on a null pointer is undefined even for zero bytes.
  if (count != 0) std::memset(ptr, 0, count * sizeof(double));
  return ptr;
}

std::unique_ptr<ShardExecutor> MakeShardExecutor(size_t num_threads) {
  const size_t n = ResolveNumThreads(num_threads);
  return n > 1 ? std::make_unique<ShardExecutor>(n) : nullptr;
}

ShardExecutor::ShardExecutor(size_t num_threads) {
  const size_t n = num_threads == 0 ? 1 : num_threads;
  workers_.reserve(n - 1);
  for (size_t i = 0; i + 1 < n; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i + 1); });
  }
}

ShardExecutor::~ShardExecutor() {
  DrainAux();
  {
    std::lock_guard<std::mutex> lock(aux_mutex_);
    aux_stop_ = true;
  }
  aux_ready_.notify_all();
  if (aux_thread_.joinable()) aux_thread_.join();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& w : workers_) w.join();
}

std::pair<size_t, size_t> ShardExecutor::OwnedRange(size_t num_tasks,
                                                    size_t num_threads,
                                                    size_t w) {
  const size_t q = num_tasks / num_threads;
  const size_t r = num_tasks % num_threads;
  const size_t begin = w * q + std::min(w, r);
  const size_t len = q + (w < r ? 1 : 0);
  return {begin, begin + len};
}

void ShardExecutor::RunOwnedBlock(size_t w) {
  const auto range = OwnedRange(num_tasks_, num_threads(), w);
  const std::function<void(size_t)>& fn = *fn_;
  for (size_t task = range.first; task < range.second; ++task) fn(task);
}

void ShardExecutor::WorkerLoop(size_t worker_index) {
  obs::SetThreadName("shard-worker-" + std::to_string(worker_index));
  obs::Counter* busy_us = WorkerBusyCounter(worker_index);
  size_t seen_generation = 0;
  for (;;) {
    size_t tasks = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_ready_.wait(lock, [&] {
        return stop_ || generation_ != seen_generation;
      });
      if (stop_) return;
      seen_generation = generation_;
      tasks = num_tasks_;
    }
    // Busy time per batch; the trace span per batch is the highest-volume
    // event in the system, so it honors the worker_spans session option.
    const bool measured = obs::Enabled() || obs::TraceActive();
    const uint64_t start = measured ? obs::NowNs() : 0;
    RunOwnedBlock(worker_index);
    if (measured) {
      const uint64_t dur = obs::NowNs() - start;
      busy_us->Add(dur / 1000);
      if (obs::TraceWorkerSpans()) {
        obs::TraceRecord("executor.batch", start, dur, tasks, "tasks");
      }
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--busy_workers_ == 0) batch_done_.notify_one();
    }
  }
}

void ShardExecutor::Run(size_t num_tasks,
                        const std::function<void(size_t)>& fn) {
  if (num_tasks == 0) return;
  ++runs_;
  static obs::Counter* batches =
      obs::Registry::Global().FindOrCreateCounter("executor.batches");
  static obs::Counter* w0_busy_us = WorkerBusyCounter(0);
  batches->Add(1);
  const bool measured = obs::Enabled() || obs::TraceActive();
  if (workers_.empty() || num_tasks == 1) {
    const uint64_t start = measured ? obs::NowNs() : 0;
    for (size_t task = 0; task < num_tasks; ++task) fn(task);
    if (measured) w0_busy_us->Add((obs::NowNs() - start) / 1000);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    num_tasks_ = num_tasks;
    fn_ = &fn;
    busy_workers_ = workers_.size();
    ++generation_;
  }
  work_ready_.notify_all();
  {
    const uint64_t start = measured ? obs::NowNs() : 0;
    RunOwnedBlock(0);
    if (measured) {
      const uint64_t dur = obs::NowNs() - start;
      w0_busy_us->Add(dur / 1000);
      if (obs::TraceWorkerSpans()) {
        obs::TraceRecord("executor.batch", start, dur, num_tasks, "tasks");
      }
    }
  }
  std::unique_lock<std::mutex> lock(mutex_);
  batch_done_.wait(lock, [&] { return busy_workers_ == 0; });
  fn_ = nullptr;
}

void ShardExecutor::AuxLoop() {
  obs::SetThreadName("aux-lane");
  AuxMetrics& metrics = Aux();
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(aux_mutex_);
      aux_ready_.wait(lock, [&] { return aux_stop_ || !aux_queue_.empty(); });
      if (aux_queue_.empty()) return;  // aux_stop_ with an empty queue.
      job = std::move(aux_queue_.front());
      aux_queue_.pop_front();
      metrics.queue_depth->Set(static_cast<double>(aux_queue_.size()));
    }
    {
      // Aux jobs are rare (window prefetch, checkpoint serialization), so
      // their spans are always recorded when a trace session is active.
      obs::ObsSpan span("executor.aux.job", metrics.busy_us);
      job();
    }
    metrics.jobs->Add(1);
    {
      std::lock_guard<std::mutex> lock(aux_mutex_);
      ++aux_completed_;
    }
    aux_done_.notify_all();
  }
}

uint64_t ShardExecutor::Submit(std::function<void()> job) {
  std::unique_lock<std::mutex> lock(aux_mutex_);
  if (!aux_started_) {
    aux_started_ = true;
    aux_thread_ = std::thread([this] { AuxLoop(); });
  }
  aux_queue_.push_back(std::move(job));
  Aux().queue_depth->Set(static_cast<double>(aux_queue_.size()));
  const uint64_t ticket = ++aux_submitted_;
  lock.unlock();
  aux_ready_.notify_one();
  return ticket;
}

void ShardExecutor::Wait(uint64_t ticket) {
  std::unique_lock<std::mutex> lock(aux_mutex_);
  aux_done_.wait(lock, [&] { return aux_completed_ >= ticket; });
}

void ShardExecutor::DrainAux() {
  std::unique_lock<std::mutex> lock(aux_mutex_);
  aux_done_.wait(lock, [&] { return aux_completed_ >= aux_submitted_; });
}

}  // namespace sofia
