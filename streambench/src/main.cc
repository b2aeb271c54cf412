// Layer-attributed streaming benchmark: drives the shipped streaming stack
// (StreamPipeline over SofiaStream, optionally inside StreamGuard and
// DurableGuard) through one workload, checks its outputs, and prints the
// end-to-end metrics (--trace 0) or the per-layer metrics of a traced pass
// (--trace 1). The last stdout line is one JSON object:
//   {"ok": bool, "problems": [...], "attempted": N, "failed": N,
//    "metrics": {name: value, ...}}
// streambench/run.py builds this program and maps that line onto the
// benchmark contract; see streambench/README.md for the metric
// definitions.
//
//   sofia_stream_bench --workload fresh-mask|guarded-durable
//       --seed N --seconds S --trace 0|1 --work-dir DIR

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "eval/metrics.hpp"
#include "eval/stream_pipeline.hpp"
#include "layers.hpp"
#include "obs/metrics.hpp"
#include "obs/stats.hpp"
#include "obs/trace.hpp"
#include "util/bench_json.hpp"
#include "util/stopwatch.hpp"
#include "workload.hpp"

namespace streambench {
namespace {

namespace fs = std::filesystem;
using sofia::Stopwatch;

/// Timed recoveries per full pass, each from a fresh state-dir copy.
constexpr size_t kRecoveriesPerPass = 5;
/// Post-init slices of the traced run's warm-up.
constexpr size_t kWarmUpSteps = 100;
/// Full passes per run at least, however long they are: a guarded pass
/// takes about 25 s, and with one pass per run its p99 spread by up to
/// 0.28 of the median between runs.
constexpr size_t kMinPasses = 2;
/// No pass starts once the process has run this long, so a run on a slow
/// host still ends well within the 180 s a run may take.
constexpr double kLastPassStartS = 100.0;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value != "0";
    } else if (key == "--work-dir") {
      args->work_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", key.c_str());
      return false;
    }
  }
  return (argc % 2) == 1 && !args->workload.empty() &&
         !args->work_dir.empty();
}

// --- Resident set (own process, from procfs) -------------------------------

double StatusKb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t n = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, n, key) == 0) {
      return std::strtod(line.c_str() + n + 1, nullptr);
    }
  }
  return 0.0;
}

/// Resets the peak-RSS watermark (VmHWM) to the current resident set.
bool ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.close();
  return static_cast<bool>(out);
}

// --- Statistics ------------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank order statistic: the smallest sample with at least a
/// fraction q of the samples at or below it.
double OrderStatistic(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<size_t>(rank, 1)) - 1];
}

bool BitwiseEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

std::string SaveBytes(const sofia::StreamingMethod& method) {
  std::ostringstream out;
  method.SaveState(out);
  return out.str();
}

// --- One pass over the stream ----------------------------------------------

/// Plain copy of a probe's totals.
struct ProbeReading {
  uint64_t init_ns = 0, steps = 0, step_ns = 0, saves = 0, save_ns = 0,
           save_bytes = 0, restores = 0, restore_ns = 0;

  explicit ProbeReading(const ProbeTotals& t)
      : init_ns(t.init_ns), steps(t.steps), step_ns(t.step_ns),
        saves(t.saves), save_ns(t.save_ns), save_bytes(t.save_bytes),
        restores(t.restores), restore_ns(t.restore_ns) {}
  ProbeReading() = default;
};

struct PassOutput {
  double setup_s = 0.0;
  bool full = false;  ///< False when the stream run threw.
  double steps_per_s = 0.0;
  std::vector<double> step_seconds;
  std::vector<double> nre, observed_nre, missing_nre;
  size_t attempted = 0;
  size_t failed = 0;
  double imputation_nre = 0.0;
  double forecast_afe = 0.0;
  std::vector<double> recovery_ms;
  size_t replayed_records = 0;
  ProbeReading sofia;  ///< SofiaStream totals at the end of Run.
  ProbeReading restore;  ///< SofiaStream totals of the recovered stacks.
  std::vector<std::string> problems;
};

class Bench {
 public:
  Bench(const WorkloadSpec& spec, const Inputs& inputs, std::string work_dir)
      : spec_(spec), inputs_(inputs), work_dir_(std::move(work_dir)),
        state_dir_(work_dir_ + "/state"),
        recover_dir_(work_dir_ + "/recover") {}

  ~Bench() {
    std::error_code ec;
    fs::remove_all(state_dir_, ec);
    fs::remove_all(recover_dir_, ec);
  }

  /// Builds a fresh stack + pipeline, runs it over the whole stream, scores
  /// the forecasts and times the recoveries. With `memo_init`, SOFIA's
  /// init fit runs on the first such pass only and later ones restore it.
  PassOutput Run(bool memo_init);

  /// Fits and memoizes SOFIA's init window, then runs the first
  /// `post_init_steps` slices and drops the outputs: the memory a pass
  /// steps through is touched, so the next pass is not the process's
  /// first. Appends what went wrong to `problems`.
  void WarmUp(size_t post_init_steps, std::vector<std::string>* problems);

 private:
  void Recover(const Stack& live, PassOutput* out);

  const WorkloadSpec& spec_;
  const Inputs& inputs_;
  std::string work_dir_, state_dir_, recover_dir_;
  LayerTotals totals_;
  LayerTotals recovered_totals_;
  InitCache init_cache_;
};

PassOutput Bench::Run(bool memo_init) {
  PassOutput out;
  std::error_code ec;
  fs::remove_all(state_dir_, ec);
  fs::create_directories(state_dir_);
  totals_.Reset();

  std::vector<sofia::MethodRunResult> results;
  Stack stack;
  uint64_t end_ns = 0;
  double construct_s = 0.0;
  try {
    sofia::obs::ObsSpan pass_span("bench.pass");
    Stopwatch construct;
    std::unique_ptr<sofia::StreamPipeline> pipeline;
    {
      sofia::obs::ObsSpan setup_span("bench.setup");
      stack = BuildStack(spec_, state_dir_, &totals_,
                         memo_init ? &init_cache_ : nullptr);
      pipeline = std::make_unique<sofia::StreamPipeline>(
          inputs_.stream, inputs_.truth, PipelineOptions());
    }
    construct_s = construct.ElapsedSeconds();
    results = pipeline->Run({stack.top.get()});
    end_ns = sofia::obs::NowNs();
  } catch (const std::exception& e) {
    out.problems.push_back(std::string("stream run threw: ") + e.what());
  }
  const size_t total = inputs_.truth.size();
  const size_t window = inputs_.init_window;
  out.attempted = total - window;
  if (results.empty()) {
    out.failed = out.attempted;
    return out;
  }
  const sofia::StreamRunResult& run = results[0].run;
  out.setup_s = construct_s + run.init_seconds;
  out.full = true;

  out.sofia = ProbeReading(totals_.sofia);
  out.steps_per_s =
      static_cast<double>(total - window) /
      (static_cast<double>(end_ns - totals_.top.first_step_ns) * 1e-9);
  out.step_seconds = run.step_seconds;
  out.nre = run.nre;
  out.observed_nre = run.observed_nre;
  out.missing_nre = run.missing_nre;
  for (size_t t = window; t < total; ++t) {
    if (!std::isfinite(run.nre[t]) || !std::isfinite(run.observed_nre[t]) ||
        !std::isfinite(run.missing_nre[t])) {
      ++out.failed;
    }
  }
  out.imputation_nre = sofia::Mean(std::vector<double>(
      run.missing_nre.begin() + static_cast<long>(window),
      run.missing_nre.end()));

  std::vector<sofia::DenseTensor> forecasts;
  for (size_t h = 1; h <= inputs_.forecast_truth.size(); ++h) {
    forecasts.push_back(stack.top->ForecastLazy(h).imputed());
  }
  out.forecast_afe =
      sofia::AverageForecastingError(forecasts, inputs_.forecast_truth);

  Recover(stack, &out);
  return out;
}

void Bench::WarmUp(size_t post_init_steps,
                   std::vector<std::string>* problems) {
  std::error_code ec;
  fs::remove_all(state_dir_, ec);
  fs::create_directories(state_dir_);
  totals_.Reset();
  try {
    Stack stack = BuildStack(spec_, state_dir_, &totals_, &init_cache_);
    sofia::StreamPipeline pipeline(inputs_.stream, inputs_.truth,
                                   PipelineOptions());
    pipeline.Run({stack.top.get()}, inputs_.init_window + post_init_steps);
    if (stack.durable != nullptr) stack.durable->Drain();
  } catch (const std::exception& e) {
    problems->push_back(std::string("warm-up threw: ") + e.what());
  }
}

void Bench::Recover(const Stack& live, PassOutput* out) {
  if (live.durable != nullptr) live.durable->Drain();
  const std::string live_bytes = SaveBytes(*live.top);
  recovered_totals_.Reset();
  for (size_t r = 0; r < kRecoveriesPerPass; ++r) {
    std::error_code ec;
    fs::remove_all(recover_dir_, ec);
    if (live.durable != nullptr) {
      // Recover() rewrites its state dir, so each one gets a fresh copy.
      fs::copy(state_dir_, recover_dir_, fs::copy_options::recursive);
    }
    Stack fresh = BuildStack(spec_, recover_dir_, &recovered_totals_);
    Stopwatch timer;
    if (fresh.durable != nullptr) {
      const sofia::RecoveryReport report = fresh.durable->Recover();
      out->recovery_ms.push_back(timer.ElapsedSeconds() * 1e3);
      out->replayed_records = report.replayed_records;
      if (!report.restored || report.journal_truncated) {
        out->problems.push_back("recovery found no usable state");
      }
    } else {
      // Unguarded stacks have no state dir: recover from the in-memory
      // checkpoint of the live stack.
      std::istringstream in(live_bytes);
      fresh.top->RestoreState(in);
      out->recovery_ms.push_back(timer.ElapsedSeconds() * 1e3);
    }
    if (SaveBytes(*fresh.top) != live_bytes) {
      out->problems.push_back("recovered state differs from the live stack");
    }
  }
  out->restore = ProbeReading(recovered_totals_.sofia);
}

// --- Output ----------------------------------------------------------------

struct Report {
  std::map<std::string, double> metrics;
  std::vector<std::string> problems;
  size_t attempted = 0;
  size_t failed = 0;

  void Add(const std::string& name, double value, const char* unit,
           size_t samples) {
    metrics[name] = value;
    std::printf("  %-34s %16.6g %-6s n=%zu\n", name.c_str(), value, unit,
                samples);
  }
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(static_cast<unsigned char>(c) < 0x20 ? ' ' : c);
  }
  return out;
}

void PrintResultLine(const Report& report) {
  std::printf("{\"ok\": %s, \"problems\": [",
              report.problems.empty() ? "true" : "false");
  for (size_t i = 0; i < report.problems.size(); ++i) {
    std::printf("%s\"%s\"", i == 0 ? "" : ", ",
                JsonEscape(report.problems[i]).c_str());
  }
  std::printf("], \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              report.attempted, report.failed);
  bool first = true;
  for (const auto& [name, value] : report.metrics) {
    std::printf("%s\"%s\": %.17g", first ? "" : ", ", name.c_str(), value);
    first = false;
  }
  std::printf("}}\n");
}

/// Outputs every pass must reproduce bitwise (the stack is deterministic
/// for a fixed seed, probes and obs are behaviour-neutral).
void CheckSameOutputs(const PassOutput& ref, const PassOutput& pass,
                      const char* what, Report* report) {
  if (!BitwiseEqual(ref.nre, pass.nre) ||
      !BitwiseEqual(ref.observed_nre, pass.observed_nre) ||
      !BitwiseEqual(ref.missing_nre, pass.missing_nre) ||
      std::memcmp(&ref.forecast_afe, &pass.forecast_afe, sizeof(double)) !=
          0) {
    report->problems.push_back(std::string("NRE series differ: ") + what);
  }
}

void Absorb(const PassOutput& pass, Report* report) {
  report->attempted += pass.attempted;
  report->failed += pass.failed;
  report->problems.insert(report->problems.end(), pass.problems.begin(),
                          pass.problems.end());
}

// --- Modes -----------------------------------------------------------------

/// --trace 0: passes over the stream until the time budget is spent (at
/// least kMinPasses, none started after kLastPassStartS on `process_clock`).
/// Each pass builds a fresh stack and pipeline; the first one fits SOFIA's
/// init window (the set-up sample), later ones restore it.
void EndToEnd(const Args& args, const Stopwatch& process_clock, Bench* bench,
              const Inputs& inputs, Report* report) {
  const double rss_base_kb = StatusKb("VmRSS:");
  if (!ResetPeakRss()) report->problems.push_back("cannot reset peak RSS");

  // The budget counts pass time after set-up: the first pass's init fit is
  // paid once per run whatever the budget.
  std::vector<PassOutput> passes;
  double measured_s = 0.0;
  while (passes.empty() ||
         ((passes.size() < kMinPasses || measured_s < args.seconds) &&
          process_clock.ElapsedSeconds() < kLastPassStartS)) {
    Stopwatch pass_timer;
    passes.push_back(bench->Run(/*memo_init=*/true));
    measured_s += pass_timer.ElapsedSeconds() - passes.back().setup_s;
    Absorb(passes.back(), report);
    std::printf("pass %zu: %.1f steps/s, setup %.3f s\n", passes.size(),
                passes.back().steps_per_s, passes.back().setup_s);
    if (!passes.back().full) break;  // The stream run threw.
  }
  const double rss_peak_kb = StatusKb("VmHWM:");
  if (!passes[0].full) return;  // No outputs to report; problems say why.

  // Each pass's exact order statistics, then the median over passes: a
  // host slowdown that lasts part of a run moves a minority of the passes,
  // where pooled samples would carry it into the tail.
  std::vector<double> sps, p50, p99, recovery;
  size_t step_samples = 0;
  for (const PassOutput& pass : passes) {
    CheckSameOutputs(passes[0], pass, "between passes", report);
    sps.push_back(pass.steps_per_s);
    p50.push_back(OrderStatistic(pass.step_seconds, 0.50));
    p99.push_back(OrderStatistic(pass.step_seconds, 0.99));
    step_samples += pass.step_seconds.size();
    recovery.insert(recovery.end(), pass.recovery_ms.begin(),
                    pass.recovery_ms.end());
  }
  const PassOutput& first = passes[0];
  if (report->failed != 0) {
    report->problems.push_back("failed steps: " +
                               std::to_string(report->failed));
  }
  if (!std::isfinite(first.imputation_nre) ||
      !std::isfinite(first.forecast_afe)) {
    report->problems.push_back("non-finite accuracy");
  }

  std::printf("init-window imputation_nre %.6g\n",
              sofia::Mean(std::vector<double>(
                  first.missing_nre.begin(),
                  first.missing_nre.begin() +
                      static_cast<long>(inputs.init_window))));
  std::printf("end-to-end (%zu passes)\n", passes.size());
  report->Add("setup_s", first.setup_s, "s", 1);
  report->Add("steps_per_s", Median(sps), "1/s", sps.size());
  report->Add("step_p50_us", Median(p50) * 1e6, "us", step_samples);
  report->Add("step_p99_us", Median(p99) * 1e6, "us", step_samples);
  report->Add("imputation_nre", first.imputation_nre, "ratio",
              first.missing_nre.size() - inputs.init_window);
  report->Add("forecast_afe", first.forecast_afe, "ratio",
              inputs.forecast_truth.size());
  report->Add("failed_step_ratio",
              static_cast<double>(report->failed) /
                  static_cast<double>(std::max<size_t>(report->attempted, 1)),
              "ratio", report->attempted);
  report->Add("run_rss_mb", (rss_peak_kb - rss_base_kb) * 1024.0 / 1e6, "MB",
              1);
  // Mean, not median: single recoveries fall into a fast and a slow mode
  // (allocation and disk state), and a median flips between them.
  report->Add("recovery_ms", sofia::Mean(recovery), "ms", recovery.size());
}

double Us(uint64_t ns) { return static_cast<double>(ns) / 1e3; }

/// --trace 1: a short warm-up (the init fit plus kWarmUpSteps slices), an
/// untraced pass (the reference outputs and the overhead base), then one
/// traced pass with a real init fit whose registry deltas, probe totals and
/// driver-track span self times give the per-layer metrics. The warm-up
/// keeps the process's first pass out of the overhead ratio; it is short,
/// not a full pass, so a traced guarded run ends well within 180 s.
void PerLayer(const Args& args, const WorkloadSpec& spec, Bench* bench,
              const Inputs& inputs, const std::string& trace_dir,
              Report* report) {
  bench->WarmUp(kWarmUpSteps, &report->problems);
  const PassOutput untraced = bench->Run(/*memo_init=*/true);
  Absorb(untraced, report);

  const std::map<std::string, uint64_t> before = CounterSnapshot();
  sofia::obs::TraceOptions options;
  options.capacity = size_t{1} << 20;
  sofia::obs::TraceStart(options);
  const PassOutput traced = bench->Run(/*memo_init=*/false);
  const std::string trace_path =
      trace_dir + "/" + args.workload + ".trace.json";
  size_t events = 0, dropped = 0;
  if (!sofia::obs::TraceStopAndWrite(trace_path, &events, &dropped)) {
    report->problems.push_back("cannot write " + trace_path);
  }
  const std::map<std::string, uint64_t> delta =
      CounterDelta(before, CounterSnapshot());
  {
    std::string snapshot;
    sofia::obs::AppendSnapshotLine(&snapshot);
    std::ofstream(trace_dir + "/" + args.workload + ".metrics.json")
        << snapshot << "\n";
  }
  Absorb(traced, report);
  CheckSameOutputs(untraced, traced, "traced vs untraced", report);
  if (dropped != 0) {
    report->problems.push_back("trace dropped " + std::to_string(dropped) +
                               " events");
  }

  TrackProfile driver;
  std::string error;
  if (!ProfileTrack(trace_path, sofia::obs::CurrentThreadId(), "bench.pass",
                    &driver, &error) ||
      !driver.found_root) {
    report->problems.push_back("trace profile failed: " + error);
  }
  // Layer coverage: self time of every span below the pass root over the
  // pass's wall time. pipeline.run's own self time is the driver loop
  // between stages (aux-lane submits, bookkeeping), reported as
  // pipeline.loop_us.
  double attributed = 0.0;
  std::printf("driver-track self time (traced pass, %.0f us)\n",
              driver.root_us);
  for (const auto& [name, s] : driver.spans) {
    std::printf("  %-34s %14.0f us self %14.0f us total n=%llu\n",
                name.c_str(), s.self_us, s.total_us,
                static_cast<unsigned long long>(s.count));
    if (name != "bench.pass") attributed += s.self_us;
  }
  const double coverage =
      driver.root_us > 0.0 ? attributed / driver.root_us : 0.0;
  if (coverage < 0.9 || coverage > 1.0 + 1e-9) {
    report->problems.push_back("driver-track layers cover " +
                               std::to_string(coverage) + " of the pass");
  }
  auto self_us = [&](const char* name) {
    const auto it = driver.spans.find(name);
    return it == driver.spans.end() ? 0.0 : it->second.self_us;
  };
  auto counter = [&](const std::string& name) {
    const auto it = delta.find(name);
    return it == delta.end() ? 0.0 : static_cast<double>(it->second);
  };

  std::printf("per-layer (traced pass)\n");
  report->Add("pipeline.ingest_us",
              counter("time.pipeline.ingest_us") +
                  counter("time.pipeline.ingest_async_us"),
              "us", 1);
  report->Add("pipeline.stall_us", counter("time.pipeline.stall_us"), "us",
              1);
  report->Add("pipeline.score_us", counter("time.pipeline.score_us"), "us",
              1);
  report->Add("pipeline.compute_us", counter("time.pipeline.compute_us"),
              "us", 1);
  report->Add("pipeline.loop_us", self_us("pipeline.run"), "us", 1);
  report->Add("pipeline.pattern_builds", counter("pipeline.pattern_builds"),
              "count", 1);
  for (const auto& [name, value] : delta) {
    if (name.compare(0, 7, "kernel.") == 0 && value != 0) {
      report->Add(name, static_cast<double>(value), "count", 1);
    }
  }
  report->Add("sofia.init_us", Us(traced.sofia.init_ns), "us", 1);
  report->Add("sofia.step_us", Us(traced.sofia.step_ns), "us",
              traced.sofia.steps);
  report->Add("sofia.save_us", Us(traced.sofia.save_ns), "us",
              traced.sofia.saves);
  report->Add("sofia.save_bytes", static_cast<double>(traced.sofia.save_bytes),
              "bytes", traced.sofia.saves);
  report->Add("sofia.restore_us", Us(traced.restore.restore_ns), "us",
              traced.restore.restores);
  report->Add("executor.batches", counter("executor.batches"), "count", 1);
  report->Add("executor.aux.jobs", counter("executor.aux.jobs"), "count", 1);
  report->Add("executor.aux.busy_us", counter("executor.aux.busy_us"), "us",
              1);
  report->Add("guard.self_us", self_us("probe.guard.step"), "us", 1);
  report->Add("guard.checkpoint_us", counter("time.guard.checkpoint_us"),
              "us", 1);
  for (const char* name : {"guard.checkpoints", "guard.input_trips",
                           "guard.health_trips", "guard.rollbacks"}) {
    report->Add(name, counter(name), "count", 1);
  }
  report->Add("durable.self_us",
              spec.guarded ? self_us("pipeline.step.compute") : 0.0, "us",
              1);
  report->Add("durable.snapshot_us", counter("time.durable.snapshot_us"),
              "us", 1);
  report->Add("durable.journal_bytes", counter("durable.journal_bytes"),
              "bytes", 1);
  report->Add("durable.replay_records",
              static_cast<double>(traced.replayed_records), "count", 1);
  report->Add("recovery_ms", sofia::Mean(untraced.recovery_ms), "ms",
              untraced.recovery_ms.size());
  report->Add("imputation_nre", traced.imputation_nre, "ratio",
              traced.attempted);
  report->Add("forecast_afe", traced.forecast_afe, "ratio",
              inputs.forecast_truth.size());
  report->Add("trace.driver_coverage", coverage, "ratio", 1);
  report->Add("trace.events", static_cast<double>(events), "count", 1);
  report->Add("trace.dropped_events", static_cast<double>(dropped), "count",
              1);
  report->Add("obs.untraced_steps_per_s", untraced.steps_per_s, "1/s", 1);
  report->Add("obs.traced_steps_per_s", traced.steps_per_s, "1/s", 1);
  report->Add("obs.trace_overhead",
              untraced.steps_per_s / traced.steps_per_s - 1.0, "ratio", 1);
}

}  // namespace
}  // namespace streambench

int main(int argc, char** argv) {
  using namespace streambench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "--work-dir DIR\n",
                 argv[0]);
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  sofia::obs::SetThreadName("driver");
  const Stopwatch process_clock;

  std::printf("workload %s seed %llu: %zux%zu slices, %zu post-init steps, "
              "%zu worker, depth 1\n",
              spec->name.c_str(), static_cast<unsigned long long>(args.seed),
              kRows, kCols, kPostInitSteps, kWorkers);
  sofia::bench::WriteMachineBlock(stdout);

  Stopwatch generate;
  const Inputs inputs = MakeInputs(*spec, args.seed);
  std::printf("inputs generated in %.2f s\n", generate.ElapsedSeconds());

  const std::string work_dir = args.work_dir + "/" + spec->name + "-" +
                               std::to_string(args.seed);
  std::filesystem::create_directories(work_dir);
  Report report;
  {
    Bench bench(*spec, inputs, work_dir);
    if (args.trace) {
      PerLayer(args, *spec, &bench, inputs, args.work_dir, &report);
    } else {
      EndToEnd(args, process_clock, &bench, inputs, &report);
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(work_dir, ec);
  for (const std::string& problem : report.problems) {
    std::printf("CHECK FAILED: %s\n", problem.c_str());
  }
  std::fflush(stdout);
  PrintResultLine(report);
  return 0;
}
