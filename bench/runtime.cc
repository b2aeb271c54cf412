// Sharded streaming-runtime bench: what the persistent ShardExecutor and
// the ingest/compute pipeline buy on the comparison protocol.
//
// One SOFIA instance (sparse kernels, csf pattern storage) is driven over a
// 96-step stream through RunStreamPipeline under a matrix of runtime knobs:
//
//  - workers 1/2/4/8 (depth 1, window 1): steps/sec and p99 step latency of
//    the sharded compute lane alone;
//  - overlap off vs on (depth 1 vs 2) at a fixed worker count: how much of
//    the slice ingest (pattern + CSF-delta build, eval-pattern sampling,
//    truth gathers) hides under compute — the hidden fraction is
//    1 - ingest_stall_s / ingest_s, taken straight from the pipeline
//    telemetry;
//  - per-slice vs windowed ingest (window 1 vs 4) at depth 2.
//
// Scores are bitwise identical across the whole matrix (pinned by
// tests/stream_pipeline_test.cc); this bench reports the measured
// wall-clock shape of THIS machine — on a single-core container the
// worker-count rows show contention, not speedup, and the machine block
// records the core count so downstream readers can tell which they got.
//
//   bench_runtime [--out=BENCH_runtime.json] [--rows=224] [--cols=224]
//                 [--steps=96] [--reps=3] [--density=5]
//
// Gated behind SOFIA_BUILD_BENCH like every other bench binary.

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/sofia_stream.hpp"
#include "data/corruption.hpp"
#include "data/synthetic.hpp"
#include "eval/stream_pipeline.hpp"
#include "eval/stream_runner.hpp"
#include "util/bench_json.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace sofia {
namespace {

constexpr size_t kRank = 4;
constexpr size_t kPeriod = 4;

Mask BernoulliMask(const Shape& shape, double density, Rng& rng) {
  Mask omega(shape, false);
  for (size_t k = 0; k < shape.NumElements(); ++k) {
    omega.Set(k, rng.Bernoulli(density));
  }
  return omega;
}

std::unique_ptr<SofiaStream> MakeSofia() {
  SofiaConfig config;
  config.rank = kRank;
  config.period = kPeriod;
  config.lambda1 = 0.5;
  config.lambda2 = 0.5;
  config.num_threads = 1;
  config.max_init_iterations = 1;
  config.max_als_iterations = 2;
  config.tolerance = 0.5;  // Measures runtime shape, not fit quality.
  config.pattern_storage = PatternStorage::kCsf;
  return std::make_unique<SofiaStream>(config);
}

struct RunStats {
  double steps_per_s = 0.0;   ///< Post-init steps over summed step time.
  double p99_ms = 0.0;        ///< 99th-percentile step latency.
  double wall_s = 0.0;        ///< Whole protocol, init included.
  double hidden_fraction = 0.0;  ///< Of ingest time, under compute.
};

/// Best-of-`reps` pipelined run under `options` (fresh SOFIA per rep —
/// methods are stateful). "Best" = max steps/sec.
RunStats TimeRun(const CorruptedStream& stream,
                 const std::vector<DenseTensor>& truth,
                 const StreamEvalOptions& options, size_t reps) {
  RunStats best;
  for (size_t rep = 0; rep < reps; ++rep) {
    std::unique_ptr<SofiaStream> sofia = MakeSofia();
    std::vector<StreamingMethod*> methods = {sofia.get()};
    Stopwatch wall;
    std::vector<MethodRunResult> results =
        RunStreamPipeline(methods, stream, truth, options);
    RunStats stats;
    stats.wall_s = wall.ElapsedSeconds();
    std::vector<double> latencies = results[0].run.step_seconds;
    double step_sum = 0.0;
    for (double s : latencies) step_sum += s;
    stats.steps_per_s =
        step_sum > 0.0 ? static_cast<double>(latencies.size()) / step_sum
                       : 0.0;
    if (!latencies.empty()) {
      std::sort(latencies.begin(), latencies.end());
      const size_t idx =
          std::min(latencies.size() - 1, (latencies.size() * 99) / 100);
      stats.p99_ms = 1e3 * latencies[idx];
    }
    const PipelineTelemetry& telemetry = results[0].run.pipeline;
    // Stall includes scheduler wakeup latency, so it can exceed raw ingest
    // time on a saturated machine — clamp the fraction to [0, 1].
    stats.hidden_fraction =
        telemetry.ingest_seconds > 0.0
            ? std::max(0.0, std::min(1.0, 1.0 - telemetry.ingest_stall_seconds /
                                              telemetry.ingest_seconds))
            : 0.0;
    if (rep == 0 || stats.steps_per_s > best.steps_per_s) best = stats;
  }
  return best;
}

}  // namespace
}  // namespace sofia

int main(int argc, char** argv) {
  using namespace sofia;
  Flags flags(argc, argv);
  const std::string out_path = flags.GetString("out", "BENCH_runtime.json");
  const size_t rows = static_cast<size_t>(flags.GetInt("rows", 224));
  const size_t cols = static_cast<size_t>(flags.GetInt("cols", 224));
  const size_t steps = static_cast<size_t>(flags.GetInt("steps", 96));
  const size_t reps = static_cast<size_t>(flags.GetInt("reps", 3));
  const double density = flags.GetDouble("density", 5.0) / 100.0;

  std::vector<DenseTensor> truth;
  {
    SyntheticTensor syn =
        MakeSinusoidTensor(rows, cols, steps, kRank, kPeriod, /*seed=*/101);
    for (size_t t = 0; t < steps; ++t) {
      truth.push_back(syn.tensor.SliceLastMode(t));
    }
  }
  // Mild mask churn (fresh Bernoulli mask every 8 steps) so ingest has real
  // pattern + CSF-delta builds to hide, as a live stream would.
  CorruptedStream stream;
  stream.slices = truth;
  Rng mask_rng(7);
  Mask omega = BernoulliMask(truth[0].shape(), density, mask_rng);
  for (size_t t = 0; t < steps; ++t) {
    if (t > 0 && t % 8 == 0) {
      omega = BernoulliMask(truth[0].shape(), density, mask_rng);
    }
    stream.masks.push_back(omega);
  }

  std::map<std::string, double> results;
  std::map<std::string, double> speedups;

  StreamEvalOptions base;
  base.max_eval_entries = 512;
  base.pattern_storage = PatternStorage::kCsf;
  base.pipeline_depth = 1;
  base.window = 1;

  // Worker scaling, pipeline off.
  RunStats w1;
  for (size_t workers : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    StreamEvalOptions options = base;
    options.workers = workers;
    RunStats stats = TimeRun(stream, truth, options, reps);
    if (workers == 1) w1 = stats;
    const std::string arg = std::to_string(workers);
    results["workers/" + arg + "_steps_per_s"] = stats.steps_per_s;
    results["workers/" + arg + "_p99_ms"] = stats.p99_ms;
    speedups["workers_" + arg + "_vs_1"] =
        w1.steps_per_s > 0.0 ? stats.steps_per_s / w1.steps_per_s : 0.0;
    std::printf("workers %zu: %8.1f steps/s, p99 %7.3f ms (%.2fx vs 1)\n",
                workers, stats.steps_per_s, stats.p99_ms,
                speedups["workers_" + arg + "_vs_1"]);
  }

  // Ingest/compute overlap, fixed 2 workers: depth 1 (off) vs 2 (on), and
  // windowed ingest at depth 2.
  StreamEvalOptions off = base;
  off.workers = 2;
  RunStats overlap_off = TimeRun(stream, truth, off, reps);
  StreamEvalOptions on = off;
  on.pipeline_depth = 2;
  RunStats overlap_on = TimeRun(stream, truth, on, reps);
  StreamEvalOptions windowed = on;
  windowed.window = 4;
  RunStats window4 = TimeRun(stream, truth, windowed, reps);
  results["overlap/off_steps_per_s"] = overlap_off.steps_per_s;
  results["overlap/on_steps_per_s"] = overlap_on.steps_per_s;
  results["overlap/on_hidden_fraction"] = overlap_on.hidden_fraction;
  results["overlap/on_window4_steps_per_s"] = window4.steps_per_s;
  results["overlap/on_window4_hidden_fraction"] = window4.hidden_fraction;
  speedups["overlap_on_vs_off"] = overlap_off.steps_per_s > 0.0
                                      ? overlap_on.steps_per_s /
                                            overlap_off.steps_per_s
                                      : 0.0;
  std::printf("overlap off %8.1f steps/s; on %8.1f steps/s, %.0f%% of "
              "ingest hidden; window 4: %8.1f steps/s, %.0f%% hidden\n",
              overlap_off.steps_per_s, overlap_on.steps_per_s,
              100.0 * overlap_on.hidden_fraction, window4.steps_per_s,
              100.0 * window4.hidden_fraction);

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f,
               "  \"description\": \"Sharded streaming runtime "
               "(eval/stream_pipeline.hpp): SOFIA (sparse kernels, csf "
               "storage) over a %zu-step stream of %zux%zu slices, rank "
               "%zu, %.0f%%%% observed, fresh Bernoulli mask every 8 steps. "
               "workers/N = steps/sec and p99 step latency with N "
               "persistent slab-owning workers (depth 1); overlap/* = "
               "ingest/compute pipelining at 2 workers, depth 2 vs 1, "
               "hidden_fraction = share of ingest time overlapped under "
               "compute (1 - stall/ingest, from PipelineTelemetry), plus "
               "the window=4 batched-ingest variant. Scores are "
               "bitwise identical across the whole matrix "
               "(tests/stream_pipeline_test.cc); numbers are best of %zu "
               "repetitions on THIS machine — see the machine block: on a "
               "single core, worker rows measure contention, and the "
               "overlap rows are the real wins. "
               "(bench_runtime --out=BENCH_runtime.json)\",\n",
               steps, rows, cols, kRank, 100.0 * density, reps);
  bench::WriteMachineBlock(f);
  std::fprintf(f, "  \"unit\": \"steps_per_s | ms | fraction\",\n");
  std::fprintf(f, "  \"results\": {\n");
  size_t i = 0;
  for (const auto& [key, value] : results) {
    std::fprintf(f, "    \"%s\": %.4f%s\n", key.c_str(), value,
                 ++i < results.size() ? "," : "");
  }
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"speedup\": {\n");
  i = 0;
  for (const auto& [key, value] : speedups) {
    std::fprintf(f, "    \"%s\": %.2f%s\n", key.c_str(), value,
                 ++i < speedups.size() ? "," : "");
  }
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
