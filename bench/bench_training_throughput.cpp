// bench_training_throughput: retrain-latency driver for the parallel
// training pipeline.
//
// Sweeps thread counts over dataset sizes and reports per-stage wall
// clock (scale / filter / pca / kmeans / table), end-to-end speedup vs
// the single-thread baseline, and the drift -> hot-swap "model
// staleness window": the time between a drift-triggered retrain
// starting and the new model being live in the serving registry
// (generate + train + ModelRegistry::publish).
//
// Determinism is part of the contract: the serialized model bytes must
// be identical at every thread count, and the bench FAILS otherwise on
// any machine.  The >= 3x end-to-end speedup gate only fires on 8+ core
// hardware: below that the threads time-share cores.
//
// Output: a human-readable table on stdout plus machine-readable JSON
// ("BENCH_training.json" in the working directory, or the last
// positional argument).
//
// Usage: bench_training_throughput [--smoke] [json_path]
//   --smoke: small datasets + {1,2} threads; runs in seconds (tier1.sh)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/model_io.h"
#include "core/polygraph.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "serve/model_registry.h"
#include "traffic/session_generator.h"
#include "util/csv.h"
#include "util/parallel.h"
#include "util/table.h"

namespace {

struct RunResult {
  std::size_t rows = 0;
  std::size_t threads = 0;
  double generate_seconds = 0.0;
  bp::core::TrainingTimings timings;  // per-stage training wall clock
  double publish_seconds = 0.0;
  double staleness_seconds = 0.0;  // generate + train + publish
  double speedup = 1.0;            // total train time vs 1 thread, same rows
  bool bytes_identical = true;     // serialized model vs 1-thread reference
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

RunResult run_configuration(std::size_t rows, std::size_t threads,
                            bp::serve::ModelRegistry& registry,
                            const std::string& reference_bytes,
                            std::string& bytes_out,
                            const bp::obs::ObsContext* obs) {
  using Clock = std::chrono::steady_clock;
  bp::util::set_parallel_threads(threads);

  RunResult result;
  result.rows = rows;
  result.threads = threads;

  const auto gen_start = Clock::now();
  const bp::traffic::Dataset data =
      bp::benchmark_support::make_training_dataset(rows);
  result.generate_seconds = seconds_since(gen_start);

  const auto trained = bp::benchmark_support::train_production(
      data, bp::core::PolygraphConfig::production(), obs);
  result.timings = trained.summary.timings;

  const auto publish_start = Clock::now();
  registry.publish(trained.model);
  result.publish_seconds = seconds_since(publish_start);
  result.staleness_seconds =
      result.generate_seconds + result.timings.total + result.publish_seconds;

  bytes_out = bp::core::serialize_model(trained.model);
  result.bytes_identical =
      reference_bytes.empty() || bytes_out == reference_bytes;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bp;

  bool smoke = false;
  std::string json_path = "BENCH_training.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "usage: %s [--smoke] [json_path]\n", argv[0]);
      return 2;
    } else {
      json_path = argv[i];
    }
  }

  const unsigned hardware = std::thread::hardware_concurrency();
  std::vector<std::size_t> sizes = smoke ? std::vector<std::size_t>{8'000}
                                         : std::vector<std::size_t>{50'000,
                                                                    200'000};
  std::vector<std::size_t> thread_counts =
      smoke ? std::vector<std::size_t>{1, 2}
            : std::vector<std::size_t>{1, 2, 8};

  serve::ModelRegistry registry;
  std::vector<RunResult> results;
  bool all_identical = true;
  double best_speedup_200k = 1.0;

  // Every run exports into one registry / trace sink, so the bench also
  // exercises the training pipeline's observability wiring end to end.
  obs::MetricsRegistry training_metrics;
  obs::TraceSink training_trace;

  for (std::size_t rows : sizes) {
    std::string reference_bytes;
    double baseline_total = 0.0;
    for (std::size_t threads : thread_counts) {
      std::string bytes;
      const obs::ObsContext obs_context{&training_metrics, &training_trace,
                                        results.size() + 1};
      RunResult result = run_configuration(rows, threads, registry,
                                           reference_bytes, bytes,
                                           &obs_context);
      if (reference_bytes.empty()) {
        reference_bytes = std::move(bytes);
        baseline_total = result.timings.total;
      } else {
        result.speedup = baseline_total / result.timings.total;
      }
      all_identical = all_identical && result.bytes_identical;
      if (rows == 200'000) {
        best_speedup_200k = std::max(best_speedup_200k, result.speedup);
      }
      std::printf("  rows=%-7zu threads=%zu  train=%7.2fs  staleness=%7.2fs  "
                  "speedup=%.2fx  bytes=%s\n",
                  result.rows, result.threads, result.timings.total,
                  result.staleness_seconds, result.speedup,
                  result.bytes_identical ? "identical" : "DIFFER");
      results.push_back(std::move(result));
    }
  }

  util::TextTable table({"rows", "threads", "gen_s", "scale_s", "filter_s",
                         "pca_s", "kmeans_s", "table_s", "train_s",
                         "staleness_s", "speedup", "bytes"});
  for (const RunResult& r : results) {
    char gen[24], scale[24], filter[24], pca[24], kmeans[24], tab[24],
        total[24], stale[24], speedup[16];
    std::snprintf(gen, sizeof(gen), "%.3f", r.generate_seconds);
    std::snprintf(scale, sizeof(scale), "%.3f", r.timings.scale);
    std::snprintf(filter, sizeof(filter), "%.3f", r.timings.filter);
    std::snprintf(pca, sizeof(pca), "%.3f", r.timings.pca);
    std::snprintf(kmeans, sizeof(kmeans), "%.3f", r.timings.kmeans);
    std::snprintf(tab, sizeof(tab), "%.3f", r.timings.table);
    std::snprintf(total, sizeof(total), "%.3f", r.timings.total);
    std::snprintf(stale, sizeof(stale), "%.3f", r.staleness_seconds);
    std::snprintf(speedup, sizeof(speedup), "%.2fx", r.speedup);
    table.add_row({std::to_string(r.rows), std::to_string(r.threads), gen,
                   scale, filter, pca, kmeans, tab, total, stale, speedup,
                   r.bytes_identical ? "identical" : "DIFFER"});
  }
  std::printf("\ntraining throughput (%u hardware threads%s):\n%s", hardware,
              smoke ? ", smoke mode" : "", table.render().c_str());
  std::printf("\ntraining telemetry (one render over all runs):\n%s",
              training_metrics.render_prometheus().c_str());
  std::printf("\nstage spans (trace id = run number):\n%s",
              training_trace.render(/*include_timing=*/true).c_str());

  std::string json = "{\n";
  json += "  \"hardware_threads\": " + std::to_string(hardware) + ",\n";
  json += std::string("  \"smoke\": ") + (smoke ? "true" : "false") + ",\n";
  json += std::string("  \"model_bytes_identical\": ") +
          (all_identical ? "true" : "false") + ",\n";
  json += "  \"runs\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    char entry[640];
    std::snprintf(
        entry, sizeof(entry),
        "    {\"rows\": %zu, \"threads\": %zu, \"generate_seconds\": %.4f, "
        "\"scale_seconds\": %.4f, \"filter_seconds\": %.4f, "
        "\"pca_seconds\": %.4f, \"kmeans_seconds\": %.4f, "
        "\"table_seconds\": %.4f, \"train_seconds\": %.4f, "
        "\"publish_seconds\": %.6f, \"staleness_window_seconds\": %.4f, "
        "\"speedup_vs_single\": %.3f, \"model_bytes_identical\": %s}%s\n",
        r.rows, r.threads, r.generate_seconds, r.timings.scale,
        r.timings.filter, r.timings.pca, r.timings.kmeans, r.timings.table,
        r.timings.total, r.publish_seconds, r.staleness_seconds, r.speedup,
        r.bytes_identical ? "true" : "false",
        i + 1 == results.size() ? "" : ",");
    json += entry;
  }
  json += "  ]\n}\n";
  if (!util::write_file(json_path, json)) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("\nJSON written to %s\n", json_path.c_str());

  // Gates.  Determinism is unconditional; the speedup bar only applies
  // where the hardware can express it.
  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: serialized model bytes differ across thread counts\n");
    return 1;
  }
  if (!smoke && hardware >= 8 && best_speedup_200k < 3.0) {
    std::fprintf(stderr,
                 "FAIL: expected >= 3x end-to-end speedup at 8 threads on "
                 "200k rows (got %.2fx on %u hardware threads)\n",
                 best_speedup_200k, hardware);
    return 1;
  }
  std::printf("model bytes identical across all thread counts\n");
  return 0;
}
