// Determinism across thread counts — the hard requirement of the
// parallel training pipeline: the SAME seed must produce bit-identical
// models, labels, and generated traffic whether the pool runs 1, 2, or
// 8 threads.  Every parallel region decomposes work by a fixed grain
// (never by thread count) and merges partials in chunk order, so these
// suites compare serialized bytes with plain string equality.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "core/model_io.h"
#include "core/polygraph.h"
#include "ml/isolation_forest.h"
#include "ml/kmeans.h"
#include "paired_gate.h"
#include "traffic/session_generator.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace bp {
namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 8};

// Restores the default pool size so thread-count experiments cannot
// leak into unrelated suites.
class TrainingDeterminismTest : public ::testing::Test {
 protected:
  void TearDown() override { util::set_parallel_threads(0); }
};

traffic::Dataset make_dataset(std::size_t n_sessions) {
  traffic::TrafficConfig config;
  config.n_sessions = n_sessions;
  traffic::SessionGenerator gen(config);
  return gen.generate(traffic::experiment_feature_indices());
}

std::string record_digest(const traffic::SessionRecord& r) {
  std::string out = r.session_id;
  out += '|';
  out += r.user_agent;
  out += '|';
  for (std::int32_t f : r.features) {
    out += std::to_string(f);
    out += ',';
  }
  out += r.untrusted_ip ? '1' : '0';
  out += r.untrusted_cookie ? '1' : '0';
  out += r.ato ? '1' : '0';
  return out;
}

TEST_F(TrainingDeterminismTest, GeneratedTrafficIdenticalAcrossThreadCounts) {
  // 3 shards' worth plus a partial tail shard.
  const std::size_t n = traffic::SessionGenerator::kGenerateShard * 3 + 257;
  std::vector<std::string> digests;
  for (std::size_t threads : kThreadCounts) {
    util::set_parallel_threads(threads);
    const traffic::Dataset data = make_dataset(n);
    ASSERT_EQ(data.size(), n);
    std::string digest;
    for (const auto& r : data.records()) {
      digest += record_digest(r);
      digest += '\n';
    }
    digests.push_back(std::move(digest));
  }
  EXPECT_EQ(digests[0], digests[1]);
  EXPECT_EQ(digests[0], digests[2]);
}

TEST_F(TrainingDeterminismTest, SerializedModelBytesIdenticalAcrossThreadCounts) {
  // Small but structurally complete corpus: all vendors, privacy
  // browsers, fraud, rare labels.
  const std::size_t n = 12'000;
  std::vector<std::string> serialized;
  std::vector<std::vector<std::size_t>> labels;
  std::vector<core::TrainingSummary> summaries;
  for (std::size_t threads : kThreadCounts) {
    util::set_parallel_threads(threads);
    const traffic::Dataset data = make_dataset(n);
    core::Polygraph model;
    const ml::Matrix features =
        data.feature_matrix(model.config().feature_indices);
    std::vector<ua::UserAgent> uas;
    uas.reserve(data.size());
    for (const auto& r : data.records()) uas.push_back(r.claimed);
    summaries.push_back(model.train(features, uas));
    serialized.push_back(core::serialize_model(model));
    labels.push_back(model.kmeans().labels());
  }
  // Bit-identical model bytes: scaler moments, PCA basis, centroids,
  // and the UA <-> cluster table all round through the same text.
  EXPECT_EQ(serialized[0], serialized[1]) << "1 vs 2 threads";
  EXPECT_EQ(serialized[0], serialized[2]) << "1 vs 8 threads";
  // Identical cluster labels, row by row.
  ASSERT_EQ(labels[0].size(), labels[1].size());
  ASSERT_EQ(labels[0].size(), labels[2].size());
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_EQ(labels[0], labels[2]);
  // And the summary statistics that derive from them.
  for (std::size_t i = 1; i < summaries.size(); ++i) {
    EXPECT_EQ(summaries[0].rows_outliers_removed,
              summaries[i].rows_outliers_removed);
    EXPECT_EQ(summaries[0].wcss, summaries[i].wcss);
    EXPECT_EQ(summaries[0].clustering_accuracy,
              summaries[i].clustering_accuracy);
    EXPECT_EQ(summaries[0].labels_realigned, summaries[i].labels_realigned);
  }
}

TEST_F(TrainingDeterminismTest, IsolationForestScoresIdenticalAcrossThreads) {
  util::set_parallel_threads(1);
  const traffic::Dataset data = make_dataset(4'000);
  const ml::Matrix features =
      data.feature_matrix(core::PolygraphConfig::production().feature_indices);

  std::vector<std::vector<double>> scores;
  for (std::size_t threads : kThreadCounts) {
    util::set_parallel_threads(threads);
    ml::IsolationForest forest;
    forest.fit(features);
    scores.push_back(forest.score(features));
  }
  EXPECT_EQ(scores[0], scores[1]);
  EXPECT_EQ(scores[0], scores[2]);
}

TEST_F(TrainingDeterminismTest, TrainingTimingsArePopulated) {
  const traffic::Dataset data = make_dataset(6'000);
  core::Polygraph model;
  const ml::Matrix features =
      data.feature_matrix(model.config().feature_indices);
  std::vector<ua::UserAgent> uas;
  for (const auto& r : data.records()) uas.push_back(r.claimed);
  const core::TrainingSummary summary = model.train(features, uas);
  EXPECT_GT(summary.timings.total, 0.0);
  const double stage_sum = summary.timings.scale + summary.timings.filter +
                           summary.timings.pca + summary.timings.kmeans +
                           summary.timings.table;
  EXPECT_GT(stage_sum, 0.0);
  EXPECT_LE(stage_sum, summary.timings.total * 1.01);
}

// Training scaling: on the same 200k rows, Polygraph::train's total wall
// clock at 8 threads must be at least 3x shorter than at 1 thread.
// Below 8 hardware threads the pool's lanes time-share cores, so the
// bound cannot hold there.
using TrainingThroughput = TrainingDeterminismTest;

TEST_F(TrainingThroughput, EightThreadsTrain200kRowsThreeTimesFaster) {
  if (kSanitized) GTEST_SKIP() << "timings mean nothing under a sanitizer";
  const unsigned hardware = std::thread::hardware_concurrency();
  if (hardware < 8) {
    GTEST_SKIP() << "needs 8 hardware threads, this host has " << hardware;
  }
  util::set_parallel_threads(8);
  const traffic::Dataset data = make_dataset(200'000);
  const ml::Matrix features =
      data.feature_matrix(core::PolygraphConfig::production().feature_indices);
  std::vector<ua::UserAgent> uas;
  uas.reserve(data.size());
  for (const auto& r : data.records()) uas.push_back(r.claimed);

  const auto train_seconds = [&](std::size_t threads) {
    util::set_parallel_threads(threads);
    core::Polygraph model;
    return model.train(features, uas).timings.total;
  };
  const double one = train_seconds(1);
  const double eight = train_seconds(8);
  EXPECT_GE(one / eight, 3.0)
      << "1 thread " << one << " s, 8 threads " << eight << " s";
}

}  // namespace
}  // namespace bp
