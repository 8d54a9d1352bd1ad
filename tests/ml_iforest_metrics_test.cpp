// Tests for the Isolation Forest and the clustering-accuracy metrics.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "ml/isolation_forest.h"
#include "ml/metrics.h"
#include "util/rng.h"

namespace bp::ml {
namespace {

Matrix cluster_with_outliers(std::size_t n_inliers, std::uint64_t seed) {
  bp::util::Rng rng(seed);
  Matrix data(n_inliers + 3, 2);
  for (std::size_t i = 0; i < n_inliers; ++i) {
    data(i, 0) = rng.normal(0.0, 1.0);
    data(i, 1) = rng.normal(0.0, 1.0);
  }
  // Three gross outliers.
  data(n_inliers + 0, 0) = 60.0;
  data(n_inliers + 1, 1) = -55.0;
  data(n_inliers + 2, 0) = 40.0;
  data(n_inliers + 2, 1) = 40.0;
  return data;
}

TEST(AveragePathLength, KnownValues) {
  EXPECT_DOUBLE_EQ(IsolationForest::average_path_length(0), 0.0);
  EXPECT_DOUBLE_EQ(IsolationForest::average_path_length(1), 0.0);
  EXPECT_DOUBLE_EQ(IsolationForest::average_path_length(2), 1.0);
  // c(n) grows like 2 ln(n); spot check against the published formula.
  const double c256 = IsolationForest::average_path_length(256);
  EXPECT_NEAR(c256, 2.0 * (std::log(255.0) + 0.5772156649) - 2.0 * 255.0 / 256.0,
              1e-10);
}

TEST(IsolationForest, OutliersScoreHigher) {
  const Matrix data = cluster_with_outliers(300, 1);
  IsolationForest forest;
  forest.fit(data);
  const auto scores = forest.score(data);
  double max_inlier = 0.0;
  for (std::size_t i = 0; i < 300; ++i) max_inlier = std::max(max_inlier, scores[i]);
  for (std::size_t i = 300; i < 303; ++i) {
    EXPECT_GT(scores[i], max_inlier);
  }
}

TEST(IsolationForest, ScoresInUnitInterval) {
  const Matrix data = cluster_with_outliers(200, 2);
  IsolationForest forest;
  forest.fit(data);
  for (double s : forest.score(data)) {
    EXPECT_GT(s, 0.0);
    EXPECT_LT(s, 1.0);
  }
}

TEST(IsolationForest, InlierMaskDropsExactlyTheOutliers) {
  const Matrix data = cluster_with_outliers(300, 3);
  IsolationForest forest;
  forest.fit(data);
  const auto keep = forest.inlier_mask(data, 3.0 / 303.0);
  std::size_t dropped = 0;
  for (bool k : keep) dropped += k ? 0 : 1;
  EXPECT_EQ(dropped, 3u);
  EXPECT_FALSE(keep[300]);
  EXPECT_FALSE(keep[301]);
  EXPECT_FALSE(keep[302]);
}

TEST(IsolationForest, ZeroContaminationKeepsEverything) {
  const Matrix data = cluster_with_outliers(100, 4);
  IsolationForest forest;
  forest.fit(data);
  for (bool k : forest.inlier_mask(data, 0.0)) EXPECT_TRUE(k);
}

TEST(IsolationForest, ContaminationDropsCeil) {
  const Matrix data = cluster_with_outliers(100, 5);
  IsolationForest forest;
  forest.fit(data);
  const auto keep = forest.inlier_mask(data, 0.005);  // ceil(0.515) = 1
  std::size_t dropped = 0;
  for (bool k : keep) dropped += k ? 0 : 1;
  EXPECT_EQ(dropped, 1u);
}

TEST(IsolationForest, DeterministicGivenSeed) {
  const Matrix data = cluster_with_outliers(150, 6);
  IsolationForestConfig config;
  config.seed = 77;
  IsolationForest a(config);
  IsolationForest b(config);
  a.fit(data);
  b.fit(data);
  EXPECT_EQ(a.score(data), b.score(data));
}

TEST(IsolationForest, HandlesConstantData) {
  Matrix data(50, 2, 3.0);
  IsolationForest forest;
  forest.fit(data);
  const auto scores = forest.score(data);
  for (std::size_t i = 1; i < scores.size(); ++i) {
    EXPECT_DOUBLE_EQ(scores[i], scores[0]);
  }
}

// Batch scoring walks the trees tree-major over row blocks, several
// rows at a time; every score must still equal score_one's bit for bit.
void expect_batch_equals_scalar(const IsolationForest& forest,
                                const Matrix& data) {
  const std::vector<double> batch = forest.score(data);
  ASSERT_EQ(batch.size(), data.rows());
  for (std::size_t i = 0; i < data.rows(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(batch[i]),
              std::bit_cast<std::uint64_t>(forest.score_one(data.row(i))))
        << "row " << i;
  }
}

TEST(IsolationForest, BatchScoresEqualScalarScoresBitForBit) {
  // 2'500 rows: two full 1024-row blocks, a partial one, and a tail
  // that is not a whole number of interleaved rows.
  bp::util::Rng rng(21);
  Matrix data(2'500, 6);
  for (std::size_t i = 0; i < data.rows(); ++i) {
    for (std::size_t j = 0; j < data.cols(); ++j) {
      data(i, j) = rng.normal(0.0, 1.0 + static_cast<double>(j));
    }
    data(i, 4) = 2.5;                                    // constant column
    if (i % 7 == 3) data(i, 5) = data(i - 1, 5);         // repeated values
  }
  for (std::size_t i = 100; i < 200; ++i) {              // duplicate rows
    for (std::size_t j = 0; j < data.cols(); ++j) data(i, j) = data(99, j);
  }
  data(10, 0) = std::numeric_limits<double>::infinity();
  data(11, 1) = -std::numeric_limits<double>::infinity();
  data(12, 2) = std::numeric_limits<double>::infinity();
  data(12, 3) = -std::numeric_limits<double>::infinity();

  IsolationForest forest;
  forest.fit(data);
  expect_batch_equals_scalar(forest, data);

  // Rows the forest never saw, NaN included (NaN goes right in both).
  Matrix probes(37, 6);
  for (std::size_t i = 0; i < probes.rows(); ++i) {
    for (std::size_t j = 0; j < probes.cols(); ++j) {
      probes(i, j) = rng.normal(0.0, 4.0);
    }
  }
  probes(0, 0) = std::numeric_limits<double>::quiet_NaN();
  probes(1, 3) = std::numeric_limits<double>::quiet_NaN();
  probes(2, 5) = std::numeric_limits<double>::infinity();
  probes(3, 1) = -std::numeric_limits<double>::infinity();
  expect_batch_equals_scalar(forest, probes);

  // Data with no spread at all: every tree is a single leaf.
  const Matrix constant(40, 3, -1.0);
  IsolationForest flat;
  flat.fit(constant);
  expect_batch_equals_scalar(flat, constant);
}

// ------------------------- metrics -------------------------

TEST(Metrics, MajorityClusters) {
  const std::vector<std::uint32_t> labels = {1, 1, 1, 2, 2};
  const std::vector<std::size_t> clusters = {0, 0, 3, 3, 3};
  const auto majority = majority_clusters(labels, clusters);
  EXPECT_EQ(majority.at(1), 0u);
  EXPECT_EQ(majority.at(2), 3u);
}

TEST(Metrics, PerfectAccuracy) {
  const std::vector<std::uint32_t> labels = {1, 1, 2, 2};
  const std::vector<std::size_t> clusters = {0, 0, 1, 1};
  EXPECT_DOUBLE_EQ(clustering_accuracy(labels, clusters).row_accuracy, 1.0);
}

TEST(Metrics, MiscluaterCounted) {
  const std::vector<std::uint32_t> labels = {1, 1, 1, 1};
  const std::vector<std::size_t> clusters = {0, 0, 0, 5};
  const auto acc = clustering_accuracy(labels, clusters);
  EXPECT_DOUBLE_EQ(acc.row_accuracy, 0.75);
  EXPECT_EQ(acc.correct_rows, 3u);
}

TEST(Metrics, SharedMajorityClusterIsAllowed) {
  // Two labels whose majority is the same cluster: both count as correct
  // (the paper's metric does not demand distinct clusters per label).
  const std::vector<std::uint32_t> labels = {1, 1, 2, 2};
  const std::vector<std::size_t> clusters = {0, 0, 0, 0};
  EXPECT_DOUBLE_EQ(clustering_accuracy(labels, clusters).row_accuracy, 1.0);
}

TEST(Metrics, EmptyInput) {
  const auto acc = clustering_accuracy({}, {});
  EXPECT_DOUBLE_EQ(acc.row_accuracy, 0.0);
  EXPECT_EQ(acc.total_rows, 0u);
}

}  // namespace
}  // namespace bp::ml
