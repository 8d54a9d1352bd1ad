// Tests for the Browser Polygraph training pipeline and detection.
//
// A single model trained on a mid-size synthetic corpus is shared across
// the suite (training is the expensive step); every test then probes a
// distinct contract of the trained system.
#include <gtest/gtest.h>

#include "core/polygraph.h"
#include "traffic/session_generator.h"

namespace bp::core {
namespace {

struct SharedModel {
  traffic::Dataset data;
  Polygraph model;
  TrainingSummary summary;
};

const SharedModel& shared() {
  static const SharedModel* instance = [] {
    auto* s = new SharedModel{traffic::Dataset{}, Polygraph{}, {}};
    traffic::TrafficConfig config;
    config.n_sessions = 40'000;
    traffic::SessionGenerator gen(config);
    s->data = gen.generate(traffic::experiment_feature_indices());
    const ml::Matrix features =
        s->data.feature_matrix(s->model.config().feature_indices);
    std::vector<ua::UserAgent> uas;
    for (const auto& r : s->data.records()) uas.push_back(r.claimed);
    s->summary = s->model.train(features, uas);
    return s;
  }();
  return *instance;
}

ua::UserAgent chrome(int v) { return {ua::Vendor::kChrome, v, ua::Os::kWindows10}; }
ua::UserAgent firefox(int v) {
  return {ua::Vendor::kFirefox, v, ua::Os::kWindows10};
}
ua::UserAgent edge(int v) { return {ua::Vendor::kEdge, v, ua::Os::kWindows10}; }

std::vector<double> baseline_of(ua::Vendor vendor, int version) {
  const auto* release = browser::ReleaseDatabase::instance().find(vendor, version);
  EXPECT_NE(release, nullptr);
  return shared().model.baseline_features(*release);
}

TEST(Training, AccuracyMatchesPaperBand) {
  // Paper: 99.6% on the production parameters.
  EXPECT_GT(shared().summary.clustering_accuracy, 0.985);
  EXPECT_LE(shared().summary.clustering_accuracy, 1.0);
}

TEST(Training, OutlierFilterRemovesConfiguredFraction) {
  const auto& s = shared();
  const double fraction = static_cast<double>(s.summary.rows_outliers_removed) /
                          static_cast<double>(s.summary.rows_total);
  EXPECT_NEAR(fraction, s.model.config().contamination, 0.0005);
}

TEST(Training, ProducesElevenClusters) {
  EXPECT_EQ(shared().model.kmeans().k(), 11u);
  EXPECT_EQ(shared().model.kmeans().centroids().rows(), 11u);
}

TEST(Training, WcssIsPositive) { EXPECT_GT(shared().summary.wcss, 0.0); }

TEST(ClusterTable, Table3PartitionHolds) {
  // The partition of Table 3, expressed as same/different-cluster
  // relations (cluster ids themselves are seed-arbitrary).
  const auto& table = shared().model.cluster_table();
  auto cluster = [&](const ua::UserAgent& ua) {
    const auto c = table.expected_cluster(ua);
    EXPECT_TRUE(c.has_value()) << ua.label();
    return c.value_or(9999);
  };

  // Within-cluster pairs.
  EXPECT_EQ(cluster(chrome(110)), cluster(edge(113)));     // cluster 0
  EXPECT_EQ(cluster(firefox(101)), cluster(firefox(114))); // cluster 1
  EXPECT_EQ(cluster(chrome(60)), cluster(firefox(80)));    // cluster 2
  EXPECT_EQ(cluster(chrome(114)), cluster(edge(114)));     // cluster 3
  EXPECT_EQ(cluster(chrome(70)), cluster(edge(85)));       // cluster 4
  EXPECT_EQ(cluster(chrome(105)), cluster(edge(102)));     // cluster 5
  EXPECT_EQ(cluster(firefox(47)),
            cluster({ua::Vendor::kEdgeLegacy, 18, ua::Os::kWindows10}));
  EXPECT_EQ(cluster(firefox(95)), cluster(firefox(99)));   // cluster 9
  EXPECT_EQ(cluster(chrome(95)), cluster(edge(95)));       // cluster 10

  // Cross-cluster separations.
  EXPECT_NE(cluster(chrome(110)), cluster(chrome(114)));
  EXPECT_NE(cluster(chrome(105)), cluster(chrome(110)));
  EXPECT_NE(cluster(chrome(95)), cluster(chrome(105)));
  EXPECT_NE(cluster(chrome(70)), cluster(chrome(95)));
  EXPECT_NE(cluster(chrome(60)), cluster(chrome(70)));
  EXPECT_NE(cluster(firefox(95)), cluster(firefox(101)));
  EXPECT_NE(cluster(firefox(80)), cluster(firefox(95)));
  EXPECT_NE(cluster(firefox(48)), cluster(firefox(80)));
}

TEST(ClusterTable, UnknownUaHasNoExpectedCluster) {
  EXPECT_FALSE(shared().model.cluster_table()
                   .expected_cluster(chrome(200))
                   .has_value());
}

TEST(ClusterTable, PopulatedClustersAtMostNine) {
  // k=11 with two (or more) noise clusters holding no UA majority.
  const auto populated = shared().model.cluster_table().populated_clusters();
  EXPECT_LE(populated.size(), 9u);
  EXPECT_GE(populated.size(), 8u);
}

TEST(ClusterTable, ReassignmentMovesUa) {
  ClusterTable table;
  table.assign(chrome(100), 1);
  table.assign(chrome(100), 2);
  EXPECT_EQ(table.expected_cluster(chrome(100)), 2u);
  EXPECT_TRUE(table.user_agents_in(1).empty());
  ASSERT_EQ(table.user_agents_in(2).size(), 1u);
}

TEST(Detection, LegitimateBaselinesAreNotFlagged) {
  for (const auto ua : {chrome(60), chrome(80), chrome(95), chrome(105),
                        chrome(112), chrome(114), firefox(48), firefox(80),
                        firefox(95), firefox(110), edge(90), edge(113)}) {
    const auto features = baseline_of(ua.vendor, ua.major_version);
    const Detection d = shared().model.score(features, ua);
    EXPECT_FALSE(d.flagged) << ua.label();
    EXPECT_EQ(d.risk_factor, 0) << ua.label();
  }
}

TEST(Detection, Category2SpoofIsFlagged) {
  // A frozen Chrome 110 fingerprint claiming Firefox 110: vendor-level
  // mismatch, maximum risk.
  const auto features = baseline_of(ua::Vendor::kChrome, 110);
  const Detection d = shared().model.score(features, firefox(110));
  EXPECT_TRUE(d.flagged);
  EXPECT_EQ(d.risk_factor, shared().model.config().vendor_distance);
}

TEST(Detection, NearVersionSpoofGetsLowRisk) {
  // Chrome 105 fingerprint claiming Chrome 112: flagged (different
  // cluster) but the claimed UA is close to cluster-5 members, so the
  // risk is the version gap over 4.
  const auto features = baseline_of(ua::Vendor::kChrome, 105);
  const Detection d = shared().model.score(features, chrome(112));
  EXPECT_TRUE(d.flagged);
  EXPECT_GE(d.risk_factor, 0);
  EXPECT_LE(d.risk_factor, 2);
}

TEST(Detection, StaleVictimProfileGetsHighRisk) {
  // Chrome 112 fingerprint claiming Chrome 70 (a very stale stolen
  // profile): large version gap.
  const auto features = baseline_of(ua::Vendor::kChrome, 112);
  const Detection d = shared().model.score(features, chrome(70));
  EXPECT_TRUE(d.flagged);
  EXPECT_GE(d.risk_factor, (110 - 70) / 4 - 2);
}

TEST(Detection, UnknownUaIsNotFlagged) {
  const auto features = baseline_of(ua::Vendor::kChrome, 112);
  const Detection d = shared().model.score(features, chrome(250));
  EXPECT_FALSE(d.flagged);
  EXPECT_FALSE(d.expected_cluster.has_value());
}

TEST(Detection, EdgeAndChromeShareClustersSoCrossClaimsPass) {
  // Edge 112 fingerprint claiming Chrome 112 is cluster-consistent —
  // coarse-grained fingerprints cannot separate same-era Chromium
  // lineages, by design.
  const auto features = baseline_of(ua::Vendor::kEdge, 112);
  EXPECT_FALSE(shared().model.score(features, chrome(112)).flagged);
}

TEST(Prediction, BatchMatchesSingle) {
  const auto& s = shared();
  const ml::Matrix features =
      s.data.feature_matrix(s.model.config().feature_indices);
  // Every row, so the pool's chunk and block edges are all crossed.
  const auto batch = s.model.predict_clusters(features);
  ASSERT_EQ(batch.size(), features.rows());
  BatchScratch scratch;
  for (std::size_t i = 0; i < features.rows(); ++i) {
    ASSERT_EQ(batch[i], s.model.predict_cluster(features.row(i), scratch))
        << "row " << i;
  }
}

TEST(Prediction, ScratchPathMatchesAllocatingPath) {
  // The serving tier's allocation-free overloads must be bit-identical
  // to the original entry points.
  const auto& s = shared();
  const ml::Matrix features =
      s.data.feature_matrix(s.model.config().feature_indices);
  ScoringScratch scratch;
  for (std::size_t i = 0; i < 500; ++i) {
    const auto& claimed = s.data.records()[i].claimed;
    const Detection baseline = s.model.score(features.row(i), claimed);
    const Detection scratch_path =
        s.model.score(features.row(i), claimed, scratch);
    EXPECT_EQ(scratch_path.predicted_cluster, baseline.predicted_cluster);
    EXPECT_EQ(scratch_path.expected_cluster, baseline.expected_cluster);
    EXPECT_EQ(scratch_path.flagged, baseline.flagged);
    EXPECT_EQ(scratch_path.risk_factor, baseline.risk_factor);
  }
}

TEST(Prediction, NativeIntFeaturesMatchDoublePath) {
  // Sessions store int32 features; the serving engine scores them
  // without building a std::vector<double> per call.
  const auto& s = shared();
  const ml::Matrix features =
      s.data.feature_matrix(s.model.config().feature_indices);
  ScoringScratch scratch;
  for (std::size_t i = 0; i < 200; ++i) {
    const auto row = features.row(i);
    std::vector<std::int32_t> native(row.size());
    for (std::size_t c = 0; c < row.size(); ++c) {
      native[c] = static_cast<std::int32_t>(row[c]);
    }
    const auto& claimed = s.data.records()[i].claimed;
    const Detection baseline = s.model.score(row, claimed);
    const Detection native_path = s.model.score(
        std::span<const std::int32_t>(native), claimed, scratch);
    EXPECT_EQ(native_path.predicted_cluster, baseline.predicted_cluster);
    EXPECT_EQ(native_path.flagged, baseline.flagged);
    EXPECT_EQ(native_path.risk_factor, baseline.risk_factor);
  }
}

TEST(Config, ProductionDefaults) {
  const PolygraphConfig config = PolygraphConfig::production();
  EXPECT_EQ(config.feature_indices.size(), 28u);
  EXPECT_EQ(config.pca_components, 7u);
  EXPECT_EQ(config.k, 11u);
  EXPECT_EQ(config.vendor_distance, 20);
  EXPECT_EQ(config.version_divisor, 4);
}

}  // namespace
}  // namespace bp::core
