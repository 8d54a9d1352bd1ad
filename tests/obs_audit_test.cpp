// Tests for the decision audit trail: deterministic unflagged sampling,
// ring bounds, JSONL rendering, and — the core guarantee — exact
// offline replay of every recorded verdict against the versioned model
// that produced it, including across a mid-stream hot swap.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/audit.h"
#include "serve/model_registry.h"
#include "serve/scoring_engine.h"

namespace bp::obs {
namespace {

const ua::UserAgent kChrome100{ua::Vendor::kChrome, 100, ua::Os::kWindows10};
const ua::UserAgent kFirefox100{ua::Vendor::kFirefox, 100,
                                ua::Os::kWindows10};

// Cluster 0 at (0, 0), cluster 1 at (10, 10).  Model A expects Chrome
// 100 in cluster 0; model B swaps the table, so the same session flips
// between clean and flagged across a hot swap.
core::Polygraph make_model(bool swapped_table) {
  core::PolygraphConfig config;
  config.feature_indices = {0, 1};
  config.pca_components = 2;
  config.k = 2;
  ml::Matrix centroids(2, 2);
  centroids(1, 0) = 10.0;
  centroids(1, 1) = 10.0;
  ml::KMeansConfig kconfig;
  kconfig.k = 2;
  core::ClusterTable table;
  table.assign(kChrome100, swapped_table ? 1 : 0);
  table.assign(kFirefox100, swapped_table ? 0 : 1);
  return core::Polygraph::from_parts(
      config, ml::StandardScaler::from_params({0.0, 0.0}, {1.0, 1.0}),
      ml::Pca::from_params({0.0, 0.0}, {1.0, 1.0}, ml::Matrix::identity(2)),
      ml::KMeans::from_centroids(std::move(centroids), kconfig),
      std::move(table));
}

// ------------------------------ sampling -------------------------------

TEST(ObsAudit, UnflaggedSamplingIsPureInSeedAndSessionId) {
  AuditConfig config;
  config.unflagged_sample_rate = 0.25;
  config.seed = 7;
  const AuditTrail a(config);
  const AuditTrail b(config);
  std::size_t kept = 0;
  for (std::uint64_t id = 1; id <= 4'000; ++id) {
    EXPECT_EQ(a.sample_unflagged(id), b.sample_unflagged(id)) << "id " << id;
    if (a.sample_unflagged(id)) ++kept;
  }
  EXPECT_GT(kept, 700u);
  EXPECT_LT(kept, 1'300u);

  AuditConfig none = config;
  none.unflagged_sample_rate = 0.0;
  const AuditTrail never(none);
  AuditConfig full = config;
  full.unflagged_sample_rate = 1.0;
  const AuditTrail always(full);
  for (std::uint64_t id = 1; id <= 100; ++id) {
    EXPECT_FALSE(never.sample_unflagged(id));
    EXPECT_TRUE(always.sample_unflagged(id));
  }
}

// -------------------------------- ring ---------------------------------

TEST(ObsAudit, RingKeepsYoungestRecordsOldestFirst) {
  AuditConfig config;
  config.capacity = 3;
  AuditTrail trail(config);
  for (std::uint64_t id = 1; id <= 8; ++id) {
    AuditRecord record;
    record.session_id = id;
    record.tags = AuditRecord::kFlagged;
    trail.record(record);
  }
  EXPECT_EQ(trail.recorded(), 8u);
  EXPECT_EQ(trail.flagged_recorded(), 8u);
  EXPECT_EQ(trail.overwritten(), 5u);
  const std::vector<AuditRecord> records = trail.records();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].session_id, 6u);
  EXPECT_EQ(records[2].session_id, 8u);
  trail.clear();
  EXPECT_TRUE(trail.records().empty());
}

TEST(ObsAudit, RenderJsonlIsDeterministicWithoutTiming) {
  AuditTrail trail;
  AuditRecord record;
  record.session_id = 42;
  record.model_version = 3;
  record.claimed = kChrome100;
  record.predicted_cluster = 1;
  record.expected_cluster = 0;
  record.risk_factor = 20;
  record.centroid_distance2 = 1.25;
  record.tags = AuditRecord::kFlagged;
  record.recorded_at_us = 999;  // must not appear without timing
  trail.record(record);

  const std::string a = trail.render_jsonl();
  EXPECT_EQ(a, trail.render_jsonl());
  EXPECT_NE(a.find("\"session_id\": 42"), std::string::npos);
  EXPECT_NE(a.find("\"model_version\": 3"), std::string::npos);
  EXPECT_NE(a.find("\"risk_factor\": 20"), std::string::npos);
  EXPECT_EQ(a.find("999"), std::string::npos);
  EXPECT_NE(trail.render_jsonl(/*include_timing=*/true).find("999"),
            std::string::npos);
}

// ------------------------------- replay --------------------------------

struct SessionInput {
  std::vector<std::int32_t> features;
  ua::UserAgent claimed;
};

// Every audit record must replay to the identical verdict when re-scored
// against the model version it names — the whole point of keeping
// superseded snapshots alive in the registry.
void expect_exact_replay(const serve::ModelRegistry& registry,
                         const AuditTrail& trail,
                         const std::map<std::uint64_t, SessionInput>& inputs) {
  core::ScoringScratch scratch;
  for (const AuditRecord& record : trail.records()) {
    const auto input = inputs.find(record.session_id);
    ASSERT_NE(input, inputs.end()) << "session " << record.session_id;
    const serve::ModelSnapshot snapshot =
        registry.at_version(record.model_version);
    ASSERT_TRUE(snapshot) << "version " << record.model_version
                          << " not retained";
    const core::Detection replayed = snapshot.model->score(
        std::span<const std::int32_t>(input->second.features),
        input->second.claimed, scratch);
    EXPECT_EQ(replayed.flagged, record.flagged())
        << "session " << record.session_id;
    EXPECT_EQ(static_cast<std::uint32_t>(replayed.predicted_cluster),
              record.predicted_cluster)
        << "session " << record.session_id;
    EXPECT_EQ(replayed.risk_factor, record.risk_factor)
        << "session " << record.session_id;
    EXPECT_DOUBLE_EQ(replayed.centroid_distance2, record.centroid_distance2)
        << "session " << record.session_id;
    const std::int32_t expected =
        replayed.expected_cluster.has_value()
            ? static_cast<std::int32_t>(*replayed.expected_cluster)
            : -1;
    EXPECT_EQ(expected, record.expected_cluster)
        << "session " << record.session_id;
  }
}

TEST(AuditReplay, FlaggedEvidenceReplaysExactlyAcrossHotSwap) {
  serve::ModelRegistry registry;
  registry.publish(make_model(false));  // v1: Chrome 100 -> cluster 0

  AuditTrail trail;
  serve::EngineConfig config;
  config.workers = 2;
  config.audit = &trail;
  serve::ScoringEngine engine(registry, config, {});

  std::map<std::uint64_t, SessionInput> inputs;
  const auto submit = [&](std::uint64_t id, std::vector<std::int32_t> features,
                          const ua::UserAgent& claimed) {
    inputs[id] = {features, claimed};
    serve::ScoreRequest request;
    request.id = id;
    request.features = std::move(features);
    request.claimed = claimed;
    EXPECT_EQ(engine.submit(std::move(request)),
              serve::SubmitResult::kAdmitted);
  };

  // Under v1: Firefox 100 at the origin is flagged (expects cluster 1),
  // Chrome 100 at (10, 10) is flagged (expects cluster 0).
  for (std::uint64_t id = 1; id <= 8; ++id) {
    submit(id, {0, 0}, id % 2 == 0 ? kFirefox100 : kChrome100);
    submit(100 + id, {10, 10}, id % 2 == 0 ? kChrome100 : kFirefox100);
  }
  engine.drain();
  const std::uint64_t flagged_v1 = trail.flagged_recorded();
  EXPECT_EQ(flagged_v1, 8u);

  // Hot swap: same sessions now flag the other way around.
  ASSERT_EQ(registry.publish(make_model(true)), 2u);
  for (std::uint64_t id = 201; id <= 208; ++id) {
    submit(id, {0, 0}, id % 2 == 0 ? kFirefox100 : kChrome100);
  }
  engine.drain();
  engine.stop();
  EXPECT_EQ(trail.flagged_recorded(), flagged_v1 + 4u);

  // Records from both versions are present, and each replays exactly
  // against the snapshot it names — even though v1 was superseded.
  bool saw_v1 = false, saw_v2 = false;
  for (const AuditRecord& record : trail.records()) {
    saw_v1 |= record.model_version == 1;
    saw_v2 |= record.model_version == 2;
    EXPECT_NE(record.model_version, 0u);  // always a published model
  }
  EXPECT_TRUE(saw_v1);
  EXPECT_TRUE(saw_v2);
  expect_exact_replay(registry, trail, inputs);
}

TEST(AuditReplay, SampledUnflaggedSessionsReplayToo) {
  serve::ModelRegistry registry;
  registry.publish(make_model(false));

  AuditConfig audit_config;
  audit_config.unflagged_sample_rate = 1.0;  // record every clean session
  AuditTrail trail(audit_config);
  serve::EngineConfig config;
  config.workers = 2;
  config.audit = &trail;
  serve::ScoringEngine engine(registry, config, {});

  std::map<std::uint64_t, SessionInput> inputs;
  for (std::uint64_t id = 1; id <= 6; ++id) {
    inputs[id] = {{0, 0}, kChrome100};  // clean under model A
    serve::ScoreRequest request;
    request.id = id;
    request.features = {0, 0};
    request.claimed = kChrome100;
    ASSERT_EQ(engine.submit(std::move(request)),
              serve::SubmitResult::kAdmitted);
  }
  engine.drain();
  engine.stop();

  const std::vector<AuditRecord> records = trail.records();
  ASSERT_EQ(records.size(), 6u);
  EXPECT_EQ(trail.flagged_recorded(), 0u);
  for (const AuditRecord& record : records) {
    EXPECT_FALSE(record.flagged());
    EXPECT_TRUE((record.tags & AuditRecord::kSampledUnflagged) != 0);
  }
  expect_exact_replay(registry, trail, inputs);
}

TEST(ObsAudit, EngineWithoutTrailRecordsNothing) {
  serve::ModelRegistry registry;
  registry.publish(make_model(false));
  serve::EngineConfig config;
  config.workers = 1;
  serve::ScoringEngine engine(registry, config, {});
  serve::ScoreRequest request;
  request.id = 1;
  request.features = {0, 0};
  request.claimed = kFirefox100;  // flagged, but no trail configured
  ASSERT_EQ(engine.submit(std::move(request)), serve::SubmitResult::kAdmitted);
  engine.drain();
  engine.stop();
  SUCCEED();  // reaching here without a crash is the assertion
}

}  // namespace
}  // namespace bp::obs
