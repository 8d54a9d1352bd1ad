// Integrity tests for model persistence and the registry's fail-closed
// publish path: table-driven corruption of every line of the serialized
// format (truncate / bit-flip / delete), typed LoadError reporting,
// atomic save semantics, quarantine and rollback.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/model_io.h"
#include "serve/model_registry.h"
#include "util/fault.h"
#include "util/file.h"

namespace bp::core {
namespace {

ua::UserAgent chrome(int v) { return {ua::Vendor::kChrome, v, ua::Os::kWindows10}; }
ua::UserAgent firefox(int v) {
  return {ua::Vendor::kFirefox, v, ua::Os::kWindows10};
}

// Same minimal hand-assembled model the ModelIo tests use: identity
// scaler/PCA over 2 features, 2 centroids, 2 table entries.
Polygraph tiny_model(bool swapped_table = false) {
  PolygraphConfig config;
  config.feature_indices = {0, 1};
  config.pca_components = 2;
  config.k = 2;
  ml::Matrix centroids(2, 2);
  centroids(1, 0) = 10.0;
  centroids(1, 1) = 10.0;
  ml::KMeansConfig kconfig;
  kconfig.k = 2;
  ClusterTable table;
  table.assign(chrome(100), swapped_table ? 1 : 0);
  table.assign(firefox(100), swapped_table ? 0 : 1);
  return Polygraph::from_parts(
      config, ml::StandardScaler::from_params({0.0, 0.0}, {1.0, 1.0}),
      ml::Pca::from_params({0.0, 0.0}, {1.0, 1.0}, ml::Matrix::identity(2)),
      ml::KMeans::from_centroids(std::move(centroids), kconfig),
      std::move(table));
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t end = text.find('\n', start);
    if (end == std::string::npos) {
      lines.push_back(text.substr(start));
      break;
    }
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string out;
  for (const auto& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

// Strip the checksum footer so a mutation can be re-sealed with a valid
// checksum — that is how parser-level (post-checksum) errors are reached.
std::string payload_of(const std::string& text) {
  const std::size_t footer = text.rfind("\nchecksum ");
  return footer == std::string::npos ? text : text.substr(0, footer + 1);
}

TEST(ModelIntegrity, SerializedModelEndsWithChecksumFooter) {
  const std::string text = serialize_model(tiny_model());
  const auto lines = split_lines(text);
  ASSERT_FALSE(lines.empty());
  EXPECT_EQ(lines.back().rfind("checksum ", 0), 0u);
  // Re-sealing the intact file is a no-op.
  EXPECT_EQ(with_model_checksum(text), text);
}

TEST(ModelIntegrity, ChecksumCoversPayloadExactly) {
  const std::string text = serialize_model(tiny_model());
  const std::string payload = payload_of(text);
  const std::string resealed = with_model_checksum(payload);
  EXPECT_EQ(resealed, text);
  EXPECT_TRUE(deserialize_model(resealed).has_value());
}

// The tentpole's table-driven sweep: every line of the file, three
// corruptions each.  None may crash, none may yield a model.
TEST(ModelIntegrity, EveryLineTruncationBitFlipAndDeletionIsRejected) {
  const std::string text = serialize_model(tiny_model());
  const auto lines = split_lines(text);
  ASSERT_GT(lines.size(), 15u);

  for (std::size_t i = 0; i < lines.size(); ++i) {
    // (a) Truncate: keep only the first i lines (i == size would be the
    // intact file).
    if (i < lines.size()) {
      std::vector<std::string> prefix(lines.begin(), lines.begin() + i);
      const auto r = deserialize_model(join_lines(prefix));
      EXPECT_FALSE(r.has_value()) << "truncated after " << i << " lines";
    }

    // (b) Bit-flip: mutate one character of line i.
    {
      auto mutated = lines;
      ASSERT_FALSE(mutated[i].empty()) << "line " << i;
      char& c = mutated[i][mutated[i].size() / 2];
      c = (c == '#') ? '*' : '#';
      const auto r = deserialize_model(join_lines(mutated));
      ASSERT_FALSE(r.has_value()) << "bit-flip on line " << i + 1;
      // A payload mutation is caught by the checksum before the parser
      // ever sees it; mutating the footer itself breaks the footer.
      EXPECT_TRUE(r.error().code == LoadErrorCode::kChecksumMismatch ||
                  r.error().code == LoadErrorCode::kChecksumMissing)
          << "line " << i + 1 << ": " << r.error().message();
    }

    // (c) Delete line i entirely.
    {
      auto mutated = lines;
      mutated.erase(mutated.begin() + i);
      const auto r = deserialize_model(join_lines(mutated));
      EXPECT_FALSE(r.has_value()) << "deleted line " << i + 1;
    }
  }
}

// Re-sealed mutations bypass the checksum and must be caught by the
// structural parser with the right typed error and line number.
TEST(ModelIntegrity, ResealedBadHeaderIsTyped) {
  auto lines = split_lines(payload_of(serialize_model(tiny_model())));
  lines[0] = "browser-polygraph-model v9";
  const auto r = deserialize_model(with_model_checksum(join_lines(lines)));
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code, LoadErrorCode::kBadHeader);
  EXPECT_EQ(r.error().line, 1u);
  EXPECT_EQ(r.error().message(), "bad_header at line 1 (header)");
}

TEST(ModelIntegrity, ResealedTruncationInsideMatrixIsTyped) {
  const std::string payload = payload_of(serialize_model(tiny_model()));
  auto lines = split_lines(payload);
  // Find the pca_matrix header and cut one row into its body.
  std::size_t header = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].rfind("pca_matrix ", 0) == 0) header = i;
  }
  ASSERT_GT(header, 0u);
  lines.resize(header + 2);  // header + first of two rows
  const auto r = deserialize_model(with_model_checksum(join_lines(lines)));
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code, LoadErrorCode::kTruncated);
  EXPECT_EQ(r.error().section, "pca_matrix");
  EXPECT_EQ(r.error().line, header + 3);  // just past the last line present
}

TEST(ModelIntegrity, ResealedGarbageInVectorSectionIsTyped) {
  auto lines = split_lines(payload_of(serialize_model(tiny_model())));
  for (auto& line : lines) {
    if (line.rfind("scaler_means", 0) == 0) line = "scaler_means 0 nan-sense";
  }
  const auto r = deserialize_model(with_model_checksum(join_lines(lines)));
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code, LoadErrorCode::kBadSection);
  EXPECT_EQ(r.error().section, "scaler_means");
  EXPECT_GT(r.error().line, 1u);
}

TEST(ModelIntegrity, ResealedOutOfRangeClusterIdIsTyped) {
  auto lines = split_lines(payload_of(serialize_model(tiny_model())));
  // Table rows are "<vendor> <version> <cluster>" after the "table N"
  // line; point one at a cluster with no centroid.
  std::size_t table_header = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].rfind("table ", 0) == 0) table_header = i;
  }
  ASSERT_GT(table_header, 0u);
  lines[table_header + 1].back() = '9';
  const auto r = deserialize_model(with_model_checksum(join_lines(lines)));
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code, LoadErrorCode::kBadSection);
  EXPECT_EQ(r.error().section, "table");
}

TEST(ModelIntegrity, ResealedDimensionMismatchIsTyped) {
  // Claim k=3 while shipping 2 centroids: the cross-section check must
  // refuse rather than serve a model whose config lies about its shape.
  auto lines = split_lines(payload_of(serialize_model(tiny_model())));
  for (auto& line : lines) {
    if (line == "k 2") line = "k 3";
  }
  const auto r = deserialize_model(with_model_checksum(join_lines(lines)));
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code, LoadErrorCode::kBadSection);
  EXPECT_EQ(r.error().section, "centroids");
}

TEST(ModelIntegrity, MissingFooterIsTyped) {
  const auto r = deserialize_model(payload_of(serialize_model(tiny_model())));
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code, LoadErrorCode::kChecksumMissing);
}

TEST(ModelIntegrity, MissingFileIsTyped) {
  const auto r = load_model("/tmp/bp_no_such_model_file.model");
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code, LoadErrorCode::kFileMissing);
}

TEST(ModelIntegrity, AtomicSaveLeavesNoTmpFile) {
  const std::string path = "/tmp/bp_model_integrity_atomic.model";
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
  ASSERT_TRUE(save_model(tiny_model(), path));
  EXPECT_TRUE(load_model(path).has_value());
  std::string tmp_contents;
  EXPECT_FALSE(bp::util::read_file(path + ".tmp", tmp_contents));
  std::remove(path.c_str());
}

TEST(ModelIntegrity, TornWriteFaultIsCaughtByChecksumOnLoad) {
  auto& faults = bp::util::FaultRegistry::instance();
  faults.disarm_all();
  const std::string path = "/tmp/bp_model_integrity_torn.model";
  std::remove(path.c_str());

  faults.arm("model_io.torn_write", 1.0, 1);
  EXPECT_TRUE(save_model(tiny_model(), path));  // write was acked...
  faults.disarm_all();

  const auto r = load_model(path);  // ...but only half landed on disk
  ASSERT_FALSE(r.has_value());
  EXPECT_TRUE(r.error().code == LoadErrorCode::kChecksumMissing ||
              r.error().code == LoadErrorCode::kChecksumMismatch)
      << r.error().message();
  std::remove(path.c_str());
}

TEST(ModelIntegrity, WriteFaultFailsSaveCleanly) {
  auto& faults = bp::util::FaultRegistry::instance();
  faults.disarm_all();
  faults.arm("model_io.write", 1.0, 1);
  const std::string path = "/tmp/bp_model_integrity_wfail.model";
  std::remove(path.c_str());
  EXPECT_FALSE(save_model(tiny_model(), path));
  faults.disarm_all();
  std::string contents;
  EXPECT_FALSE(bp::util::read_file(path, contents));
}

// ------------------- registry fail-closed publishing -------------------

TEST(ModelIntegrity, PublishFromFileInstallsValidModel) {
  const std::string path = "/tmp/bp_model_integrity_pub.model";
  ASSERT_TRUE(save_model(tiny_model(), path));
  serve::ModelRegistry registry;
  const auto report = registry.publish_from_file(path);
  EXPECT_TRUE(report);
  EXPECT_EQ(report.version, 1u);
  EXPECT_FALSE(report.error.has_value());
  EXPECT_EQ(registry.version(), 1u);
  ASSERT_TRUE(registry.current());
  EXPECT_EQ(registry.publish_failures(), 0u);
  std::remove(path.c_str());
}

TEST(ModelIntegrity, CorruptFileNeverEvictsServingModelAndIsQuarantined) {
  const std::string path = "/tmp/bp_model_integrity_corrupt.model";
  serve::ModelRegistry registry;
  ASSERT_TRUE(save_model(tiny_model(/*swapped_table=*/false), path));
  ASSERT_TRUE(registry.publish_from_file(path));

  // Drop a corrupt candidate and try to publish it.
  std::string text = serialize_model(tiny_model(/*swapped_table=*/true));
  text.resize(text.size() / 2);
  ASSERT_TRUE(bp::util::write_file(path, text));
  const auto report = registry.publish_from_file(path);
  EXPECT_FALSE(report);
  ASSERT_TRUE(report.error.has_value());
  EXPECT_EQ(report.quarantined_to, path + ".quarantined");

  // Serving snapshot untouched; the bad file was moved aside so a retry
  // loop cannot trip over it again.
  EXPECT_EQ(registry.version(), 1u);
  ASSERT_TRUE(registry.current());
  EXPECT_EQ(registry.publish_failures(), 1u);
  EXPECT_EQ(registry.quarantined(), 1u);
  std::string moved;
  EXPECT_TRUE(bp::util::read_file(path + ".quarantined", moved));
  std::string original;
  EXPECT_FALSE(bp::util::read_file(path, original));
  std::remove((path + ".quarantined").c_str());
}

TEST(ModelIntegrity, MissingFileIsNotQuarantined) {
  serve::ModelRegistry registry;
  const auto report =
      registry.publish_from_file("/tmp/bp_no_such_candidate.model");
  EXPECT_FALSE(report);
  ASSERT_TRUE(report.error.has_value());
  EXPECT_EQ(report.error->code, LoadErrorCode::kFileMissing);
  EXPECT_TRUE(report.quarantined_to.empty());
  EXPECT_EQ(registry.quarantined(), 0u);
}

TEST(ModelIntegrity, RollbackRestoresPreviousSnapshotAsNewVersion) {
  serve::ModelRegistry registry;
  EXPECT_EQ(registry.rollback(), 0u);  // nothing to roll back to

  ASSERT_EQ(registry.publish(tiny_model(/*swapped_table=*/false)), 1u);
  ASSERT_EQ(registry.publish(tiny_model(/*swapped_table=*/true)), 2u);

  // v2 swaps the table: Chrome 100 at (0,0) is flagged.
  const std::vector<double> features{0.0, 0.0};
  EXPECT_TRUE(registry.current().model->score(features, chrome(100)).flagged);

  const std::uint64_t rolled = registry.rollback();
  EXPECT_EQ(rolled, 3u);  // monotonic: rollback is a new version
  EXPECT_EQ(registry.version(), 3u);
  EXPECT_FALSE(registry.current().model->score(features, chrome(100)).flagged);

  // Rolling back again returns to the v2 behaviour (previous of v3 = v2).
  EXPECT_EQ(registry.rollback(), 4u);
  EXPECT_TRUE(registry.current().model->score(features, chrome(100)).flagged);
}

TEST(ModelIntegrity, ValidationFaultRefusesPublish) {
  auto& faults = bp::util::FaultRegistry::instance();
  faults.disarm_all();
  const std::string path = "/tmp/bp_model_integrity_valfault.model";
  ASSERT_TRUE(save_model(tiny_model(), path));

  serve::ModelRegistry registry;
  faults.arm("registry.publish_validate", 1.0, 1);
  const auto report = registry.publish_from_file(path,
                                                 /*quarantine_on_failure=*/false);
  faults.disarm_all();
  EXPECT_FALSE(report);
  ASSERT_TRUE(report.error.has_value());
  EXPECT_EQ(report.error->code, LoadErrorCode::kInjectedFault);
  EXPECT_EQ(registry.version(), 0u);
  // quarantine_on_failure=false left the candidate in place for triage.
  EXPECT_TRUE(report.quarantined_to.empty());
  EXPECT_TRUE(load_model(path).has_value());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bp::core
