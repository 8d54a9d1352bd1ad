// Parity oracles for the table-driven verdict path.
//
// The dense Algorithm-1 tables (expected cluster per (vendor, major),
// risk per (vendor, major, cluster)) must answer exactly what the
// ClusterTable map lookup and Algorithm 1's per-cluster loop answer,
// including for majors and vendors outside the tables; the one scoring
// kernel must equal the row-at-a-time scaler -> PCA -> nearest-centroid
// pipeline bit for bit; and the split-free claimed-UA parse must equal
// the split-based label parse and the header parse, on benign, random
// and hostile headers, without allocating.  The
// references below are copies of the replaced code, kept here so they
// cannot drift with it.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <charconv>
#include <climits>
#include <cstdlib>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "browser/release_db.h"
#include "core/polygraph.h"
#include "obs/prof/prof.h"
#include "ua/user_agent.h"
#include "util/strings.h"
#include "wire_load.h"

namespace bp::core {
namespace {

// ---------------------------------------------------------- references

std::optional<std::size_t> reference_expected(const ClusterTable& table,
                                              const ua::UserAgent& ua) {
  const auto it = table.entries().find(ua.key());
  if (it == table.entries().end()) return std::nullopt;
  return it->second;
}

int reference_risk(const Polygraph& model, const ua::UserAgent& session_ua,
                   std::size_t cluster) {
  int risk = INT_MAX;
  for (const ua::UserAgent& ua :
       model.cluster_table().user_agents_in(cluster)) {
    int distance = 0;
    if (!ua::same_vendor(session_ua.vendor, ua.vendor)) {
      distance = model.config().vendor_distance;
    } else {
      const std::int64_t diff = std::abs(
          std::int64_t{session_ua.major_version} - ua.major_version);
      distance = static_cast<int>(std::min<std::int64_t>(
          diff / model.config().version_divisor, INT_MAX));
    }
    risk = std::min(risk, distance);
  }
  return risk == INT_MAX ? model.config().vendor_distance : risk;
}

// scaler.transform_row -> pca.transform_row -> kmeans.predict_one, then
// the map lookup and the loop.
Detection reference_score(const Polygraph& model,
                          std::span<const std::int32_t> row,
                          const ua::UserAgent& claimed) {
  const std::vector<double> raw(row.begin(), row.end());
  std::vector<double> scaled(raw.size());
  std::vector<double> projected(model.pca().n_components());
  model.scaler().transform_row(raw, scaled);
  model.pca().transform_row(scaled, projected);
  Detection d;
  d.predicted_cluster =
      model.kmeans().predict_one(projected, &d.centroid_distance2);
  d.expected_cluster = reference_expected(model.cluster_table(), claimed);
  if (d.expected_cluster && *d.expected_cluster != d.predicted_cluster) {
    d.flagged = true;
    d.risk_factor = reference_risk(model, claimed, d.predicted_cluster);
  }
  return d;
}

void expect_same(const Detection& got, const Detection& want,
                 const std::string& what) {
  EXPECT_EQ(got.predicted_cluster, want.predicted_cluster) << what;
  EXPECT_EQ(got.expected_cluster, want.expected_cluster) << what;
  EXPECT_EQ(got.flagged, want.flagged) << what;
  EXPECT_EQ(got.risk_factor, want.risk_factor) << what;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.centroid_distance2),
            std::bit_cast<std::uint64_t>(want.centroid_distance2))
      << what;
}

std::optional<ua::UserAgent> reference_label(std::string_view label) {
  const auto parts = util::split(util::trim(label), ' ');
  if (parts.size() != 2) return std::nullopt;
  const auto version = util::parse_int(parts[1]);
  if (!version || *version <= 0) return std::nullopt;
  ua::UserAgent out;
  out.major_version = static_cast<int>(*version);
  if (util::iequals(parts[0], "Chrome")) {
    out.vendor = ua::Vendor::kChrome;
  } else if (util::iequals(parts[0], "Firefox")) {
    out.vendor = ua::Vendor::kFirefox;
  } else if (util::iequals(parts[0], "Edge")) {
    out.vendor = out.major_version < 20 ? ua::Vendor::kEdgeLegacy
                                        : ua::Vendor::kEdge;
  } else if (util::iequals(parts[0], "Safari")) {
    out.vendor = ua::Vendor::kSafari;
  } else {
    return std::nullopt;
  }
  return out;
}

int reference_version_after(std::string_view header, std::string_view token) {
  const std::size_t pos = header.find(token);
  if (pos == std::string_view::npos) return 0;
  std::uint32_t value = 0;
  bool any = false;
  for (std::size_t i = pos + token.size();
       i < header.size() && header[i] >= '0' && header[i] <= '9'; ++i) {
    value = value * 10 + static_cast<std::uint32_t>(header[i] - '0');
    any = true;
  }
  return any ? static_cast<int>(value) : 0;
}

ua::UserAgent reference_header(std::string_view header) {
  const auto has = [&](std::string_view token) {
    return header.find(token) != std::string_view::npos;
  };
  ua::UserAgent out;
  if (has("Windows NT")) {
    out.os = ua::Os::kWindows10;
  } else if (has("Mac OS X")) {
    out.os = ua::Os::kMacSonoma;
  } else if (has("Linux")) {
    out.os = ua::Os::kLinux;
  }
  const auto set = [&](ua::Vendor vendor, std::string_view token) {
    out.vendor = vendor;
    out.major_version = reference_version_after(header, token);
  };
  if (has("Edg/")) {
    set(ua::Vendor::kEdge, "Edg/");
  } else if (has("Edge/")) {
    set(ua::Vendor::kEdgeLegacy, "Edge/");
  } else if (has("Firefox/")) {
    set(ua::Vendor::kFirefox, "Firefox/");
  } else if (has("Chrome/")) {
    set(ua::Vendor::kChrome, "Chrome/");
  } else if (has("Safari/") && has("Version/")) {
    set(ua::Vendor::kSafari, "Version/");
  }
  return out;
}

ua::UserAgent reference_claimed(std::string_view claimed) {
  if (const auto label = reference_label(claimed)) return *label;
  return reference_header(claimed);
}

// ------------------------------------------------------------- models

const Polygraph& production_model() {
  static const Polygraph* model =
      new Polygraph(wire_load::train_production_model(8'000));
  return *model;
}

// Four clusters on a plane with identity scaler and PCA, so a row equal
// to a centroid predicts that cluster.  Cluster 2 holds no UA (a noise
// cluster); the table also holds majors the dense tables do not cover,
// a negative major and a kUnknown vendor.
Polygraph noise_cluster_model() {
  PolygraphConfig config;
  config.feature_indices = {0, 1};
  config.pca_components = 2;
  config.k = 4;
  ml::Matrix centroids(4, 2);
  for (std::size_t c = 0; c < 4; ++c) centroids(c, 0) = 100.0 * c;
  ml::KMeansConfig kconfig;
  kconfig.k = 4;
  ClusterTable table;
  table.assign({ua::Vendor::kChrome, 100}, 0);
  table.assign({ua::Vendor::kChrome, 112}, 0);
  table.assign({ua::Vendor::kFirefox, 90}, 1);
  table.assign({ua::Vendor::kEdgeLegacy, 17}, 1);
  table.assign({ua::Vendor::kUnknown, 5}, 1);
  table.assign({ua::Vendor::kEdge, 110}, 3);
  table.assign({ua::Vendor::kChrome, 300}, 3);
  table.assign({ua::Vendor::kSafari, -1}, 3);
  return Polygraph::from_parts(
      config, ml::StandardScaler::from_params({0.0, 0.0}, {1.0, 1.0}),
      ml::Pca::from_params({0.0, 0.0}, {1.0, 1.0}, ml::Matrix::identity(2)),
      ml::KMeans::from_centroids(std::move(centroids), kconfig),
      std::move(table));
}

// Every vendor, every covered major and a few past the table's edge,
// and the majors whose 16-bit key aliases another's.
std::vector<ua::UserAgent> probe_user_agents() {
  std::vector<int> majors = {-1, 65535, 65536 + 112, INT_MIN, INT_MAX};
  for (int m = 0; m <= static_cast<int>(Polygraph::kTableMajors) + 3; ++m) {
    majors.push_back(m);
  }
  std::vector<ua::UserAgent> out;
  for (std::size_t v = 0; v < Polygraph::kTableVendors; ++v) {
    for (int major : majors) {
      out.push_back({static_cast<ua::Vendor>(v), major});
    }
  }
  return out;
}

void expect_tables_match_algorithm1(const Polygraph& model,
                                    std::span<const std::vector<std::int32_t>>
                                        rows) {
  const std::size_t k = model.kmeans().centroids().rows();
  BatchScratch scratch;
  std::size_t checked = 0;
  for (const ua::UserAgent& ua : probe_user_agents()) {
    const std::string what = std::to_string(static_cast<int>(ua.vendor)) +
                             "/" + std::to_string(ua.major_version);
    for (std::size_t c = 0; c < k + 2; ++c) {
      ASSERT_EQ(model.risk_factor(ua, c), reference_risk(model, ua, c))
          << what << " cluster " << c;
      ++checked;
    }
    for (const auto& row : rows) {
      expect_same(model.score(std::span<const std::int32_t>(row), ua, scratch),
                  reference_score(model, row, ua), what);
    }
  }
  EXPECT_EQ(checked, probe_user_agents().size() * (k + 2));
}

// ------------------------------------------------------------- tables

TEST(VerdictTables, DenseTailMatchesAlgorithmOneOnTheProductionModel) {
  const Polygraph& model = production_model();
  // One session per predicted cluster the live traffic reaches, so the
  // tail runs against every populated cluster.
  std::vector<std::vector<std::int32_t>> rows;
  std::vector<bool> seen(model.kmeans().centroids().rows(), false);
  for (const auto& session : wire_load::session_pool(model, 2'000, 0x7AB1E)) {
    const std::size_t c = model.predict_cluster(std::vector<double>(
        session.features.begin(), session.features.end()));
    if (!seen[c]) {
      seen[c] = true;
      rows.push_back(session.features);
    }
  }
  ASSERT_GE(rows.size(), 3u);
  expect_tables_match_algorithm1(model, rows);
}

TEST(VerdictTables, DenseTailMatchesAlgorithmOneWithANoiseCluster) {
  const Polygraph model = noise_cluster_model();
  ASSERT_TRUE(model.cluster_table().user_agents_in(2).empty());
  std::vector<std::vector<std::int32_t>> rows;
  for (std::int32_t c = 0; c < 4; ++c) rows.push_back({100 * c, 0});
  expect_tables_match_algorithm1(model, rows);
  // The noise cluster answers the vendor distance, a flagged session
  // landing there included.
  BatchScratch scratch;
  const Detection noise =
      model.score(std::span<const std::int32_t>(rows[2]),
                  ua::UserAgent{ua::Vendor::kChrome, 100}, scratch);
  EXPECT_TRUE(noise.flagged);
  EXPECT_EQ(noise.risk_factor, model.config().vendor_distance);
}

TEST(VerdictTables, ScoreMatchesTheRowAtATimePipeline) {
  const Polygraph& model = production_model();
  const auto pool = wire_load::session_pool(model, 3'000, 0x5C0AE);
  std::mt19937_64 rng(11);
  std::uniform_int_distribution<std::int32_t> wild(INT_MIN, INT_MAX);
  BatchScratch scratch;
  std::size_t i = 0;
  for (const auto& session : pool) {
    std::vector<std::int32_t> row = session.features;
    if (i % 5 == 4) {
      for (auto& v : row) v = i % 10 == 4 ? wild(rng) : v + wild(rng) % 7;
    }
    const std::string what = "row " + std::to_string(i++);
    expect_same(model.score(std::span<const std::int32_t>(row),
                            session.claimed, scratch),
                reference_score(model, row, session.claimed), what);
    double d2 = 0.0;
    EXPECT_EQ(model.predict_cluster(std::vector<double>(row.begin(), row.end()),
                                    scratch, &d2),
              reference_score(model, row, session.claimed).predicted_cluster)
        << what;
  }
}

// ------------------------------------------------------------ UA parse

// Benign headers of every release, their label forms, and seeded
// random and hostile variants: long headers, double spaces, '|',
// non-ASCII bytes, signs, huge and zero-padded versions, every
// whitespace byte, and many distinct near-identical claims.
std::vector<std::string> claimed_inputs(std::size_t n) {
  std::vector<std::string> base;
  for (const auto& release : browser::ReleaseDatabase::instance().releases()) {
    for (ua::Os os : {ua::Os::kWindows10, ua::Os::kMacSonoma, ua::Os::kLinux}) {
      base.push_back(ua::format_user_agent(release.user_agent(os)));
    }
    base.push_back(release.label());
  }
  const std::vector<std::string> names = {"Chrome", "chrome", "FIREFOX",
                                          "Edge",   "edge",   "Safari",
                                          "Opera",  "",       "Chrome/"};
  const std::vector<std::string> numbers = {
      "112", "0", "-5", "+5", "007", "19", "20", "4294967408",
      "9223372036854775807", "9223372036854775808", "1e3", "", " 12"};
  const std::string whitespace = " \t\n\v\f\r";
  const std::vector<std::string> tokens = {"Edg/", "Edge/", "Firefox/",
                                           "Chrome/", "Safari/", "Version/",
                                           "Windows NT", "Mac OS X", "Linux"};
  std::mt19937_64 rng(0xC1A1);
  const auto pick = [&](const auto& from) -> const auto& {
    return from[rng() % from.size()];
  };
  std::vector<std::string> out;
  out.reserve(n);
  while (out.size() < n) {
    std::string s;
    switch (rng() % 7) {
      case 0:
        s = pick(base);
        break;
      case 1:  // a label, with stray whitespace
        s = pick(names) + std::string(1 + rng() % 2, ' ') + pick(numbers);
        if (rng() % 3 == 0) s.insert(0, 1, pick(whitespace));
        if (rng() % 3 == 0) s.push_back(pick(whitespace));
        break;
      case 2: {  // a real header, mutated
        s = pick(base);
        for (int m = 0, edits = 1 + static_cast<int>(rng() % 4); m < edits;
             ++m) {
          const std::size_t at = s.empty() ? 0 : rng() % s.size();
          switch (rng() % 5) {
            case 0: s.insert(at, 1, '|'); break;
            case 1: s.insert(at, 1, static_cast<char>(0x80 + rng() % 128)); break;
            case 2: s.insert(at, "  "); break;
            case 3: s.insert(at, pick(tokens) + std::to_string(rng() % 100000)); break;
            default: if (!s.empty()) s[at] = static_cast<char>(rng() % 256); break;
          }
        }
        break;
      }
      case 3: {  // long headers, up to 8 KB
        s = pick(base);
        const std::size_t target =
            191 + rng() % (rng() % 4 == 0 ? 8000 : 4);
        while (s.size() < target) s += s;
        s.resize(target);
        break;
      }
      case 4: {  // random bytes
        s.resize(rng() % 300);
        for (char& c : s) c = static_cast<char>(rng() % 256);
        break;
      }
      case 5: {  // distinct, near-identical claims
        s = pick(base);
        s += ' ';
        s += std::to_string(out.size());
        break;
      }
      default:
        s = pick(tokens) + pick(numbers) + " " + pick(tokens) + pick(numbers);
        break;
    }
    out.push_back(std::move(s));
  }
  return out;
}

TEST(VerdictTables, ClaimedUaParseMatchesTheSplitAndHeaderReferences) {
  const std::vector<std::string> inputs = claimed_inputs(100'000);
  for (const std::string& claimed : inputs) {
    ASSERT_EQ(ua::parse_claimed(claimed), reference_claimed(claimed))
        << "claimed '" << claimed << "'";
    ASSERT_EQ(ua::parse_label(claimed), reference_label(claimed))
        << "label '" << claimed << "'";
  }
}

// Engine workers and handler threads read one model's dense tables at
// once.
TEST(VerdictTables, ConcurrentReadersAgreeWithTheReferences) {
  const Polygraph& model = production_model();
  const auto pool = wire_load::session_pool(model, 400, 0xC0C0);
  const std::vector<std::string> claims = claimed_inputs(2'000);
  std::vector<std::thread> readers;
  std::atomic<std::size_t> mismatches{0};
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      BatchScratch scratch;
      for (std::size_t i = 0; i < claims.size(); ++i) {
        const std::string& claim = claims[(i * 7 + t) % claims.size()];
        const ua::UserAgent claimed = ua::parse_claimed(claim);
        const auto& row = pool[(i + t) % pool.size()].features;
        const Detection got =
            model.score(std::span<const std::int32_t>(row), claimed, scratch);
        const Detection want = reference_score(model, row, claimed);
        if (!(claimed == reference_claimed(claim)) ||
            got.expected_cluster != want.expected_cluster ||
            got.flagged != want.flagged ||
            got.risk_factor != want.risk_factor) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

TEST(VerdictTables, ClaimedUaParseAllocatesNothingOnDistinctClaims) {
  if (!obs::prof::alloc_hook_linked()) {
    GTEST_SKIP() << "bp_prof_alloc not linked into this binary "
                    "(sanitizer build compiles the hook out)";
  }
  // A million distinct claims, rendered into one stack buffer so the
  // loop itself allocates nothing.
  char buffer[256];
  const std::string_view prefix =
      "Mozilla/5.0 (X11; Linux x86_64) Gecko/20100101 Firefox/";
  std::copy(prefix.begin(), prefix.end(), buffer);
  const auto claim = [&](std::uint64_t i) {
    char* const end =
        std::to_chars(buffer + prefix.size(), buffer + sizeof(buffer), i).ptr;
    return std::string_view(buffer, static_cast<std::size_t>(end - buffer));
  };
  EXPECT_EQ(ua::parse_claimed(claim(1)).vendor, ua::Vendor::kFirefox);
  std::uint64_t versions = 0;
  const obs::prof::AllocCounts before = obs::prof::alloc_counts();
  obs::prof::set_alloc_counting(true);
  for (std::uint64_t i = 0; i < 1'000'000; ++i) {
    versions += static_cast<std::uint64_t>(
        ua::parse_claimed(claim(i * 7919 + 13)).major_version != 0);
  }
  obs::prof::set_alloc_counting(false);
  const obs::prof::AllocCounts after = obs::prof::alloc_counts();
  EXPECT_EQ(after.allocations - before.allocations, 0u);
  EXPECT_GT(versions, 0u);
}

}  // namespace
}  // namespace bp::core
