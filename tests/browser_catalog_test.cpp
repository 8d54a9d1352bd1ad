// Tests for the feature catalog and release database (§6.1 metadata).
#include <gtest/gtest.h>

#include <set>

#include "browser/feature_catalog.h"
#include "browser/release_db.h"

namespace bp::browser {
namespace {

TEST(Catalog, Has513Candidates) {
  EXPECT_EQ(FeatureCatalog::instance().candidate_count(), 513u);
}

TEST(Catalog, Has28FinalFeatures) {
  EXPECT_EQ(FeatureCatalog::instance().final_count(), 28u);
}

TEST(Catalog, First200AreDeviationBased) {
  const auto& catalog = FeatureCatalog::instance();
  for (std::size_t i = 0; i < 200; ++i) {
    EXPECT_EQ(catalog.spec(i).kind, FeatureKind::kDeviationBased) << i;
  }
  for (std::size_t i = 200; i < 513; ++i) {
    EXPECT_EQ(catalog.spec(i).kind, FeatureKind::kTimeBased) << i;
  }
}

TEST(Catalog, FinalSetIs22Plus6) {
  const auto& catalog = FeatureCatalog::instance();
  std::size_t deviation = 0;
  std::size_t time_based = 0;
  for (std::size_t idx : catalog.final_indices()) {
    if (catalog.spec(idx).kind == FeatureKind::kDeviationBased) {
      ++deviation;
    } else {
      ++time_based;
    }
  }
  EXPECT_EQ(deviation, 22u);
  EXPECT_EQ(time_based, 6u);
}

TEST(Catalog, Table8OrderStartsWithElement) {
  const auto& catalog = FeatureCatalog::instance();
  EXPECT_EQ(catalog.spec(catalog.final_indices()[0]).name,
            "Object.getOwnPropertyNames(Element.prototype).length");
  EXPECT_EQ(catalog.spec(catalog.final_indices()[22]).name,
            "Navigator.prototype.hasOwnProperty('deviceMemory')");
}

TEST(Catalog, NamesAreUnique) {
  const auto& catalog = FeatureCatalog::instance();
  std::set<std::string> names;
  for (std::size_t i = 0; i < catalog.candidate_count(); ++i) {
    EXPECT_TRUE(names.insert(catalog.spec(i).name).second)
        << "duplicate: " << catalog.spec(i).name;
  }
}

TEST(Catalog, IndexOfFindsExactNames) {
  const auto& catalog = FeatureCatalog::instance();
  EXPECT_EQ(catalog.index_of(
                "Object.getOwnPropertyNames(Element.prototype).length"),
            0u);
  EXPECT_EQ(catalog.index_of("nope"), FeatureCatalog::npos);
}

TEST(Catalog, InterfaceOfParsesDeviationNames) {
  EXPECT_EQ(FeatureCatalog::interface_of(
                "Object.getOwnPropertyNames(ShadowRoot.prototype).length"),
            "ShadowRoot");
  EXPECT_EQ(FeatureCatalog::interface_of(
                "Navigator.prototype.hasOwnProperty('deviceMemory')"),
            "");
  EXPECT_EQ(FeatureCatalog::interface_of(""), "");
}

TEST(Catalog, ConfigSensitiveIncludesServiceWorkers) {
  const auto& catalog = FeatureCatalog::instance();
  bool found = false;
  for (std::size_t idx : catalog.config_sensitive_indices()) {
    if (catalog.spec(idx).name ==
        "Object.getOwnPropertyNames(ServiceWorkerContainer.prototype).length") {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Catalog, ConfigSensitiveNeverOverlapsFinalSet) {
  const auto& catalog = FeatureCatalog::instance();
  std::set<std::size_t> finals(catalog.final_indices().begin(),
                               catalog.final_indices().end());
  for (std::size_t idx : catalog.config_sensitive_indices()) {
    EXPECT_EQ(finals.count(idx), 0u) << catalog.spec(idx).name;
  }
}

TEST(Catalog, Appendix4ExtensionSteps) {
  const auto& catalog = FeatureCatalog::instance();
  EXPECT_TRUE(catalog.appendix4_extension(28).empty());
  EXPECT_EQ(catalog.appendix4_extension(32).size(), 4u);
  EXPECT_EQ(catalog.appendix4_extension(36).size(), 8u);
  EXPECT_EQ(catalog.appendix4_extension(42).size(), 14u);
  // First addition is HTMLIFrameElement (Table 12).
  EXPECT_EQ(catalog.spec(catalog.appendix4_extension(32)[0]).name,
            "Object.getOwnPropertyNames(HTMLIFrameElement.prototype).length");
}

// ------------------------- release database -------------------------

TEST(ReleaseDb, CoversStudyWindow) {
  const auto& db = ReleaseDatabase::instance();
  EXPECT_NE(db.find(ua::Vendor::kChrome, 59), nullptr);
  EXPECT_NE(db.find(ua::Vendor::kChrome, 119), nullptr);
  EXPECT_NE(db.find(ua::Vendor::kFirefox, 46), nullptr);
  EXPECT_NE(db.find(ua::Vendor::kFirefox, 119), nullptr);
  EXPECT_NE(db.find(ua::Vendor::kEdgeLegacy, 17), nullptr);
  EXPECT_NE(db.find(ua::Vendor::kEdge, 79), nullptr);
  EXPECT_EQ(db.find(ua::Vendor::kChrome, 58), nullptr);
  EXPECT_EQ(db.find(ua::Vendor::kEdge, 78), nullptr);
}

TEST(ReleaseDb, EdgeLookupToleratesLegacyVersions) {
  const auto* edge17 = ReleaseDatabase::instance().find(ua::Vendor::kEdge, 17);
  ASSERT_NE(edge17, nullptr);
  EXPECT_EQ(edge17->engine, Engine::kEdgeHtml);
}

TEST(ReleaseDb, DatesIncreaseWithVersion) {
  const auto& db = ReleaseDatabase::instance();
  for (const ua::Vendor vendor :
       {ua::Vendor::kChrome, ua::Vendor::kFirefox, ua::Vendor::kEdge}) {
    const BrowserRelease* prev = nullptr;
    for (const auto& r : db.releases()) {
      if (r.vendor != vendor) continue;
      if (prev != nullptr) {
        EXPECT_LT(prev->release_date, r.release_date) << r.label();
      }
      prev = &r;
    }
  }
}

TEST(ReleaseDb, KnownAnchors) {
  const auto& db = ReleaseDatabase::instance();
  EXPECT_EQ(db.find(ua::Vendor::kChrome, 114)->release_date.to_string(),
            "2023-05-30");
  EXPECT_EQ(db.find(ua::Vendor::kFirefox, 115)->release_date.to_string(),
            "2023-07-04");
}

TEST(ReleaseDb, EdgeTracksChromeWithLag) {
  const auto& db = ReleaseDatabase::instance();
  for (int v : {100, 110, 114}) {
    const int lag = db.find(ua::Vendor::kEdge, v)->release_date -
                    db.find(ua::Vendor::kChrome, v)->release_date;
    EXPECT_EQ(lag, 7) << "Edge " << v;
  }
}

TEST(ReleaseDb, LatestPicksNewestAvailable) {
  const auto& db = ReleaseDatabase::instance();
  const auto* latest =
      db.latest(ua::Vendor::kChrome, bp::util::Date::from_ymd(2023, 6, 15));
  ASSERT_NE(latest, nullptr);
  EXPECT_EQ(latest->version, 114);
  EXPECT_EQ(db.latest(ua::Vendor::kChrome, bp::util::Date::from_ymd(2016, 1, 1)),
            nullptr);
}

TEST(ReleaseDb, EnginesMatchLineage) {
  const auto& db = ReleaseDatabase::instance();
  EXPECT_EQ(db.find(ua::Vendor::kChrome, 100)->engine, Engine::kBlink);
  EXPECT_EQ(db.find(ua::Vendor::kEdge, 100)->engine, Engine::kBlink);
  EXPECT_EQ(db.find(ua::Vendor::kFirefox, 100)->engine, Engine::kGecko);
  EXPECT_EQ(db.find(ua::Vendor::kEdgeLegacy, 18)->engine, Engine::kEdgeHtml);
}

}  // namespace
}  // namespace bp::browser
