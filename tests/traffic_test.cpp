// Tests for the synthetic web-scale traffic generator and the dataset
// container.
#include <gtest/gtest.h>

#include <set>

#include "traffic/session_generator.h"
#include "util/parallel.h"

namespace bp::traffic {
namespace {

TrafficConfig small_config(std::size_t n = 5'000, std::uint64_t seed = 1) {
  TrafficConfig config;
  config.n_sessions = n;
  config.seed = seed;
  return config;
}

TEST(Generator, ProducesRequestedCount) {
  SessionGenerator gen(small_config(1'000));
  const Dataset data = gen.generate(experiment_feature_indices());
  EXPECT_EQ(data.size(), 1'000u);
}

TEST(Generator, DeterministicGivenSeed) {
  SessionGenerator a(small_config(500, 7));
  SessionGenerator b(small_config(500, 7));
  const Dataset da = a.generate(experiment_feature_indices());
  const Dataset db = b.generate(experiment_feature_indices());
  for (std::size_t i = 0; i < da.size(); ++i) {
    EXPECT_EQ(da.records()[i].session_id, db.records()[i].session_id);
    EXPECT_EQ(da.records()[i].features, db.records()[i].features);
    EXPECT_EQ(da.records()[i].user_agent, db.records()[i].user_agent);
  }
}

TEST(Generator, DifferentSeedsDiffer) {
  SessionGenerator a(small_config(100, 1));
  SessionGenerator b(small_config(100, 2));
  EXPECT_NE(a.generate(experiment_feature_indices()).records()[0].session_id,
            b.generate(experiment_feature_indices()).records()[0].session_id);
}

TEST(Generator, SessionIdsAreUniqueAndOpaque) {
  SessionGenerator gen(small_config(2'000));
  const Dataset data = gen.generate(experiment_feature_indices());
  std::set<std::string> ids;
  for (const auto& r : data.records()) {
    EXPECT_EQ(r.session_id.size(), 16u);
    EXPECT_TRUE(ids.insert(r.session_id).second);
  }
}

TEST(Generator, DatesWithinWindow) {
  SessionGenerator gen(small_config(2'000));
  const Dataset data = gen.generate(experiment_feature_indices());
  for (const auto& r : data.records()) {
    EXPECT_GE(r.date, gen.config().start_date);
    EXPECT_LE(r.date, gen.config().end_date);
  }
}

TEST(Generator, ClaimedUaNeverPredatesItsRelease) {
  SessionGenerator gen(small_config(5'000));
  const Dataset data = gen.generate(experiment_feature_indices());
  const auto& db = browser::ReleaseDatabase::instance();
  for (const auto& r : data.records()) {
    const auto* release = db.find(r.claimed);
    ASSERT_NE(release, nullptr) << r.user_agent;
    EXPECT_LE(release->release_date, r.date) << r.user_agent;
  }
}

TEST(Generator, TagRatesNearConfiguredBase) {
  SessionGenerator gen(small_config(20'000));
  const Dataset data = gen.generate(experiment_feature_indices());
  std::size_t ip = 0;
  std::size_t cookie = 0;
  std::size_t ato = 0;
  for (const auto& r : data.records()) {
    ip += r.untrusted_ip ? 1 : 0;
    cookie += r.untrusted_cookie ? 1 : 0;
    ato += r.ato ? 1 : 0;
  }
  const double n = static_cast<double>(data.size());
  EXPECT_NEAR(ip / n, 0.51, 0.02);
  EXPECT_NEAR(cookie / n, 0.49, 0.02);
  EXPECT_NEAR(ato / n, 0.0043, 0.002);
}

TEST(Generator, FraudShareNearConfigured) {
  SessionGenerator gen(small_config(40'000));
  const Dataset data = gen.generate(experiment_feature_indices());
  std::size_t fraud = 0;
  for (const auto& r : data.records()) {
    fraud += r.kind == SessionKind::kFraudBrowser ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(fraud) / 40'000.0, gen.config().p_fraud,
              0.0015);
}

TEST(Generator, FraudToolsRespectReleaseDates) {
  // Tools released after the training window (Octo 1.10, Sphere 1.3,
  // GoLogin 3.3.23) must not appear in training traffic.
  SessionGenerator gen(small_config(40'000));
  const Dataset data = gen.generate(experiment_feature_indices());
  for (const auto& r : data.records()) {
    if (r.kind != SessionKind::kFraudBrowser) continue;
    EXPECT_NE(r.origin, "Octo Browser-1.10");
    EXPECT_NE(r.origin, "Sphere-1.3");
    EXPECT_NE(r.origin, "GoLogin-3.3.23");
  }
}

TEST(Generator, StragglersKeepOldReleasesAlive) {
  SessionGenerator gen(small_config(40'000));
  const Dataset data = gen.generate(experiment_feature_indices());
  std::size_t old_chrome = 0;
  for (const auto& r : data.records()) {
    if (r.claimed.vendor == ua::Vendor::kChrome &&
        r.claimed.major_version <= 81) {
      ++old_chrome;
    }
  }
  // Present but rare — the paper saw <100 rows for Chrome 81-class UAs
  // in 205k; scaled to 40k that is a handful to a few hundred in total
  // across the 23 old versions.
  EXPECT_GT(old_chrome, 10u);
  EXPECT_LT(old_chrome, 1'500u);
}

TEST(Generator, PrivacyBrowsersPresentUpstreamUas) {
  TrafficConfig config = small_config(30'000);
  config.p_tor = 0.01;  // enough Tor rows to assert on
  SessionGenerator gen(config);
  const Dataset data = gen.generate(experiment_feature_indices());
  std::size_t tor = 0;
  for (const auto& r : data.records()) {
    if (r.kind != SessionKind::kPrivacyBrowser) continue;
    if (r.origin.find("Tor") != std::string::npos) {
      ++tor;
      EXPECT_EQ(r.claimed.vendor, ua::Vendor::kFirefox);
      EXPECT_EQ(r.claimed.major_version, 102);
    } else {
      EXPECT_EQ(r.claimed.vendor, ua::Vendor::kChrome);
    }
  }
  EXPECT_GT(tor, 100u);
}

TEST(Generator, StreamingMatchesBatch) {
  SessionGenerator a(small_config(50, 3));
  SessionGenerator b(small_config(50, 3));
  const auto indices = experiment_feature_indices();
  const Dataset batch = a.generate(indices);
  for (std::size_t i = 0; i < 50; ++i) {
    const SessionRecord r = b.next_session(indices);
    EXPECT_EQ(r.session_id, batch.records()[i].session_id);
  }
}

// generate() shards sessions across util::parallel_for lanes, and every
// lane's first sighting of a release fills extractor.cpp's memo of
// baseline candidate values.  Run on a cold memo (each test is its own
// process under ctest), so the lanes race to fill it — the TSan pass
// covers this suite — and the result must equal a single-lane run.
TEST(Generator, MultiThreadPoolMatchesSingleThread) {
  struct RestorePool {
    ~RestorePool() { util::set_parallel_threads(0); }
  } restore;
  const auto indices = experiment_feature_indices();
  util::set_parallel_threads(8);
  const Dataset parallel = SessionGenerator(small_config(6'000, 5)).generate(indices);
  util::set_parallel_threads(1);
  const Dataset serial = SessionGenerator(small_config(6'000, 5)).generate(indices);
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const SessionRecord& p = parallel.records()[i];
    const SessionRecord& s = serial.records()[i];
    ASSERT_EQ(p.session_id, s.session_id) << "row " << i;
    ASSERT_EQ(p.date, s.date) << "row " << i;
    ASSERT_EQ(p.user_agent, s.user_agent) << "row " << i;
    ASSERT_EQ(p.claimed, s.claimed) << "row " << i;
    ASSERT_EQ(p.features, s.features) << "row " << i;
    ASSERT_EQ(p.untrusted_ip, s.untrusted_ip) << "row " << i;
    ASSERT_EQ(p.untrusted_cookie, s.untrusted_cookie) << "row " << i;
    ASSERT_EQ(p.ato, s.ato) << "row " << i;
    ASSERT_EQ(p.kind, s.kind) << "row " << i;
    ASSERT_EQ(p.origin, s.origin) << "row " << i;
  }
}

// ------------------------- dataset container -------------------------

TEST(Dataset, FeatureMatrixSelectsStoredSubset) {
  SessionGenerator gen(small_config(200));
  const Dataset data = gen.generate(experiment_feature_indices());
  const auto& finals = browser::FeatureCatalog::instance().final_indices();
  const ml::Matrix m = data.feature_matrix(finals);
  EXPECT_EQ(m.rows(), 200u);
  EXPECT_EQ(m.cols(), 28u);
}

TEST(Dataset, UaKeysMatchRecords) {
  SessionGenerator gen(small_config(100));
  const Dataset data = gen.generate(experiment_feature_indices());
  const auto keys = data.ua_keys();
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(keys[i], data.records()[i].claimed.key());
  }
}

TEST(Dataset, SliceFiltersByDate) {
  SessionGenerator gen(small_config(2'000));
  const Dataset data = gen.generate(experiment_feature_indices());
  const auto mid = bp::util::Date::from_ymd(2023, 5, 1);
  const Dataset early = data.slice(gen.config().start_date, mid);
  const Dataset late = data.slice(mid + 1, gen.config().end_date);
  EXPECT_EQ(early.size() + late.size(), data.size());
  for (const auto& r : early.records()) EXPECT_LE(r.date, mid);
}

TEST(Dataset, CsvRoundTrip) {
  SessionGenerator gen(small_config(60));
  const Dataset data = gen.generate(experiment_feature_indices());
  const Dataset parsed = Dataset::from_csv_table(data.to_csv_table());
  ASSERT_EQ(parsed.size(), data.size());
  EXPECT_EQ(parsed.stored_indices(), data.stored_indices());
  for (std::size_t i = 0; i < data.size(); ++i) {
    const auto& a = data.records()[i];
    const auto& b = parsed.records()[i];
    EXPECT_EQ(a.session_id, b.session_id);
    EXPECT_EQ(a.date, b.date);
    EXPECT_EQ(a.user_agent, b.user_agent);
    EXPECT_EQ(a.features, b.features);
    EXPECT_EQ(a.untrusted_ip, b.untrusted_ip);
    EXPECT_EQ(a.ato, b.ato);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.origin, b.origin);
  }
}

TEST(Dataset, FingerprintStringsAreStable) {
  SessionGenerator gen(small_config(50));
  const Dataset data = gen.generate(experiment_feature_indices());
  const auto strings = data.fingerprint_strings();
  ASSERT_EQ(strings.size(), 50u);
  // Two rows with identical features serialize identically.
  EXPECT_EQ(strings[0], strings[0]);
  EXPECT_FALSE(strings[0].empty());
}

}  // namespace
}  // namespace bp::traffic
