// Golden hashes for the training pipeline's outputs.  Each case hashes
// (FNV-1a) something the pipeline produces from a fixed seed and
// compares it with a value pinned when the suite went in, at 1, 2 and 8
// pool threads.  A speed-up of the generator, the subsampler or the
// isolation forest must leave every one of these bytes unchanged; a
// deliberate change of the synthetic corpus or the model has to re-pin
// them and say why.  The pins hold for IEEE-754 doubles with the
// toolchain's libm (std::exp / std::log / std::pow feed the corpus
// weights and the model text).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/model_io.h"
#include "core/polygraph.h"
#include "ml/isolation_forest.h"
#include "traffic/session_generator.h"
#include "util/parallel.h"

namespace bp {
namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 8};

class TrainingGolden : public ::testing::Test {
 protected:
  void TearDown() override { util::set_parallel_threads(0); }
};

// Incremental FNV-1a over a byte stream (same constants as
// util::fnv1a).
struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void bytes(std::string_view s) {
    for (char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ULL;
    }
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
};

// Every field of a record, the ground truth included.
void hash_record(Fnv1a& fnv, const traffic::SessionRecord& r) {
  fnv.bytes(r.session_id);
  fnv.u64(static_cast<std::uint64_t>(r.date.days_since_epoch));
  fnv.bytes(r.user_agent);
  fnv.u64(r.claimed.key());
  fnv.u64(static_cast<std::uint64_t>(r.claimed.os));
  fnv.u64(r.features.size());
  for (std::int32_t f : r.features) fnv.u64(static_cast<std::uint64_t>(f));
  fnv.u64((r.untrusted_ip ? 1u : 0u) | (r.untrusted_cookie ? 2u : 0u) |
          (r.ato ? 4u : 0u));
  fnv.u64(static_cast<std::uint64_t>(r.kind));
  fnv.bytes(r.origin);
  fnv.bytes(std::string_view("\n", 1));
}

traffic::Dataset corpus(std::uint64_t seed, std::size_t rows) {
  traffic::TrafficConfig config;
  config.seed = seed;
  config.n_sessions = rows;
  traffic::SessionGenerator generator(config);
  return generator.generate(traffic::experiment_feature_indices());
}

std::uint64_t production_model_hash(std::uint64_t seed) {
  const traffic::Dataset data = corpus(seed, 12'000);
  core::Polygraph model(core::PolygraphConfig::production());
  std::vector<ua::UserAgent> claimed;
  claimed.reserve(data.size());
  for (const auto& r : data.records()) claimed.push_back(r.claimed);
  model.train(data.feature_matrix(model.config().feature_indices), claimed);
  Fnv1a fnv;
  fnv.bytes(core::serialize_model(model));
  return fnv.h;
}

TEST_F(TrainingGolden, ProductionModelBytesMatchPinnedHashes) {
  for (std::size_t threads : kThreadCounts) {
    util::set_parallel_threads(threads);
    EXPECT_EQ(production_model_hash(20230301), 0xeef5b433101a2e56ULL)
        << "seed 20230301 at " << threads << " threads";
    EXPECT_EQ(production_model_hash(77), 0x1cda2a7994827570ULL)
        << "seed 77 at " << threads << " threads";
  }
}

TEST_F(TrainingGolden, StreamedSessionsMatchPinnedHash) {
  for (std::size_t threads : kThreadCounts) {
    util::set_parallel_threads(threads);
    traffic::SessionGenerator generator(traffic::TrafficConfig{});
    const std::vector<std::size_t> indices =
        traffic::experiment_feature_indices();
    Fnv1a fnv;
    for (int i = 0; i < 5'000; ++i) {
      hash_record(fnv, generator.next_session(indices));
    }
    EXPECT_EQ(fnv.h, 0x8671a0f627096f59ULL) << threads << " threads";
  }
}

TEST_F(TrainingGolden, GeneratedDatasetMatchesPinnedHash) {
  for (std::size_t threads : kThreadCounts) {
    util::set_parallel_threads(threads);
    traffic::TrafficConfig config;
    config.n_sessions = 5'000;
    traffic::SessionGenerator generator(config);
    // Every candidate feature, so the whole extracted vector is pinned.
    const traffic::Dataset data = generator.generate();
    Fnv1a fnv;
    for (const auto& r : data.records()) hash_record(fnv, r);
    EXPECT_EQ(fnv.h, 0x2af6c6e8160d300fULL) << threads << " threads";
  }
}

TEST_F(TrainingGolden, IsolationForestScoresMatchPinnedHash) {
  util::set_parallel_threads(1);
  const traffic::Dataset data = corpus(5, 5'000);
  const ml::Matrix features =
      data.feature_matrix(core::PolygraphConfig::production().feature_indices);
  for (std::size_t threads : kThreadCounts) {
    util::set_parallel_threads(threads);
    ml::IsolationForest forest;
    forest.fit(features);
    Fnv1a fnv;
    for (double s : forest.score(features)) {
      fnv.u64(std::bit_cast<std::uint64_t>(s));
    }
    EXPECT_EQ(fnv.h, 0x2553cb59d2f7afc8ULL) << threads << " threads";
  }
}

}  // namespace
}  // namespace bp
