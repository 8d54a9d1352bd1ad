#include "fixture.h"

#include <algorithm>
#include <random>
#include <stdexcept>
#include <unordered_set>

#include "ml/matrix.h"
#include "net/wire.h"
#include "serve/verdict_cache.h"
#include "stats.h"
#include "traffic/session_generator.h"
#include "util/rng.h"

namespace perfbench {

namespace {

// Rows per training corpus: large enough for the production pipeline's
// outlier filter and k = 11, small enough that repeated set-up stays a
// few seconds.
constexpr std::size_t kTrainingRows = 30'000;
// Popular traffic: u^3-skewed draws over this many generated sessions
// (their fingerprints collide by design), cycled through this many
// pre-rendered frames.
constexpr std::size_t kPopularSessions = 3'000;
constexpr std::size_t kPopularFrames = 1 << 16;
// Unique traffic: this many distinct contents, one frame each.  A
// content recurs only after 2^16 frames, far beyond what the 2 x 4096
// cache slots hold, so lookups miss.
constexpr std::size_t kUniqueContents = 1 << 16;

std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t state = seed * 0x9E3779B97F4A7C15ull + stream;
  return bp::util::splitmix64(state);
}

TrainedModels train_models(std::uint64_t seed) {
  TrainedModels out;
  for (int m = 0; m < 2; ++m) {
    bp::traffic::TrafficConfig config;
    config.seed = derive(seed, 10 + m);
    bp::core::Polygraph model(bp::core::PolygraphConfig::production());
    const std::vector<std::size_t>& indices = model.config().feature_indices;
    // Streamed on this thread: the sharded SessionGenerator::generate()
    // fills browser::baseline_candidates' unsynchronized memo from
    // several threads at once, which can corrupt it.
    const std::int64_t start = now_ns();
    bp::traffic::SessionGenerator generator(config);
    bp::ml::Matrix features(kTrainingRows, indices.size());
    std::vector<bp::ua::UserAgent> claimed;
    claimed.reserve(kTrainingRows);
    for (std::size_t r = 0; r < kTrainingRows; ++r) {
      const bp::traffic::SessionRecord session = generator.next_session(indices);
      std::copy(session.features.begin(), session.features.end(),
                features.row(r).begin());
      claimed.push_back(session.claimed);
    }
    out.generate_s += static_cast<double>(now_ns() - start) / 1e9;

    out.summary[m] = model.train(features, claimed);
    out.model[m] =
        std::make_shared<const bp::core::Polygraph>(std::move(model));
  }
  return out;
}

// Generated sessions, each with one feature shifted so that no two
// share a (features, UA) content address.
std::vector<bp::traffic::SessionRecord> unique_sessions(
    bp::traffic::SessionGenerator& generator,
    const std::vector<std::size_t>& indices) {
  std::vector<bp::traffic::SessionRecord> out;
  out.reserve(kUniqueContents);
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(2 * kUniqueContents);
  const std::size_t d = indices.size();
  for (std::size_t i = 0; i < kUniqueContents; ++i) {
    bp::traffic::SessionRecord session = generator.next_session(indices);
    std::int32_t& feature = session.features[i % d];
    feature += static_cast<std::int32_t>(1 + i / d);
    while (!seen.insert(bp::serve::VerdictCache::key_of(session.features,
                                                        session.claimed)
                            .primary)
                .second) {
      ++feature;
    }
    out.push_back(std::move(session));
  }
  return out;
}

Content to_content(bp::traffic::SessionRecord session) {
  // The claimed UA is taken as the server will read it: from the
  // rendered frame.
  std::string frame;
  bp::net::render_score_request(1, session.user_agent, session.features,
                                &frame);
  bp::net::WireScoreRequest parsed;
  if (bp::net::parse_score_request(frame, &parsed) !=
          bp::net::WireError::kOk ||
      parsed.features != session.features) {
    throw std::runtime_error("rendered frame does not parse back");
  }
  return Content{std::move(session.features), parsed.claimed,
                 std::move(session.user_agent)};
}

}  // namespace

Fixture build_fixture(Workload workload, std::uint64_t seed,
                      bool inject_mismatch) {
  Fixture fx;
  fx.models = train_models(seed);
  const std::vector<std::size_t>& indices =
      fx.models.model[0]->config().feature_indices;

  // ---- the workload's sessions ----
  const std::int64_t start = now_ns();
  bp::traffic::TrafficConfig live_config;
  live_config.seed = derive(seed, 20);
  bp::traffic::SessionGenerator live(live_config);
  if (workload == Workload::kWirePopular) {
    fx.contents.reserve(kPopularSessions);
    for (std::size_t i = 0; i < kPopularSessions; ++i) {
      fx.contents.push_back(to_content(live.next_session(indices)));
    }
    std::mt19937_64 popularity(derive(seed, 21));
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    fx.frame_content.resize(kPopularFrames);
    for (std::uint32_t& content : fx.frame_content) {
      const double u = unit(popularity);
      content = static_cast<std::uint32_t>(std::min<double>(
          kPopularSessions - 1, kPopularSessions * u * u * u));
    }
  } else {
    for (auto& session : unique_sessions(live, indices)) {
      fx.contents.push_back(to_content(std::move(session)));
    }
    fx.frame_content.resize(fx.contents.size());
    for (std::size_t i = 0; i < fx.frame_content.size(); ++i) {
      fx.frame_content[i] = static_cast<std::uint32_t>(i);
    }
  }
  fx.pool_generate_s = static_cast<double>(now_ns() - start) / 1e9;

  // ---- wire frames ----
  fx.http.resize(fx.frames());
  fx.body_offset.resize(fx.frames());
  std::string body;
  for (std::size_t i = 0; i < fx.frames(); ++i) {
    const Content& content = fx.contents[fx.frame_content[i]];
    bp::net::render_score_request(Fixture::session_id(i), content.user_agent,
                                  content.features, &body);
    std::string& request = fx.http[i];
    request = "POST /score HTTP/1.1\r\nHost: 127.0.0.1\r\n"
              "Content-Type: application/x-bpwire\r\nContent-Length: ";
    request += std::to_string(body.size());
    request += "\r\n\r\n";
    fx.body_offset[i] = static_cast<std::uint32_t>(request.size());
    request += body;
  }

  // ---- expected verdicts, per model ----
  bp::core::ScoringScratch scratch;
  for (int m = 0; m < 2; ++m) {
    fx.expected[m].reserve(fx.contents.size());
    for (const Content& content : fx.contents) {
      const bp::core::Detection d = fx.models.model[m]->score(
          std::span<const std::int32_t>(content.features), content.claimed,
          scratch);
      fx.expected[m].push_back({d.flagged, d.risk_factor,
                                static_cast<std::uint32_t>(d.predicted_cluster)});
    }
  }
  if (inject_mismatch) {
    for (auto& expected : fx.expected) {
      Verdict& wrong = expected[fx.frame_content[0]];
      wrong.flagged = !wrong.flagged;
    }
  }
  return fx;
}

int VersionMap::model_of(std::uint64_t version) {
  if (version >= known_.size()) known_.resize(version + 1, -2);
  int& known = known_[version];
  if (known == -2) {
    const bp::serve::ModelSnapshot snapshot = registry_.at_version(version);
    known = snapshot.model == models_.model[0]   ? 0
            : snapshot.model == models_.model[1] ? 1
                                                 : -1;
  }
  return known;
}

}  // namespace perfbench
