#include "wire_load.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <random>
#include <thread>

#include "net/http_common.h"
#include "net/wire.h"

namespace bp::wire_load {

using Clock = std::chrono::steady_clock;

core::Polygraph train_production_model(std::size_t n_sessions) {
  traffic::TrafficConfig config;
  config.n_sessions = n_sessions;
  const traffic::Dataset data = traffic::SessionGenerator(config).generate(
      traffic::experiment_feature_indices());
  core::Polygraph model;
  std::vector<ua::UserAgent> uas;
  uas.reserve(data.size());
  for (const auto& record : data.records()) uas.push_back(record.claimed);
  model.train(data.feature_matrix(model.config().feature_indices), uas);
  return model;
}

std::vector<traffic::SessionRecord> session_pool(const core::Polygraph& model,
                                                 std::size_t n,
                                                 std::uint64_t seed) {
  traffic::TrafficConfig config;
  config.seed = seed;
  traffic::SessionGenerator live(config);
  std::vector<traffic::SessionRecord> pool;
  pool.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pool.push_back(live.next_session(model.config().feature_indices));
  }
  return pool;
}

std::vector<std::size_t> popularity_draw(std::size_t pool_size,
                                         std::size_t n) {
  std::mt19937_64 rng(0xCAC4Eu);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<std::size_t> draw;
  draw.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double u = unit(rng);
    draw.push_back(std::min(
        pool_size - 1,
        static_cast<std::size_t>(static_cast<double>(pool_size) * u * u * u)));
  }
  return draw;
}

std::vector<std::string> popularity_frames(
    const std::vector<traffic::SessionRecord>& pool, std::size_t n) {
  std::vector<std::string> frames;
  frames.reserve(n);
  for (const std::size_t idx : popularity_draw(pool.size(), n)) {
    std::string frame;
    net::render_score_request(frames.size() + 1, pool[idx].user_agent,
                              pool[idx].features, &frame);
    frames.push_back(std::move(frame));
  }
  return frames;
}

net::ScoreServerConfig server_config(const core::Polygraph& model,
                                     std::size_t unique_sessions) {
  net::ScoreServerConfig config;
  config.listener.handler_threads = 4;
  config.router.shards = 2;
  config.router.engine.workers = 2;
  config.router.engine.cache_capacity = std::bit_ceil(4 * unique_sessions);
  config.expected_features = model.config().feature_indices.size();
  return config;
}

LoadResult drive(std::uint16_t port, const std::vector<std::string>& frames,
                 double offered_rps, std::size_t connections,
                 std::size_t total) {
  std::vector<LoadResult> per(connections);
  // Lead time so every connection is up before the first request is due.
  const auto t0 = Clock::now() + std::chrono::milliseconds(5);
  std::vector<std::thread> per_connection;
  for (std::size_t c = 0; c < connections; ++c) {
    per_connection.emplace_back([&, c] {
      LoadResult& out = per[c];
      const std::size_t n =
          total / connections + (c < total % connections ? 1 : 0);
      // Request i on connection c is frame (c + i * connections).
      const auto frame_of = [&](std::size_t i) {
        return (c + i * connections) % frames.size();
      };
      net::HttpClient client("127.0.0.1", port,
                             std::chrono::milliseconds(10'000));
      if (!client.connect()) {
        out.lost = n;
        return;
      }
      std::atomic<std::size_t> n_sent{0};
      std::atomic<bool> sender_done{false};
      std::thread sender([&] {
        for (std::size_t i = 0; i < n; ++i) {
          // Connections are staggered evenly inside one arrival gap.
          const double due_s =
              offered_rps > 0.0
                  ? (static_cast<double>(i) * static_cast<double>(connections) +
                     static_cast<double>(c)) /
                        offered_rps
                  : 0.0;
          std::this_thread::sleep_until(
              t0 + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(due_s)));
          if (!client.send_request("POST", "/score", frames[frame_of(i)],
                                   "application/x-bpwire")) {
            break;  // transport gone: the unsent rest counts as lost
          }
          n_sent.store(i + 1, std::memory_order_release);
        }
        sender_done.store(true, std::memory_order_release);
      });
      // Responses arrive in pipeline order: response i answers frame_of(i).
      for (std::size_t i = 0;; ++i) {
        while (n_sent.load(std::memory_order_acquire) <= i &&
               !sender_done.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
        if (n_sent.load(std::memory_order_acquire) <= i) break;  // all read
        const net::HttpResult got = client.read_response();
        if (got.status < 0) break;  // transport error: the rest is lost
        net::WireScoreResponse verdict;
        if (got.status == 503) {
          ++out.shed;
        } else if (got.status == 200 &&
                   net::parse_score_response(got.body, &verdict) ==
                       net::WireError::kOk &&
                   verdict.session_id == frame_of(i) + 1) {
          ++out.answered;
        } else {
          ++out.corrupted;
        }
      }
      sender.join();
      out.lost = n - (out.answered + out.shed + out.corrupted);
    });
  }
  for (std::thread& thread : per_connection) thread.join();

  LoadResult result;
  result.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  for (const LoadResult& r : per) {
    result.answered += r.answered;
    result.shed += r.shed;
    result.lost += r.lost;
    result.corrupted += r.corrupted;
  }
  return result;
}

}  // namespace bp::wire_load
