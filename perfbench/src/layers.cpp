#include "layers.h"

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "net/wire.h"
#include "serve/model_registry.h"
#include "serve/verdict_cache.h"

namespace perfbench {

namespace {

constexpr int kReps = 7;
// Calls per timed loop: the first frames of the workload's schedule.
constexpr std::size_t kCalls = 16'384;
constexpr std::size_t kCacheSlots = 4096;  // as deployed, per shard

volatile std::uint64_t g_sink = 0;  // keeps timed results observable

class Timer {
 public:
  Timer(SpanLog& spans, std::uint64_t parent) : spans_(spans), parent_(parent) {}

  // Median over kReps loops of `body(i)` for i in [0, n), per call.
  template <typename Body>
  double per_call_ns(const char* name, std::size_t n, Body&& body) {
    std::vector<double> per_call;
    std::uint64_t sink = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      const std::int64_t start = now_ns();
      for (std::size_t i = 0; i < n; ++i) sink += body(i);
      const std::int64_t end = now_ns();
      spans_.add({name, spans_.reserve_ids(), parent_, start, end, n});
      per_call.push_back(static_cast<double>(end - start) /
                         static_cast<double>(std::max<std::size_t>(n, 1)));
    }
    g_sink = g_sink + sink;
    return median(per_call);
  }

 private:
  SpanLog& spans_;
  const std::uint64_t parent_;
};

}  // namespace

LayerTimes time_layers(const Fixture& fx, const bp::net::EngineRouter& router,
                       SpanLog& spans, std::uint64_t parent_span) {
  LayerTimes out;
  Timer timer(spans, parent_span);
  const std::size_t n = std::min(kCalls, fx.frames());
  const auto content = [&](std::size_t i) -> const Content& {
    return fx.contents[fx.frame_content[i]];
  };

  // ---- net ----
  bp::net::WireScoreRequest request;
  out.parse_ns = timer.per_call_ns("net.parse", n, [&](std::size_t i) {
    return static_cast<std::uint64_t>(
        bp::net::parse_score_request(fx.body(i), &request));
  });
  std::string rendered;
  out.render_ns = timer.per_call_ns("net.render", n, [&](std::size_t i) {
    const Verdict& v = fx.expected[0][fx.frame_content[i]];
    bp::net::WireScoreResponse response;
    response.session_id = Fixture::session_id(i);
    response.flagged = v.flagged;
    response.risk_factor = v.risk;
    response.predicted_cluster = v.cluster;
    response.model_version = 1;
    bp::net::render_score_response(response, &rendered);
    return rendered.size();
  });
  out.route_ns = timer.per_call_ns("net.route", n, [&](std::size_t i) {
    return router.shard_of(Fixture::session_id(i));
  });

  // ---- serve: verdict cache ----
  std::vector<bp::serve::VerdictCache::Key> keys(n);
  out.cache_key_ns = timer.per_call_ns("serve.cache_key", n, [&](std::size_t i) {
    keys[i] = bp::serve::VerdictCache::key_of(content(i).features,
                                              content(i).claimed);
    return keys[i].primary;
  });
  bp::core::Detection detection;
  {
    // Resident keys: inserted and still in their slot afterwards.
    bp::serve::VerdictCache cache({kCacheSlots, nullptr, "perfbench_hit"});
    for (const auto& key : keys) cache.insert(key, 1, detection);
    std::vector<bp::serve::VerdictCache::Key> resident;
    for (const auto& key : keys) {
      if (cache.lookup(key, 1, detection)) resident.push_back(key);
    }
    if (!resident.empty()) {
      out.cache_hit_ns = timer.per_call_ns("serve.cache_hit", n, [&](std::size_t i) {
        return static_cast<std::uint64_t>(
            cache.lookup(resident[i % resident.size()], 1, detection));
      });
    }
  }
  {
    // Absent keys: the first half of the frames, probed against a cache
    // holding the second half (the slot is occupied by another key, as
    // on a busy server).
    bp::serve::VerdictCache cache({kCacheSlots, nullptr, "perfbench_miss"});
    for (std::size_t i = n / 2; i < n; ++i) cache.insert(keys[i], 1, detection);
    std::vector<bp::serve::VerdictCache::Key> absent;
    for (std::size_t i = 0; i < n / 2; ++i) {
      if (!cache.lookup(keys[i], 1, detection)) absent.push_back(keys[i]);
    }
    if (!absent.empty()) {
      out.cache_miss_ns = timer.per_call_ns("serve.cache_miss", n, [&](std::size_t i) {
        return static_cast<std::uint64_t>(
            cache.lookup(absent[i % absent.size()], 1, detection));
      });
    }
  }
  {
    bp::serve::VerdictCache cache({kCacheSlots, nullptr, "perfbench_insert"});
    out.cache_insert_ns =
        timer.per_call_ns("serve.cache_insert", n, [&](std::size_t i) {
          cache.insert(keys[i], 1, detection);
          return keys[i].check;
        });
  }

  // ---- serve: model registry ----
  {
    constexpr std::size_t kPublishes = 64;
    bp::serve::ModelRegistry registry;
    out.publish_us =
        timer.per_call_ns("serve.publish", kPublishes, [&](std::size_t i) {
          return registry.publish(fx.models.model[i % 2]);
        }) /
        1e3;
  }

  // ---- core: the scoring kernel, on the model serving first ----
  const bp::core::Polygraph& model = *fx.models.model[0];
  std::vector<std::span<const std::int32_t>> rows(n);
  std::vector<bp::ua::UserAgent> claims(n);
  for (std::size_t i = 0; i < n; ++i) {
    rows[i] = content(i).features;
    claims[i] = content(i).claimed;
  }
  std::vector<bp::core::Detection> detections(n);
  bp::core::BatchScratch batch_scratch;
  const std::size_t block = bp::core::Polygraph::kScoreBatchBlock;
  const std::size_t blocks = (n + block - 1) / block;
  out.score_batch_ns =
      timer.per_call_ns("core.score_batch", blocks, [&](std::size_t b) {
        const std::size_t first = b * block;
        const std::size_t len = std::min(block, n - first);
        model.score_batch(
            std::span(rows).subspan(first, len),
            std::span<const bp::ua::UserAgent>(claims).subspan(first, len),
            std::span(detections).subspan(first, len), batch_scratch);
        return detections[first].predicted_cluster;
      }) *
      static_cast<double>(blocks) / static_cast<double>(n);
  bp::core::ScoringScratch scratch;
  out.score_ns = timer.per_call_ns("core.score", n, [&](std::size_t i) {
    return model.score(rows[i], claims[i], scratch).predicted_cluster;
  });

  std::vector<std::size_t> flagged;
  for (std::size_t i = 0; i < n; ++i) {
    if (detections[i].flagged) flagged.push_back(i);
  }
  out.flagged_ratio =
      static_cast<double>(flagged.size()) / static_cast<double>(n);
  if (flagged.empty()) {  // no flagged session: time the tail on all
    for (std::size_t i = 0; i < n; ++i) flagged.push_back(i);
  }
  out.risk_ns = timer.per_call_ns("core.risk", n, [&](std::size_t i) {
    const std::size_t row = flagged[i % flagged.size()];
    return static_cast<std::uint64_t>(
        model.risk_factor(claims[row], detections[row].predicted_cluster));
  });
  return out;
}

}  // namespace perfbench
