// Sharded multi-engine router: N ScoringEngines behind one front door.
//
// One ScoringEngine already pools workers over one queue, but at
// ingress scale a single queue is a contention point.  The router owns
// N engines ("shards") and routes each request by a hash of its
// *session id*, so one session's requests always land on the same
// shard, and queue contention divides by N.  Session affinity does not
// concentrate the verdict cache (EngineConfig::cache_capacity): a cache
// entry is keyed by content, the (fingerprint, claimed UA) pair, and
// many sessions share popular content, so every shard ends up caching
// the same popular entries.
//
// What the router coordinates, and what it deliberately does not:
//
//   * hot swap — nothing.  All shards read the same ModelRegistry;
//     a publish lands atomically and each shard's in-flight batches
//     finish on the version they hold.  A mid-swap drain() is the
//     way to observe "every response from here on is the new model".
//   * drain()  — waits shard by shard until every request submitted
//     to a shard queue has been answered (inline score_now() calls
//     answer before they return, so they are never waited on).
//   * stop()   — ordered: shard 0 first, then 1, ... so teardown is
//     deterministic and a stuck shard is identifiable by index.
//
// Cross-hop tracing passes through untouched: an adopted trace context
// rides inside the ScoreRequest (trace_id/trace_parent/trace_sampled),
// so whichever shard the session hashes to records its spans under the
// client's trace id into the shared EngineConfig::trace sink — the
// router adds no spans and needs no tracing state of its own.
//
// Per-shard metrics: each shard registers its instruments under
// "<metrics_prefix>_shard<i>_..." in the registry the EngineConfig
// template names, so an exporter shows per-shard queue depth, scored
// counts and latency histograms side by side; metrics() folds them
// into one aggregate MetricsSnapshot for readers that care about the
// plane, not the shard.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "serve/model_registry.h"
#include "serve/scoring_engine.h"

namespace bp::net {

struct RouterConfig {
  // 0 = one shard per 4 hardware threads, at least 2 — each shard
  // carries its own worker pool, so shards * engine.workers should
  // not exceed the machine.
  std::size_t shards = 0;
  // Per-shard template.  `workers` and `queue_capacity` apply to each
  // shard; `metrics_prefix` is the base the per-shard "_shard<i>"
  // suffix is appended to.  The trace and audit planes pass through
  // unchanged.
  serve::EngineConfig engine;
};

class EngineRouter {
 public:
  // Starts every shard's worker pool immediately.  `registry` must
  // outlive the router; `on_response` follows ScoringEngine's contract
  // (worker threads, thread-safe, cheap), is shared by all shards and
  // may be empty for a caller that only scores inline.
  EngineRouter(const serve::ModelRegistry& registry, RouterConfig config,
               serve::ScoringEngine::ResponseCallback on_response);
  ~EngineRouter();

  EngineRouter(const EngineRouter&) = delete;
  EngineRouter& operator=(const EngineRouter&) = delete;

  std::size_t shards() const noexcept { return engines_.size(); }

  // The shard `session_id` routes to: splitmix64(session_id) % shards.
  // Pure; stable for the router's lifetime.
  std::size_t shard_of(std::uint64_t session_id) const noexcept;

  // Route and submit.  `request.id` is the caller's correlation token;
  // routing uses `session_id`, which the two-argument form keeps
  // separate so a caller never has to overload one field with both
  // meanings.
  serve::SubmitResult submit(std::uint64_t session_id,
                             const serve::ScoreRequest& request);

  // Route and score inline on the calling thread: ScoringEngine::
  // score_now on shard_of(session_id), so that shard's verdict cache
  // is probed and filled exactly as for a queued request.
  serve::SubmitResult score_now(std::uint64_t session_id,
                                std::span<serve::ScoreRequest> requests,
                                std::span<serve::ScoreResponse> responses,
                                serve::ScoreScratch& scratch) {
    return engines_[shard_of(session_id)]->score_now(requests, responses,
                                                     scratch);
  }

  // Blocks until every admitted request on every shard has been
  // responded to.  Producers should be quiescent.
  void drain();

  // Ordered stop: shard 0, 1, ... each drains its own queue per
  // ScoringEngine::stop.  Idempotent; the destructor calls it.
  void stop();

  serve::MetricsSnapshot shard_metrics(std::size_t shard) const;
  // Aggregate fold across shards: counters and histograms sum;
  // queue_depth sums; model_version is the registry's (shared).
  serve::MetricsSnapshot metrics() const;

  // Verdict-cache counters folded across shards (all-zero when
  // engine.cache_capacity is 0).  Each shard owns an independent cache
  // keyed by (fingerprint, UA) content, while routing is by session, so
  // a popular content's entry is held, and first missed, on every shard
  // that its sessions hash to.
  serve::CacheStats cache_stats() const;

  std::uint64_t model_version() const noexcept { return registry_.version(); }

 private:
  const serve::ModelRegistry& registry_;
  std::vector<std::unique_ptr<serve::ScoringEngine>> engines_;
};

}  // namespace bp::net
