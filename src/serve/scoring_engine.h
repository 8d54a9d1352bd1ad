// Concurrent scoring engine: the serving tier of §6.5.  One scoring
// path, two ways in:
//
//   submit()  ->  BoundedQueue  ->  worker pool  ->  ResponseCallback
//                 (ring of          |
//                  request slots)   |
//   score_now() (inline) -----------+->  score_span(): one snapshot,
//                                        cache, SoA kernel, metrics
//
// The queue hop copies each request into a ring slot that keeps its
// feature buffer, and workers swap ready slots with the elements of a
// batch vector they reuse (serve/bounded_queue.h), so once the ring and
// the batches are warm a queued verdict allocates nothing anywhere —
// pinned by EngineQueueAllocBudget.QueuedVerdictsAllocateNothing.
//
// Invariants the tests pin down:
//   * one admission rule for both ways in: with nothing published, a
//     request is refused at once (kRejected, counted in
//     `<prefix>_rejected_total`), never parked;
//   * every admitted request produces exactly one response, a score
//     (kScored); a refused submission produces none and is reported
//     synchronously;
//   * a span is scored by exactly one published model version (the
//     snapshot is taken once per batch or inline call), and every
//     response names the version that produced it;
//   * the scoring path performs no per-session allocation: each span
//     is scored in one fused pass through Polygraph::score_batch (a
//     reused ScoreScratch holds the SoA panels) — bit-identical to
//     per-session Polygraph::score by the kernel's equivalence
//     guarantee;
//   * with EngineConfig::cache_capacity > 0, a verdict cache
//     short-circuits repeat (fingerprint, UA) sessions at submit() and
//     again inside the span scorer; cached responses are kScored with
//     ScoreResponse::cached set, always carry the version whose model
//     produced the verdict, and a hot swap atomically invalidates every
//     older entry (version-keyed lookups — see serve/verdict_cache.h).
//
// Failure posture: with nothing published, submit() and score_now()
// refuse at once; a fingerprint verdict needs a model, and the
// caller's fallback (its UA-only risk path) is the caller's.  Overload
// is bounded at admission by the queue's OverflowPolicy (kBlock or
// kReject).
//
// The engine starts exactly `workers` threads.  The callback runs on
// them (and, for submit-side cache hits, on the submitting thread); it
// must be thread-safe and cheap.  score_now() never calls it.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <span>
#include <thread>
#include <vector>

#include "obs/audit.h"
#include "obs/trace.h"
#include "serve/bounded_queue.h"
#include "serve/model_registry.h"
#include "serve/serve_metrics.h"
#include "serve/verdict_cache.h"
#include "ua/user_agent.h"

namespace bp::serve {

struct ScoreRequest {
  std::uint64_t id = 0;                 // caller-chosen correlation id
  std::vector<std::int32_t> features;   // native session feature storage
  ua::UserAgent claimed;
  std::chrono::steady_clock::time_point admitted_at{};  // set by submit()
  // Content address of (features, claimed); computed once by submit()
  // when the verdict cache is enabled, so the worker-side lookup and
  // the post-score insert never rehash.
  VerdictCache::Key cache_key{};
  // Cross-hop trace context adopted from the wire (net/wire.h `t:`
  // segment).  trace_id == 0: no inbound context — local tracing rules
  // apply (trace id = request id, the sink's own sampling decision,
  // spans 1/2/3).  trace_id != 0: the request's spans join the client's
  // trace, parented under trace_parent in the adopted span-id block
  // (see adopted_span_base), and trace_sampled — the *client's*
  // head-sampling decision — overrides the local sink's in both
  // directions, so a sampled trace assembles completely or not at all.
  std::uint64_t trace_id = 0;
  std::uint32_t trace_parent = 0;
  bool trace_sampled = false;
};

// Span-id block for an adopted trace context: each distinct client
// parent span owns a disjoint 16-wide id range on the server side, so
// the two server visits of a hedged twin (distinct attempt parent
// spans, one shared trace id) can never collide.  Within a block:
// base+1 "server_request" (parented under the client span), base+2
// "queue_wait" (zero-length when scored inline), base+3 terminal,
// base+5 "serialize" (recorded by net::ScoreServer).  base+4 is
// unassigned.
inline constexpr std::uint32_t adopted_span_base(
    std::uint32_t trace_parent) noexcept {
  return trace_parent * 16u;
}

// One value: every response is a fingerprint verdict.  Kept as a type
// because the wire frame carries it (net/wire.h).
enum class ResponseStatus : std::uint8_t {
  kScored,
};

struct ScoreResponse {
  std::uint64_t id = 0;
  ResponseStatus status = ResponseStatus::kScored;
  core::Detection detection;
  std::uint64_t model_version = 0;  // publishing version that scored it
  std::uint32_t worker = 0;  // worker or ScoreScratch::lane (0: submit)
  std::chrono::microseconds latency{0};  // admission -> response
  // kScored answered by the verdict cache — the detection was produced
  // by `model_version` for an identical (fingerprint, UA) earlier and
  // replayed without rescoring.  Audited with AuditRecord::kCached.
  bool cached = false;
};

enum class SubmitResult : std::uint8_t {
  kAdmitted,  // a response will follow (score_now: was written)
  kRejected,  // nothing to score with (no model published), or
              // submit()'s queue full under kReject; none follows
  kStopped,   // engine stopped; no response follows
};

// Per-thread staging for score_now(): SoA panels and per-span columns
// whose capacity sticks, so a reused scratch allocates nothing.  `lane`
// is the counter stripe; each new scratch takes the next one.
struct ScoreScratch {
  ScoreScratch() noexcept;
  std::uint32_t lane;
  core::BatchScratch kernel;
  std::vector<std::size_t> pending;  // span indices the kernel scores
  std::vector<std::span<const std::int32_t>> rows;
  std::vector<ua::UserAgent> claims;
  std::vector<core::Detection> detections;
};

// How long an armed `engine.worker_stall` fault point (util/fault.h)
// freezes a worker, once per batch it picks up.
inline constexpr std::chrono::milliseconds kInjectedWorkerStall{10};

struct EngineConfig {
  std::size_t workers = 0;  // 0 = std::thread::hardware_concurrency()
  std::size_t queue_capacity = 4096;
  std::size_t max_batch = 32;  // requests scored per snapshot load
  OverflowPolicy overflow_policy = OverflowPolicy::kBlock;

  // Slot count of the content-addressed (fingerprint, UA) -> verdict
  // cache (rounded up to a power of two); 0 disables it.  With the
  // cache on, submit() answers repeat sessions synchronously on the
  // submitting thread (the response callback runs before submit
  // returns), and the span scorer checks it again per request against
  // the span's snapshot version before falling through to the SoA
  // kernel.  Version-keyed entries make a registry hot swap an atomic
  // whole-cache invalidation.  Counters appear under
  // `<metrics_prefix>_cache_*`.
  std::size_t cache_capacity = 0;

  // ---- observability (all optional; null = that plane disabled) ----
  //
  // Registry to export serving metrics into (alongside drift, retrain,
  // fault and training telemetry).  Null keeps the engine's metrics in
  // a private registry — isolated, but invisible to exporters.  Two
  // engines sharing a registry must use distinct metrics_prefix values.
  // The engine also registers two render-time callback gauges,
  // `<prefix>_queue_depth` and `<prefix>_model_version` (removed again
  // on stop()), so exported gauges are exactly as fresh as the render —
  // the uniform gauge semantics MetricsSnapshot documents.
  obs::MetricsRegistry* registry = nullptr;
  std::string metrics_prefix = "bp_serve";

  // Request-path tracing.  Per sampled request (trace id = request id,
  // decided deterministically by the sink) the engine records spans:
  //   1 "request"    admission -> response          (root)
  //   2 "queue_wait" admission -> batch pickup      (parent 1)
  //   3 terminal     "score" | "cache_hit"         (parent 1)
  // An inline score_now() call records the same spans; its queue_wait
  // is zero-length.
  // A request carrying an adopted cross-hop context (trace_id != 0)
  // instead records "server_request"/"queue_wait"/terminal at
  // adopted_span_base(trace_parent)+{1,2,3} under the client's trace
  // id, honoring the client's sampling decision over the local sink's.
  obs::TraceSink* trace = nullptr;

  // Decision audit trail: every flagged (and sampled unflagged)
  // response records its Algorithm-1 evidence.
  obs::AuditTrail* audit = nullptr;
};

class ScoringEngine {
 public:
  using ResponseCallback = std::function<void(const ScoreResponse&)>;

  // Starts the worker pool immediately.  `registry` must outlive the
  // engine; until it has a published model, requests are refused
  // (kRejected).
  ScoringEngine(const ModelRegistry& registry, EngineConfig config,
                ResponseCallback on_response);
  ~ScoringEngine();

  ScoringEngine(const ScoringEngine&) = delete;
  ScoringEngine& operator=(const ScoringEngine&) = delete;

  // Thread-safe admission.  On kAdmitted the engine will deliver
  // exactly one response for the request.  A submit-side cache hit
  // answers without touching the queue; a miss is copied straight into
  // a ring slot of the queue, whose retained feature buffer takes the
  // copy, so the queued path allocates nothing once the ring is warm
  // (an rvalue binds here too: moving would gain nothing).
  SubmitResult submit(const ScoreRequest& request);

  // Inline scoring on the calling thread through the workers' span
  // scorer, against the current snapshot: responses[i] answers
  // requests[i] (sizes must match; admitted_at and cache_key are
  // stamped here).  Refused as submit() is (kRejected: nothing
  // published).  Refusals write nothing; the callback never runs and
  // drain() never waits on these calls.
  SubmitResult score_now(std::span<ScoreRequest> requests,
                         std::span<ScoreResponse> responses,
                         ScoreScratch& scratch);

  // Blocks until every admitted request has been responded to.
  // Producers should be quiescent (or the wait is racy by nature).
  void drain();

  // Closes the queue, scores what was already admitted, joins workers.
  // Idempotent; the destructor calls it.
  void stop();

  // Counter fold + engine context (queue depth, registry version).
  MetricsSnapshot metrics() const;

  // Verdict-cache counters; all-zero when the cache is disabled.
  CacheStats cache_stats() const {
    return cache_ != nullptr ? cache_->stats() : CacheStats{};
  }
  const VerdictCache* cache() const noexcept { return cache_.get(); }

  const EngineConfig& config() const noexcept { return config_; }
  std::size_t queue_depth() const { return queue_.size(); }

 private:
  // When one answered request was admitted, picked up and answered.
  struct AnswerTimes {
    std::chrono::steady_clock::time_point admitted, picked_up, done;
  };

  // The one admission check submit() and score_now() start with:
  // kAdmitted when this engine can answer now, else the refusal (a
  // kRejected is counted).
  SubmitResult admission();
  void worker_loop(std::uint32_t worker_index);
  // The one scoring path: cache probe against the snapshot's version,
  // the SoA kernel for the misses, cache insert, answer() per request
  // (handed to the callback when `deliver`).  `snapshot` is never empty:
  // admission refuses until the first publish.
  void score_span(const ModelSnapshot& snapshot,
                  std::span<const ScoreRequest> requests,
                  std::span<ScoreResponse> responses, ScoreScratch& scratch,
                  std::chrono::steady_clock::time_point picked_up,
                  bool deliver);
  // The only place a scored or cache-hit (`cached`) response is built;
  // records metrics, audit, trace.
  ScoreResponse answer(const ScoreRequest& request,
                       const core::Detection& detection,
                       std::uint64_t version, bool cached, std::uint32_t lane,
                       const AnswerTimes& times);
  // Whether this request's spans are recorded: the adopted context's
  // decision, else the local sink's for the request id.
  bool trace_sampled(const ScoreRequest& request) const noexcept;
  // Records the request's spans; only for a request trace_sampled keeps.
  void record_request_trace(const ScoreRequest& request, const char* terminal,
                            std::int64_t admitted_us,
                            std::int64_t picked_up_us,
                            std::int64_t done_us) const;
  void record_audit(const ScoreRequest& request, const ScoreResponse& response);
  // Submit-side cache fast path (cache enabled; `key` is the request's
  // content address); true = answered, request not admitted.
  bool try_cached_submit(const ScoreRequest& request,
                         const VerdictCache::Key& key);
  void note_completed(std::uint64_t n);
  void retract_admission();

  const ModelRegistry& registry_;
  EngineConfig config_;
  ResponseCallback on_response_;
  BoundedQueue<ScoreRequest> queue_;
  ServeMetrics metrics_;
  // Declared after metrics_: the cache registers a callback gauge into
  // metrics_.registry() and must unhook (destruct) first.
  std::unique_ptr<VerdictCache> cache_;

  // On separate cache lines: every worker bumps completed_ while every
  // submitter bumps admitted_; sharing a line put the two hottest
  // atomics in the process into one ping-ponging cache line.
  alignas(64) std::atomic<std::uint64_t> admitted_{0};
  alignas(64) std::atomic<std::uint64_t> completed_{0};
  std::mutex drain_mutex_;
  std::condition_variable drain_cv_;

  std::atomic<bool> stopping_{false};
  std::mutex stop_mutex_;
  std::vector<std::thread> workers_;
  // Render-time callback gauges registered into config_.registry; they
  // read live engine state, so stop() must remove them before the
  // engine can be destroyed under a longer-lived registry.
  bool callback_gauges_registered_ = false;
};

}  // namespace bp::serve
