#include "serve/scoring_engine.h"

#include <atomic>
#include <cassert>
#include <span>
#include <utility>

#include "obs/prof/contention.h"
#include "obs/prof/prof.h"
#include "util/fault.h"

namespace bp::serve {

namespace {

std::size_t resolve_workers(std::size_t requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

std::int64_t to_us(std::chrono::steady_clock::time_point tp) noexcept {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             tp.time_since_epoch())
      .count();
}

// Inline scratches take successive counter stripes (see ScoreScratch).
std::atomic<std::uint32_t> next_scratch_lane{0};

}  // namespace

ScoreScratch::ScoreScratch() noexcept
    : lane(next_scratch_lane.fetch_add(1, std::memory_order_relaxed)) {}

ScoringEngine::ScoringEngine(const ModelRegistry& registry, EngineConfig config,
                             ResponseCallback on_response)
    : registry_(registry),
      config_([&] {
        config.workers = resolve_workers(config.workers);
        if (config.max_batch == 0) config.max_batch = 1;
        return config;
      }()),
      on_response_(std::move(on_response)),
      queue_(config_.queue_capacity, config_.overflow_policy),
      metrics_(config_.registry, config_.metrics_prefix) {
  // Contention attribution for the admission queue: producers blocked
  // on a full queue, workers parked on an empty one (see /contentionz).
  auto& contention = obs::prof::ContentionRegistry::instance();
  queue_.set_contention_sites(&contention.site("serve.queue.push_block"),
                              &contention.site("serve.queue.pop_wait"));
  if (config_.cache_capacity > 0) {
    VerdictCacheConfig cache_config;
    cache_config.capacity = config_.cache_capacity;
    // Same registry as the serving counters (the engine's private one
    // when none was supplied), so `<prefix>_cache_*` exports alongside
    // `<prefix>_scored_total` et al.
    cache_config.registry = &metrics_.registry();
    cache_config.metrics_prefix = config_.metrics_prefix + "_cache";
    cache_ = std::make_unique<VerdictCache>(cache_config);
  }
  if (config_.registry != nullptr) {
    // Callback gauges are evaluated at render time, so an exported
    // queue depth / model version is as fresh as the scrape — the
    // uniform gauge consistency model (see serve_metrics.h).
    config_.registry->gauge_callback(
        config_.metrics_prefix + "_queue_depth",
        [this] { return static_cast<double>(queue_.size()); },
        "requests admitted but not yet picked up");
    config_.registry->gauge_callback(
        config_.metrics_prefix + "_model_version",
        [this] { return static_cast<double>(registry_.version()); },
        "latest published model version");
    callback_gauges_registered_ = true;
  }
  workers_.reserve(config_.workers);
  for (std::uint32_t w = 0; w < config_.workers; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
}

ScoringEngine::~ScoringEngine() { stop(); }

bool ScoringEngine::try_cached_submit(const ScoreRequest& request,
                                      const VerdictCache::Key& key) {
  // The submit-side fast path: answer on the submitting thread, never
  // touching the queue or the drain accounting (the response is
  // delivered before submit returns, so no drain() can be waiting on
  // it).  This is where the heavy-tailed win lives, so the path is
  // kept allocation- and syscall-free: no snapshot shared_ptr traffic
  // (the atomic version counter is enough — a hit is only served when
  // its entry was minted under exactly that version), a fixed counter
  // stripe (one submitter keeps one set of cache lines hot), and the
  // clock only read when a trace span needs timestamps (the latency is
  // 0 either way).  A repeat session costs one hash + one seqlock read.
  const std::uint64_t version = registry_.version();
  core::Detection detection;
  if (!cache_->lookup(key, version, detection, /*stripe_hint=*/0)) {
    return false;
  }
  const auto now = config_.trace != nullptr
                       ? std::chrono::steady_clock::now()
                       : std::chrono::steady_clock::time_point{};
  const ScoreResponse response =
      answer(request, detection, version, /*cached=*/true, /*lane=*/0,
             {now, now, now});
  if (on_response_) on_response_(response);
  return true;
}

SubmitResult ScoringEngine::admission() {
  if (stopping_.load(std::memory_order_acquire)) return SubmitResult::kStopped;
  // The registry never goes back to empty (versions only grow, and the
  // snapshot is stored before its version), so a request admitted past
  // this check finds a model wherever it is scored: nothing ever waits
  // for a publish.
  if (registry_.version() == 0) {
    metrics_.record_rejected();
    return SubmitResult::kRejected;
  }
  return SubmitResult::kAdmitted;
}

SubmitResult ScoringEngine::submit(const ScoreRequest& request) {
  if (const SubmitResult refused = admission();
      refused != SubmitResult::kAdmitted) {
    return refused;
  }
  // Hashed once: the submit-side probe uses it, and so do the worker's
  // re-check against its batch's snapshot version and the post-score
  // insert.
  VerdictCache::Key key{};
  if (cache_ != nullptr) {
    key = VerdictCache::key_of(request.features, request.claimed);
    if (try_cached_submit(request, key)) return SubmitResult::kAdmitted;
  }
  const auto admitted_at = std::chrono::steady_clock::now();
  // Count admission before the push: once the request is in the queue a
  // worker may complete it, and `completed_` must never overtake
  // `admitted_` or drain() would return early.
  admitted_.fetch_add(1, std::memory_order_acq_rel);
  // The request is copied straight into its ring slot, whose retained
  // feature buffer takes the copy without allocating.
  const PushResult pushed = queue_.push_with([&](ScoreRequest& slot) {
    slot = request;
    slot.admitted_at = admitted_at;
    slot.cache_key = key;
  });
  switch (pushed) {
    case PushResult::kAccepted:
      return SubmitResult::kAdmitted;
    case PushResult::kRejected:
      retract_admission();
      metrics_.record_rejected();
      return SubmitResult::kRejected;
    case PushResult::kClosed:
      retract_admission();
      return SubmitResult::kStopped;
  }
  return SubmitResult::kStopped;  // unreachable
}

SubmitResult ScoringEngine::score_now(std::span<ScoreRequest> requests,
                                      std::span<ScoreResponse> responses,
                                      ScoreScratch& scratch) {
  assert(requests.size() == responses.size());
  if (const SubmitResult refused = admission();
      refused != SubmitResult::kAdmitted) {
    return refused;
  }
  const auto now = std::chrono::steady_clock::now();
  for (ScoreRequest& request : requests) {
    request.admitted_at = now;
    if (cache_ != nullptr) {
      request.cache_key =
          VerdictCache::key_of(request.features, request.claimed);
    }
  }
  score_span(registry_.current(), requests, responses, scratch, now,
             /*deliver=*/false);
  return SubmitResult::kAdmitted;
}

void ScoringEngine::score_span(const ModelSnapshot& snapshot,
                               std::span<const ScoreRequest> requests,
                               std::span<ScoreResponse> responses,
                               ScoreScratch& scratch,
                               std::chrono::steady_clock::time_point picked_up,
                               bool deliver) {
  // Each response reaches the callback as soon as it is built, so the
  // first verdict of a batch does not wait for the last.
  const auto emit = [&](std::size_t i) {
    if (deliver && on_response_) on_response_(responses[i]);
  };
  PROF_SCOPE("serve.batch");
  // Repeat sessions are replayed from the cache — checked against
  // *this* snapshot's version, so a hot swap between admission and
  // scoring never replays an older model's verdict — and the rest are
  // staged for the fused kernel.
  scratch.pending.clear();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const ScoreRequest& request = requests[i];
    core::Detection detection;
    if (cache_ != nullptr &&
        cache_->lookup(request.cache_key, snapshot.version, detection,
                       scratch.lane)) {
      responses[i] = answer(
          request, detection, snapshot.version, /*cached=*/true, scratch.lane,
          {request.admitted_at, picked_up, std::chrono::steady_clock::now()});
      emit(i);
      continue;
    }
    scratch.pending.push_back(i);
  }
  if (scratch.pending.empty()) return;
  scratch.rows.clear();
  scratch.claims.clear();
  for (const std::size_t i : scratch.pending) {
    scratch.rows.emplace_back(requests[i].features);
    scratch.claims.push_back(requests[i].claimed);
  }
  scratch.detections.resize(scratch.pending.size());
  {
    // The whole span goes through the SoA kernel in one pass —
    // bit-identical to per-request score() by the kernel's equivalence
    // guarantee, so this is purely a layout change.
    PROF_SCOPE("serve.kernel");
    snapshot.model->score_batch(
        std::span<const std::span<const std::int32_t>>(scratch.rows),
        std::span<const ua::UserAgent>(scratch.claims),
        std::span<core::Detection>(scratch.detections), scratch.kernel);
  }
  PROF_SCOPE("serve.respond");
  const auto done = std::chrono::steady_clock::now();
  for (std::size_t p = 0; p < scratch.pending.size(); ++p) {
    const ScoreRequest& request = requests[scratch.pending[p]];
    const core::Detection& detection = scratch.detections[p];
    responses[scratch.pending[p]] =
        answer(request, detection, snapshot.version, /*cached=*/false,
               scratch.lane, {request.admitted_at, picked_up, done});
    emit(scratch.pending[p]);
    if (cache_ != nullptr) {
      cache_->insert(request.cache_key, snapshot.version, detection,
                     scratch.lane);
    }
  }
}

ScoreResponse ScoringEngine::answer(const ScoreRequest& request,
                                    const core::Detection& detection,
                                    std::uint64_t version, bool cached,
                                    std::uint32_t lane,
                                    const AnswerTimes& times) {
  ScoreResponse response;
  response.id = request.id;
  response.detection = detection;
  response.model_version = version;
  response.worker = lane;
  response.cached = cached;
  response.latency = std::chrono::duration_cast<std::chrono::microseconds>(
      times.done - times.admitted);
  const auto latency_us = static_cast<std::uint64_t>(response.latency.count());
  // One sampling decision per verdict: it picks both the latency
  // exemplar and whether the spans are recorded.
  const bool traced = trace_sampled(request);
  const std::uint64_t exemplar =
      !traced ? 0 : request.trace_id != 0 ? request.trace_id : request.id;
  const char* terminal = "score";
  if (cached) {
    metrics_.record_cached(lane, detection.flagged, latency_us, exemplar);
    terminal = "cache_hit";
  } else {
    metrics_.record_scored(lane, detection.flagged, latency_us, exemplar);
  }
  record_audit(request, response);
  if (traced) {
    record_request_trace(request, terminal, to_us(times.admitted),
                         to_us(times.picked_up), to_us(times.done));
  }
  return response;
}

bool ScoringEngine::trace_sampled(const ScoreRequest& request) const noexcept {
  if (config_.trace == nullptr) return false;
  // An adopted context carries the client's decision for the whole
  // trace; overriding it either way would tear the assembled trace.
  if (request.trace_id != 0) return request.trace_sampled;
  return config_.trace->sampled(request.id);
}

void ScoringEngine::record_request_trace(const ScoreRequest& request,
                                         const char* terminal,
                                         std::int64_t admitted_us,
                                         std::int64_t picked_up_us,
                                         std::int64_t done_us) const {
  // Span ids are fixed by convention (see EngineConfig::trace) so the
  // rendered trace is deterministic given a request id, regardless of
  // which worker picked the request up.
  const bool adopted = request.trace_id != 0;
  const std::uint64_t trace_id = adopted ? request.trace_id : request.id;
  const std::uint32_t root =
      adopted ? adopted_span_base(request.trace_parent) + 1 : 1;
  obs::TraceSink* sink = config_.trace;
  sink->record_forced({trace_id, root, adopted ? request.trace_parent : 0,
                       adopted ? "server_request" : "request", admitted_us,
                       done_us});
  sink->record_forced(
      {trace_id, root + 1, root, "queue_wait", admitted_us, picked_up_us});
  sink->record_forced(
      {trace_id, root + 2, root, terminal, picked_up_us, done_us});
}

void ScoringEngine::record_audit(const ScoreRequest& request,
                                 const ScoreResponse& response) {
  obs::AuditTrail* audit = config_.audit;
  if (audit == nullptr) return;
  const bool flagged = response.detection.flagged;
  if (!flagged && !audit->sample_unflagged(request.id)) return;
  obs::AuditRecord record;
  record.session_id = request.id;
  record.model_version = response.model_version;
  record.claimed = request.claimed;
  record.predicted_cluster =
      static_cast<std::uint32_t>(response.detection.predicted_cluster);
  record.expected_cluster =
      response.detection.expected_cluster.has_value()
          ? static_cast<std::int32_t>(*response.detection.expected_cluster)
          : -1;
  record.risk_factor = response.detection.risk_factor;
  record.centroid_distance2 = response.detection.centroid_distance2;
  record.tags = flagged ? obs::AuditRecord::kFlagged
                        : obs::AuditRecord::kSampledUnflagged;
  if (response.cached) {
    // Replayed from the verdict cache: the evidence is byte-identical
    // to the original scoring under the same model_version, so replay
    // stays exact — the tag only records that no fresh scoring ran.
    record.tags |= obs::AuditRecord::kCached;
  }
  record.recorded_at_us = obs::steady_now_us();
  audit->record(record);
}

void ScoringEngine::worker_loop(std::uint32_t worker_index) {
  obs::prof::ThreadHandle prof_handle("serve.worker", worker_index);
  // Swapped with ring slots by pop_batch: the requests in batch[0, n)
  // are this round's, and their buffers go back to the ring next round.
  std::vector<ScoreRequest> batch;
  std::vector<ScoreResponse> responses;
  ScoreScratch scratch;
  scratch.lane = worker_index;
  for (;;) {
    std::size_t n = 0;
    {
      // Tagged so wall samples of an idle worker read as queue time,
      // not as an unattributed mystery.
      PROF_SCOPE("serve.queue_wait");
      n = queue_.pop_batch(batch, config_.max_batch);
    }
    if (n == 0) break;  // closed and drained
    if (responses.capacity() < config_.max_batch) {
      // First batch: stage for a full one, so that a worker whose
      // batches first reach max_batch mid-stream does not allocate then.
      responses.reserve(config_.max_batch);
      scratch.pending.reserve(config_.max_batch);
      scratch.rows.reserve(config_.max_batch);
      scratch.claims.reserve(config_.max_batch);
      scratch.detections.reserve(config_.max_batch);
    }
    const std::span<const ScoreRequest> ready = std::span(batch).first(n);
    if (FAULT_POINT("engine.worker_stall")) {
      // Chaos hook: freeze this worker for one fixed stall per batch.
      std::this_thread::sleep_for(kInjectedWorkerStall);
    }
    // One snapshot per batch: the whole batch is attributed to a single
    // published model version, and a concurrent publish() never tears a
    // batch across two models.
    const ModelSnapshot snapshot = registry_.current();
    metrics_.record_batch(worker_index, n);
    responses.resize(n);
    score_span(snapshot, ready, responses, scratch,
               std::chrono::steady_clock::now(), /*deliver=*/true);
    note_completed(n);
  }
}

void ScoringEngine::note_completed(std::uint64_t n) {
  const std::uint64_t done =
      completed_.fetch_add(n, std::memory_order_acq_rel) + n;
  // Notify only when a drain() could actually be releasable: a
  // lock+notify per completion would put every worker through one
  // mutex per batch item.  The lock is still taken before
  // notifying: drain() re-checks its predicate under this mutex, so a
  // notify outside it could slip between a waiter's check and its wait.
  if (done >= admitted_.load(std::memory_order_acquire)) {
    std::lock_guard lock(drain_mutex_);
    drain_cv_.notify_all();
  }
}

void ScoringEngine::retract_admission() {
  // Undo a provisional admission (the push was refused).  Must notify:
  // a drain() that raced the submit may be waiting on the transiently
  // inflated admitted_ count, and no completion will ever arrive for
  // a request that was never queued.
  admitted_.fetch_sub(1, std::memory_order_acq_rel);
  std::lock_guard lock(drain_mutex_);
  drain_cv_.notify_all();
}

void ScoringEngine::drain() {
  std::unique_lock lock(drain_mutex_);
  drain_cv_.wait(lock, [&] {
    return completed_.load(std::memory_order_acquire) >=
           admitted_.load(std::memory_order_acquire);
  });
}

void ScoringEngine::stop() {
  std::lock_guard lock(stop_mutex_);
  if (!stopping_.exchange(true, std::memory_order_acq_rel)) queue_.close();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  if (callback_gauges_registered_) {
    // The callback gauges close over `this`; remove them before the
    // engine can be destroyed under a longer-lived registry.
    config_.registry->remove(config_.metrics_prefix + "_queue_depth");
    config_.registry->remove(config_.metrics_prefix + "_model_version");
    callback_gauges_registered_ = false;
  }
}

MetricsSnapshot ScoringEngine::metrics() const {
  MetricsSnapshot snapshot = metrics_.snapshot();
  snapshot.queue_depth = queue_.size();
  snapshot.model_version = registry_.version();
  return snapshot;
}

}  // namespace bp::serve
