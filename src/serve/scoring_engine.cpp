#include "serve/scoring_engine.h"

#include <atomic>
#include <cassert>
#include <span>
#include <utility>

#include "obs/prof/contention.h"
#include "obs/prof/prof.h"
#include "serve/degraded.h"
#include "util/fault.h"

namespace bp::serve {

namespace {

std::size_t resolve_workers(std::size_t requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

std::int64_t steady_now_us() noexcept {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
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
      metrics_(config_.workers, config_.registry, config_.metrics_prefix),
      heartbeats_(config_.workers) {
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
  if (config_.watchdog_interval.count() > 0) {
    watchdog_ = std::thread([this] { watchdog_loop(); });
  }
}

ScoringEngine::~ScoringEngine() { stop(); }

bool ScoringEngine::try_cached_submit(const ScoreRequest& request) {
  // The submit-side fast path: answer on the submitting thread, never
  // touching the queue or the drain accounting (the response is
  // delivered before submit returns, so no drain() can be waiting on
  // it).  This is where the heavy-tailed win lives, so the path is
  // kept allocation- and syscall-free: no request copy, no snapshot
  // shared_ptr traffic (the atomic version counter is enough — a hit
  // is only served when its entry was minted under exactly that
  // version), a fixed counter stripe (one submitter keeps one set of
  // cache lines hot), and the clock only read when a trace span needs
  // timestamps (the latency is 0 either way).  A repeat session costs
  // one hash + one seqlock read.
  if (cache_ == nullptr) return false;
  const std::uint64_t version = registry_.version();
  if (version == 0) return false;
  core::Detection detection;
  if (!cache_->lookup(VerdictCache::key_of(request.features, request.claimed),
                      version, detection, /*stripe_hint=*/0)) {
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

SubmitResult ScoringEngine::submit(const ScoreRequest& request) {
  if (stopping_.load(std::memory_order_acquire)) return SubmitResult::kStopped;
  if (try_cached_submit(request)) return SubmitResult::kAdmitted;
  return submit_miss(ScoreRequest(request));  // miss: copy into the queue
}

SubmitResult ScoringEngine::submit(ScoreRequest&& request) {
  if (stopping_.load(std::memory_order_acquire)) return SubmitResult::kStopped;
  if (try_cached_submit(request)) return SubmitResult::kAdmitted;
  return submit_miss(std::move(request));
}

SubmitResult ScoringEngine::submit_miss(ScoreRequest&& request) {
  request.admitted_at = std::chrono::steady_clock::now();
  if (cache_ != nullptr) {
    // Computed once here; workers re-check it against their batch's
    // snapshot version and insert under it after scoring.
    request.cache_key =
        VerdictCache::key_of(request.features, request.claimed);
  }
  // Count admission before the push: once the request is in the queue a
  // worker may complete it, and `completed_` must never overtake
  // `admitted_` or drain() would return early.
  admitted_.fetch_add(1, std::memory_order_acq_rel);
  std::optional<ScoreRequest> displaced;
  switch (queue_.push(std::move(request), displaced)) {
    case PushResult::kAccepted:
      return SubmitResult::kAdmitted;
    case PushResult::kDisplacedOldest:
      // The new request is admitted; the oldest queued one is completed
      // here and now as an explicit shed.
      deliver_unscored(*displaced, ResponseStatus::kShed, 0);
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
  if (stopping_.load(std::memory_order_acquire)) return SubmitResult::kStopped;
  const auto now = std::chrono::steady_clock::now();
  for (ScoreRequest& request : requests) {
    request.admitted_at = now;
    if (cache_ != nullptr) {
      request.cache_key =
          VerdictCache::key_of(request.features, request.claimed);
    }
  }
  return score_span(registry_.current(), requests, responses, scratch, now,
                    /*deliver=*/false)
             ? SubmitResult::kAdmitted
             : SubmitResult::kRejected;
}

bool ScoringEngine::score_span(const ModelSnapshot& snapshot,
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
  if (!snapshot) {
    if (!config_.degrade_without_model) return false;
    // Degraded mode: no model, but the engine still answers — the
    // UA-prior fallback judges the claimed UA alone, and the status
    // tells the caller no fingerprint evidence was used.
    PROF_SCOPE("serve.degraded");
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const ScoreRequest& request = requests[i];
      responses[i] = answer(
          request, degraded_score(request.claimed), /*version=*/0,
          /*cached=*/false, scratch.lane,
          {request.admitted_at, picked_up, std::chrono::steady_clock::now()});
      emit(i);
    }
    return true;
  }
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
  if (scratch.pending.empty()) return true;
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
  return true;
}

ScoreResponse ScoringEngine::answer(const ScoreRequest& request,
                                    const core::Detection& detection,
                                    std::uint64_t version, bool cached,
                                    std::uint32_t lane,
                                    const AnswerTimes& times) {
  ScoreResponse response;
  response.id = request.id;
  response.status =
      version == 0 ? ResponseStatus::kDegraded : ResponseStatus::kScored;
  response.detection = detection;
  response.model_version = version;
  response.worker = lane;
  response.cached = cached;
  response.latency = std::chrono::duration_cast<std::chrono::microseconds>(
      times.done - times.admitted);
  const auto latency_us = static_cast<std::uint64_t>(response.latency.count());
  const std::uint64_t exemplar = exemplar_trace_id(request);
  const char* terminal = "score";
  if (version == 0) {
    metrics_.record_degraded(lane, detection.flagged, latency_us, exemplar);
    terminal = "degrade";
  } else if (cached) {
    metrics_.record_cached(lane, detection.flagged, latency_us, exemplar);
    terminal = "cache_hit";
  } else {
    metrics_.record_scored(lane, detection.flagged, latency_us, exemplar);
  }
  record_audit(request, response);
  record_request_trace(request, terminal, to_us(times.admitted),
                       to_us(times.picked_up), to_us(times.done));
  return response;
}

void ScoringEngine::record_request_trace(const ScoreRequest& request,
                                         const char* terminal,
                                         std::int64_t admitted_us,
                                         std::int64_t picked_up_us,
                                         std::int64_t done_us) const {
  obs::TraceSink* sink = config_.trace;
  if (sink == nullptr) return;
  if (request.trace_id != 0) {
    // Adopted cross-hop context: the client already decided sampling
    // for the whole trace — honor it in both directions (record_forced
    // bypasses the local head-sampling that would otherwise tear the
    // assembled trace apart; an unsampled trace records nothing here).
    if (!request.trace_sampled) return;
    const std::uint32_t base = adopted_span_base(request.trace_parent);
    sink->record_forced({request.trace_id, base + 1, request.trace_parent,
                         "server_request", admitted_us, done_us});
    sink->record_forced({request.trace_id, base + 2, base + 1, "queue_wait",
                         admitted_us, picked_up_us});
    sink->record_forced(
        {request.trace_id, base + 3, base + 1, terminal, picked_up_us, done_us});
    return;
  }
  if (!sink->sampled(request.id)) return;
  // Span ids are fixed by convention (see EngineConfig::trace) so the
  // rendered trace is deterministic given a request id, regardless of
  // which worker picked the request up.
  sink->record({request.id, 1, 0, "request", admitted_us, done_us});
  sink->record({request.id, 2, 1, "queue_wait", admitted_us, picked_up_us});
  sink->record({request.id, 3, 1, terminal, picked_up_us, done_us});
}

std::uint64_t ScoringEngine::exemplar_trace_id(
    const ScoreRequest& request) const noexcept {
  const obs::TraceSink* sink = config_.trace;
  if (sink == nullptr) return 0;
  if (request.trace_id != 0) {
    return request.trace_sampled ? request.trace_id : 0;
  }
  return sink->sampled(request.id) ? request.id : 0;
}

void ScoringEngine::record_audit(const ScoreRequest& request,
                                 const ScoreResponse& response) {
  obs::AuditTrail* audit = config_.audit;
  if (audit == nullptr) return;
  if (response.status != ResponseStatus::kScored &&
      response.status != ResponseStatus::kDegraded) {
    return;  // sheds/deadline misses carry no verdict to audit
  }
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
  if (response.status == ResponseStatus::kDegraded) {
    record.tags |= obs::AuditRecord::kDegraded;
  }
  if (response.cached) {
    // Replayed from the verdict cache: the evidence is byte-identical
    // to the original scoring under the same model_version, so replay
    // stays exact — the tag only records that no fresh scoring ran.
    record.tags |= obs::AuditRecord::kCached;
  }
  record.recorded_at_us = steady_now_us();
  audit->record(record);
}

void ScoringEngine::worker_loop(std::uint32_t worker_index) {
  obs::prof::ThreadHandle prof_handle("serve.worker", worker_index);
  std::vector<ScoreRequest> batch;
  std::vector<ScoreResponse> responses;
  ScoreScratch scratch;
  scratch.lane = worker_index;
  Heartbeat& heartbeat = heartbeats_[worker_index];
  for (;;) {
    {
      // Tagged so wall samples of an idle worker read as queue time,
      // not as an unattributed mystery.
      PROF_SCOPE("serve.queue_wait");
      if (!queue_.pop_batch(batch, config_.max_batch)) break;
    }
    heartbeat.busy_since_us.store(steady_now_us(), std::memory_order_relaxed);
    if (FAULT_POINT("engine.worker_stall")) {
      // Chaos hook: freeze this worker long enough for the watchdog to
      // notice (2x the stall threshold).
      std::this_thread::sleep_for(config_.stall_threshold * 2);
    }
    // One snapshot per batch: the whole batch is attributed to a single
    // published model version, and a concurrent publish() never tears a
    // batch across two models.  Without a model (and without the
    // degraded fallback) the batch waits for the first publish.
    ModelSnapshot snapshot = registry_.current();
    while (!snapshot && !config_.degrade_without_model &&
           !stopping_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      snapshot = registry_.current();
    }
    if (!snapshot && !config_.degrade_without_model) {
      // Stopped before any model was ever published: complete the batch
      // as shed so no admitted request is left without a response.
      for (const ScoreRequest& request : batch) {
        deliver_unscored(request, ResponseStatus::kShed, worker_index);
      }
      heartbeat.busy_since_us.store(0, std::memory_order_relaxed);
      continue;
    }
    if (snapshot) metrics_.record_batch(worker_index, batch.size());
    // Deadline triage: misses are answered here and compacted out; the
    // rest go through the span scorer in one pass.
    const auto picked_up = std::chrono::steady_clock::now();
    std::size_t kept = 0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (past_deadline(batch[i], picked_up)) {
        // deliver_unscored note_completed()s itself — counting it in
        // `kept` too would overshoot completed_ and release a concurrent
        // drain() with requests still in flight.
        deliver_unscored(batch[i], ResponseStatus::kDeadlineExceeded,
                         worker_index);
        continue;
      }
      if (kept != i) batch[kept] = std::move(batch[i]);
      ++kept;
    }
    responses.resize(kept);
    score_span(snapshot, std::span<const ScoreRequest>(batch.data(), kept),
               responses, scratch, picked_up, /*deliver=*/true);
    if (kept > 0) note_completed(kept);
    heartbeat.busy_since_us.store(0, std::memory_order_relaxed);
  }
}

void ScoringEngine::watchdog_loop() {
  obs::prof::ThreadHandle prof_handle("serve.watchdog", 0);
  std::unique_lock lock(watchdog_mutex_);
  while (!stopping_.load(std::memory_order_acquire)) {
    watchdog_cv_.wait_for(lock, config_.watchdog_interval, [&] {
      return stopping_.load(std::memory_order_acquire);
    });
    if (stopping_.load(std::memory_order_acquire)) break;
    const std::int64_t now_us = steady_now_us();
    const std::int64_t threshold_us =
        std::chrono::duration_cast<std::chrono::microseconds>(
            config_.stall_threshold)
            .count();
    std::uint64_t stalled = 0;
    for (const Heartbeat& heartbeat : heartbeats_) {
      const std::int64_t busy_since =
          heartbeat.busy_since_us.load(std::memory_order_relaxed);
      if (busy_since != 0 && now_us - busy_since > threshold_us) ++stalled;
    }
    metrics_.set_stalled_workers(stalled);
  }
}

void ScoringEngine::deliver_unscored(const ScoreRequest& request,
                                     ResponseStatus status,
                                     std::uint32_t worker_index) {
  ScoreResponse response;
  response.id = request.id;
  response.status = status;
  response.worker = worker_index;
  const auto done = std::chrono::steady_clock::now();
  response.latency = std::chrono::duration_cast<std::chrono::microseconds>(
      done - request.admitted_at);
  const bool shed = status == ResponseStatus::kShed;
  if (shed) {
    metrics_.record_shed(worker_index);
  } else {
    metrics_.record_deadline_exceeded(worker_index);
  }
  if (on_response_) on_response_(response);
  record_request_trace(request, shed ? "shed" : "deadline",
                       to_us(request.admitted_at), to_us(done), to_us(done));
  note_completed(1);
}

void ScoringEngine::note_completed(std::uint64_t n) {
  const std::uint64_t done =
      completed_.fetch_add(n, std::memory_order_acq_rel) + n;
  // Notify only when a drain() could actually be releasable.  The old
  // unconditional lock+notify per completion put every worker through
  // one mutex per batch item — measurable as the workers=4 throughput
  // collapse in BENCH_serving.json.  The lock is still taken before
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
  if (!stopping_.exchange(true, std::memory_order_acq_rel)) {
    queue_.close();
    {
      std::lock_guard watchdog_lock(watchdog_mutex_);
      watchdog_cv_.notify_all();
    }
  }
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  if (watchdog_.joinable()) watchdog_.join();
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
