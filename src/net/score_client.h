// The resilient client tier for POST /score: what an edge box that
// must answer "fraud or not" inline on page loads runs against the
// scoring plane.
//
// /score is idempotent by construction — a verdict is a pure function
// of (published model version, fingerprint features, claimed UA), and
// the verdict cache makes even the server-side work of a replay
// nearly free — so the client is allowed to be aggressive about
// retries.  Four layers, outermost first:
//
//   1. deadline budget   — every score() call has one total deadline;
//                          retries, backoff and hedges all spend from
//                          it, and the call returns a typed outcome
//                          (never hangs) when it is exhausted;
//   2. retries + backoff — transport errors, 503 sheds and corrupt
//                          responses are retried with exponential
//                          backoff whose jitter is a pure function of
//                          (jitter_seed, session_id, retry index) via
//                          Rng::split — no shared mutable stream — so a
//                          chaos run's retry schedule replays exactly,
//                          per call, regardless of thread interleaving;
//   3. hedging           — optionally, a second request is launched on
//                          a different pooled connection once the
//                          primary has been quiet for hedge_delay; the
//                          caller's thread poll()s both sockets, the
//                          first definitive response wins and the
//                          loser's connection is closed (the classic
//                          tail-at-scale move: a 1% stall tax becomes
//                          a ~0.01% one);
//   4. circuit breaker   — consecutive call failures open a per-host
//                          util::Breaker (shared with the retrain
//                          supervisor, DESIGN.md §10): calls short-
//                          circuit to kBreakerOpen for breaker_cooldown
//                          calls, then exactly one half-open probe is
//                          in flight at a time; only its outcome closes
//                          or re-arms the breaker.
//
// Connections are keep-alive and pooled; any connection that saw a
// transport error or an unparseable frame is closed before it returns
// to the pool, so a desynchronized HTTP stream can never leak bytes
// into a later exchange.  A pooled connection the server closed while
// it sat idle is resent once, on a fresh connection, in the same
// attempt.
//
// Thread model: score() is thread-safe (the pool and breaker are
// internally locked and the counters are registry atomics; backoff
// jitter and trace ids are pure per-call functions).  A call runs on
// its caller's thread and starts no other: each attempt sends its
// primary, then poll()s its live sockets until the hedge time or the
// deadline, and owns the connections it acquired.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "net/http_common.h"
#include "net/wire.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "util/breaker.h"

namespace bp::net {

struct ScoreClientConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  // Per-socket-operation kernel timeout (both directions); the coarse
  // bound under which no single attempt can wedge.
  std::chrono::milliseconds io_timeout{2'000};
  // Total budget for one score() call: attempts + backoff + hedges.
  std::chrono::milliseconds deadline{5'000};
  int max_attempts = 3;
  // Backoff before retry k (k=1..): initial * 2^(k-1), capped at
  // max_backoff, scaled by a jitter factor in [0.5, 1.0) drawn
  // deterministically from jitter_seed (util::backoff).
  std::chrono::milliseconds initial_backoff{10};
  std::chrono::milliseconds max_backoff{500};
  std::uint64_t jitter_seed = 0x9d2c5680;
  // Hedge: if the primary request of an attempt has not answered
  // within this window, race a second request on another connection.
  // 0 disables hedging.
  std::chrono::milliseconds hedge_delay{0};
  // Circuit breaker: consecutive failed score() calls before it opens,
  // and how many subsequent calls short-circuit before one half-open
  // probe is allowed through.
  int breaker_threshold = 5;
  int breaker_cooldown = 8;
  // The client's counters ("<metrics_prefix>_*", and the unprefixed
  // bp_trace_propagated_total) land here; when null the client keeps
  // them in a registry of its own.  stats() reads them back, so
  // clients sharing a registry and prefix share counts.
  obs::MetricsRegistry* registry = nullptr;
  std::string metrics_prefix = "bp_client";
  // Injectable backoff sleep (tests assert schedules without waiting).
  std::function<void(std::chrono::milliseconds)> sleep_fn;

  // ---- cross-hop tracing (null = no tracing, no wire segment) ----
  // With a sink set, every score() call mints a deterministic trace id
  // — pure in session_id via Rng::split of a fixed seed, so a
  // chaos-soak trace replays bit-for-bit — and records:
  //   1      "client_call"  root span, whole call                (parent 0)
  //   8k+2   attempt k's primary request                          (parent 1)
  //   8k+3   attempt k's hedged twin, when launched               (parent 1)
  // The span that settled the call is named "attempt_winner" /
  // "hedge_winner"; the others keep "attempt" / "hedge".  Every frame
  // sent carries the context as a wire t: segment (parent = that
  // runner's span id), so the server's slot/queue/cache/kernel spans
  // join this trace — see serve::adopted_span_base.  The sink's
  // deterministic head-sampling decides once per call whether the trace
  // records (its spans then go through record_forced, not decided
  // again); the decision rides the wire, so both sides agree
  // span-for-span.
  obs::TraceSink* trace = nullptr;
};

enum class ScoreClientOutcome : std::uint8_t {
  kOk = 0,            // HTTP 200, well-formed frame, session echo matches
  kShed,              // 503 on every attempt: explicit backpressure
  kRejected,          // 4xx: the server understood us and said no (no retry)
  kTransportError,    // connect/send/recv failed on every attempt
  kCorruptResponse,   // unparseable frame or wrong session echo, every attempt
  kDeadlineExhausted, // the budget ran out before any attempt succeeded
  kBreakerOpen,       // short-circuited locally; no network I/O happened
};

std::string_view score_client_outcome_name(ScoreClientOutcome o) noexcept;

struct ScoreCallResult {
  ScoreClientOutcome outcome = ScoreClientOutcome::kTransportError;
  WireScoreResponse response{};  // valid iff outcome == kOk
  int attempts = 0;              // network attempts made (hedges excluded)
  bool hedged = false;           // a hedge was launched on some attempt
  bool hedge_won = false;        // ... and the hedge's response won
  std::string error;             // human-readable detail on failure
  // The call's minted trace id (0 when no trace sink is configured)
  // and whether the sink's head sampling kept it — what to paste into
  // /tracez?trace=<id> on either side of the wire.
  std::uint64_t trace_id = 0;
  bool trace_sampled = false;
};

struct ScoreClientStats {
  std::uint64_t calls = 0;
  std::uint64_t attempts = 0;
  std::uint64_t retries = 0;
  std::uint64_t hedges = 0;
  std::uint64_t hedge_wins = 0;
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t transport_errors = 0;
  std::uint64_t corrupt = 0;
  std::uint64_t deadline_exhausted = 0;
  std::uint64_t breaker_short_circuits = 0;
  std::uint64_t breaker_opens = 0;
  // Frames sent carrying a t: trace context (primary + hedge each).
  std::uint64_t trace_propagated = 0;
};

class ScoreClient {
 public:
  explicit ScoreClient(ScoreClientConfig config);
  ~ScoreClient();

  ScoreClient(const ScoreClient&) = delete;
  ScoreClient& operator=(const ScoreClient&) = delete;

  // One scored session: renders the wire frame, runs the retry/hedge
  // state machine, returns a typed outcome within ~deadline (+ at most
  // one io_timeout of slack for an attempt already in flight).
  ScoreCallResult score(std::uint64_t session_id, std::string_view claimed_ua,
                        std::span<const std::int32_t> features);

  ScoreClientStats stats() const;
  bool breaker_open() const;
  // Operator override: close the breaker and forget the failure streak.
  void reset_breaker();

 private:
  struct AttemptResult {
    enum class Kind : std::uint8_t {
      kOk, kShed, kRejected, kTransport, kCorrupt, kTimedOut,
    };
    Kind kind = Kind::kTransport;
    WireScoreResponse response{};
    std::string error;
    bool poison_connection = false;  // close before returning to pool
  };
  using Kind = AttemptResult::Kind;
  struct Runner;

  std::unique_ptr<HttpClient> acquire_connection();
  void release_connection(std::unique_ptr<HttpClient> connection,
                          bool healthy);
  // Sends the runner's frame (connecting first if need be) and marks it
  // live; false, with runner.result set, when it cannot be sent.
  bool send(Runner& runner);
  // Reads the response on a readable connection and judges it.
  AttemptResult read_verdict(HttpClient& connection, std::uint64_t session_id);
  // One attempt of the retry loop.  `attempt_index` is 1-based — it
  // fixes the attempt's span ids (8k+2 primary, 8k+3 hedge) and
  // `trace_id` (0 = tracing off for this call) rides every frame as a
  // wire t: segment.
  AttemptResult attempt(const std::string& frame, std::uint64_t session_id,
                        std::uint64_t trace_id, bool trace_sampled,
                        int attempt_index,
                        std::chrono::steady_clock::time_point deadline,
                        ScoreCallResult* call);

  ScoreClientConfig config_;

  std::mutex pool_mutex_;
  std::vector<std::unique_ptr<HttpClient>> pool_;

  mutable std::mutex breaker_mutex_;
  util::Breaker breaker_;

  // The client's one counter store: config_.registry, which points at
  // owned_registry_ when the config named none.  stats() folds it.
  std::unique_ptr<obs::MetricsRegistry> owned_registry_;
  obs::Counter* m_calls_ = nullptr;
  obs::Counter* m_attempts_ = nullptr;
  obs::Counter* m_retries_ = nullptr;
  obs::Counter* m_hedges_ = nullptr;
  obs::Counter* m_hedge_wins_ = nullptr;
  obs::Counter* m_ok_ = nullptr;
  obs::Counter* m_shed_ = nullptr;
  obs::Counter* m_rejected_ = nullptr;
  obs::Counter* m_transport_ = nullptr;
  obs::Counter* m_corrupt_ = nullptr;
  obs::Counter* m_deadline_ = nullptr;
  obs::Counter* m_short_circuits_ = nullptr;
  obs::Counter* m_breaker_opens_ = nullptr;
  // bp_trace_propagated_total: frames sent carrying a t: trace context
  // (one per primary and per hedge) — the client half of the server's
  // bp_trace_adopted_total.
  obs::Counter* m_trace_propagated_ = nullptr;
};

}  // namespace bp::net
