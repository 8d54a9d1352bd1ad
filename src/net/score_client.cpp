#include "net/score_client.h"

#include <algorithm>
#include <condition_variable>
#include <thread>
#include <utility>

#include "util/rng.h"

namespace bp::net {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kPoolCapacity = 4;  // idle connections kept for reuse
constexpr std::uint64_t kTraceSeed = 0x51ace;

}  // namespace

std::string_view score_client_outcome_name(ScoreClientOutcome o) noexcept {
  switch (o) {
    case ScoreClientOutcome::kOk: return "ok";
    case ScoreClientOutcome::kShed: return "shed";
    case ScoreClientOutcome::kRejected: return "rejected";
    case ScoreClientOutcome::kTransportError: return "transport_error";
    case ScoreClientOutcome::kCorruptResponse: return "corrupt_response";
    case ScoreClientOutcome::kDeadlineExhausted: return "deadline_exhausted";
    case ScoreClientOutcome::kBreakerOpen: return "breaker_open";
  }
  return "unknown";
}

// The race an attempt runs when hedging is on: primary (and maybe a
// hedge) settle the shared state; a *definitive* server answer settles
// immediately, a transport-level failure only settles once no runner
// is left — a fast-failing primary must not steal the race from a
// hedge that would have succeeded.
struct ScoreClient::RaceState {
  std::mutex mutex;
  std::condition_variable cv;
  int outstanding = 1;  // primary; +1 when a hedge launches
  bool settled = false;
  bool winner_is_hedge = false;
  AttemptResult winner;

  void settle(AttemptResult result, bool is_hedge) {
    std::lock_guard<std::mutex> lock(mutex);
    if (settled) return;
    --outstanding;
    const bool is_definitive =
        result.kind == AttemptResult::Kind::kOk ||
        result.kind == AttemptResult::Kind::kShed ||
        result.kind == AttemptResult::Kind::kRejected;
    if (!is_definitive && outstanding > 0) {
      return;  // let the other runner finish the race
    }
    settled = true;
    winner = std::move(result);
    winner_is_hedge = is_hedge;
    cv.notify_all();
  }
};

ScoreClient::ScoreClient(ScoreClientConfig config)
    : config_(std::move(config)),
      breaker_(config_.breaker_threshold, config_.breaker_cooldown) {
  if (config_.registry != nullptr) {
    obs::MetricsRegistry& r = *config_.registry;
    const std::string& p = config_.metrics_prefix;
    m_calls_ = &r.counter(p + "_calls_total", "score() calls");
    m_attempts_ = &r.counter(p + "_attempts_total", "network attempts");
    m_retries_ = &r.counter(p + "_retries_total", "backoff retries");
    m_hedges_ = &r.counter(p + "_hedges_total", "hedged second requests");
    m_hedge_wins_ = &r.counter(p + "_hedge_wins_total",
                               "races settled by the hedge");
    m_ok_ = &r.counter(p + "_ok_total", "calls answered with a verdict");
    m_shed_ = &r.counter(p + "_shed_total", "calls shed by the server (503)");
    m_rejected_ = &r.counter(p + "_rejected_total", "calls refused (4xx)");
    m_transport_ = &r.counter(p + "_transport_errors_total",
                              "calls failed at the transport");
    m_corrupt_ = &r.counter(p + "_corrupt_responses_total",
                            "calls answered with an invalid frame");
    m_deadline_ = &r.counter(p + "_deadline_exhausted_total",
                             "calls that ran out of budget");
    m_short_circuits_ = &r.counter(p + "_breaker_short_circuits_total",
                                   "calls short-circuited by the breaker");
    m_breaker_opens_ = &r.counter(p + "_breaker_opens_total",
                                  "breaker open transitions");
    m_trace_propagated_ = &r.counter(
        "bp_trace_propagated_total",
        "frames sent carrying a t: trace context (primaries and hedges)");
    r.gauge_callback(
        p + "_breaker_open",
        [this] { return breaker_open() ? 1.0 : 0.0; },
        "1 while the circuit breaker is open");
    gauge_registered_ = true;
  }
}

ScoreClient::~ScoreClient() {
  if (gauge_registered_ && config_.registry != nullptr) {
    config_.registry->remove(config_.metrics_prefix + "_breaker_open");
  }
}

void ScoreClient::bump(std::uint64_t ScoreClientStats::* field,
                       obs::Counter* counter) {
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++(stats_.*field);
  }
  if (counter != nullptr) counter->increment();
}

ScoreClientStats ScoreClient::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

bool ScoreClient::breaker_open() const {
  std::lock_guard<std::mutex> lock(breaker_mutex_);
  return breaker_.open();
}

void ScoreClient::reset_breaker() {
  std::lock_guard<std::mutex> lock(breaker_mutex_);
  breaker_.reset();
}

std::unique_ptr<HttpClient> ScoreClient::acquire_connection() {
  {
    std::lock_guard<std::mutex> lock(pool_mutex_);
    if (!pool_.empty()) {
      std::unique_ptr<HttpClient> connection = std::move(pool_.back());
      pool_.pop_back();
      return connection;
    }
  }
  return std::make_unique<HttpClient>(config_.host, config_.port,
                                      config_.io_timeout);
}

void ScoreClient::release_connection(std::unique_ptr<HttpClient> connection,
                                     bool healthy) {
  if (!connection) return;
  if (!healthy) connection->close();
  std::lock_guard<std::mutex> lock(pool_mutex_);
  if (pool_.size() < kPoolCapacity) {
    pool_.push_back(std::move(connection));
  }
  // else: dropped; its destructor closes the socket.
}

ScoreClient::AttemptResult ScoreClient::exchange_once(
    HttpClient& connection, const std::string& frame,
    std::uint64_t session_id) {
  AttemptResult result;
  const bool reused = connection.connected();
  if (!reused && !connection.connect()) {
    result.kind = AttemptResult::Kind::kTransport;
    result.error = connection.error();
    result.poison_connection = true;
    return result;
  }
  if (!connection.send_request("POST", "/score", frame,
                               "application/x-bpwire")) {
    // A reused keep-alive connection may have been closed (or reaped)
    // by the server between calls; one reconnect retry, send-side only
    // — the request was never read, so resending cannot duplicate it
    // mid-pipeline.
    connection.close();
    if (!reused || !connection.connect() ||
        !connection.send_request("POST", "/score", frame,
                                 "application/x-bpwire")) {
      result.kind = AttemptResult::Kind::kTransport;
      result.error = connection.error();
      result.poison_connection = true;
      return result;
    }
  }
  const HttpResult http = connection.read_response();
  if (http.status < 0) {
    result.kind = AttemptResult::Kind::kTransport;
    result.error = http.error;
    result.poison_connection = true;
    return result;
  }
  if (http.status == 503) {
    result.kind = AttemptResult::Kind::kShed;
    result.error = "server shed the request (503)";
    return result;
  }
  if (http.status >= 400 && http.status < 500) {
    result.kind = AttemptResult::Kind::kRejected;
    result.error = "server refused (" + std::to_string(http.status) + "): " +
                   http.body;
    return result;
  }
  if (http.status != 200) {
    result.kind = AttemptResult::Kind::kCorrupt;
    result.error = "unexpected status " + std::to_string(http.status);
    result.poison_connection = true;
    return result;
  }
  WireScoreResponse response;
  const WireError wire = parse_score_response(http.body, &response);
  if (wire != WireError::kOk) {
    result.kind = AttemptResult::Kind::kCorrupt;
    result.error = "invalid response frame: ";
    result.error.append(wire_error_name(wire));
    result.poison_connection = true;  // framing may be desynchronized
    return result;
  }
  if (response.session_id != session_id) {
    result.kind = AttemptResult::Kind::kCorrupt;
    result.error = "session echo mismatch";
    result.poison_connection = true;
    return result;
  }
  result.kind = AttemptResult::Kind::kOk;
  result.response = response;
  return result;
}

ScoreClient::AttemptResult ScoreClient::attempt(
    const std::string& frame, std::uint64_t session_id, std::uint64_t trace_id,
    bool trace_sampled, int attempt_index, Clock::time_point deadline,
    ScoreCallResult* call) {
  const bool tracing = trace_id != 0;
  const std::uint32_t primary_span =
      8u * static_cast<std::uint32_t>(attempt_index) + 2;
  const std::uint32_t hedge_span = primary_span + 1;

  // Each runner sends the base frame plus its *own* t: segment (parent
  // = that runner's span id), so the server-side spans parent under the
  // exact attempt — primary or hedged twin — that reached the ingress.
  std::string primary_frame_storage;
  const std::string* primary_frame = &frame;
  if (tracing) {
    primary_frame_storage = frame;
    append_trace_context({trace_id, primary_span, trace_sampled},
                         &primary_frame_storage);
    primary_frame = &primary_frame_storage;
    bump(&ScoreClientStats::trace_propagated, m_trace_propagated_);
  }

  std::unique_ptr<HttpClient> primary = acquire_connection();

  if (config_.hedge_delay.count() == 0) {
    const std::int64_t start_us = tracing ? obs::steady_now_us() : 0;
    AttemptResult result = exchange_once(*primary, *primary_frame, session_id);
    release_connection(std::move(primary), !result.poison_connection);
    if (tracing && trace_sampled) {
      // A lone runner wins its attempt when it settled the call with a
      // definitive server answer a retry will not supersede.
      const bool winner = result.kind == AttemptResult::Kind::kOk ||
                          result.kind == AttemptResult::Kind::kRejected;
      config_.trace->record_forced({trace_id, primary_span, 1,
                             winner ? "attempt_winner" : "attempt", start_us,
                             obs::steady_now_us()});
    }
    return result;
  }

  RaceState state;
  std::int64_t primary_start_us = 0;
  std::int64_t primary_end_us = 0;
  std::thread primary_thread([&] {
    if (tracing) primary_start_us = obs::steady_now_us();
    AttemptResult result = exchange_once(*primary, *primary_frame, session_id);
    if (tracing) primary_end_us = obs::steady_now_us();
    state.settle(std::move(result), /*is_hedge=*/false);
  });

  std::unique_ptr<HttpClient> hedge;
  std::thread hedge_thread;
  std::string hedge_frame_storage;
  const std::string* hedge_frame = &frame;
  std::int64_t hedge_start_us = 0;
  std::int64_t hedge_end_us = 0;
  bool launched_hedge = false;
  AttemptResult winner;
  bool hedge_won = false;
  {
    std::unique_lock<std::mutex> lock(state.mutex);
    const Clock::time_point hedge_at =
        std::min(deadline, Clock::now() + config_.hedge_delay);
    if (!state.cv.wait_until(lock, hedge_at,
                             [&] { return state.settled; }) &&
        Clock::now() < deadline) {
      ++state.outstanding;
      lock.unlock();
      hedge = acquire_connection();
      if (tracing) {
        hedge_frame_storage = frame;
        append_trace_context({trace_id, hedge_span, trace_sampled},
                             &hedge_frame_storage);
        hedge_frame = &hedge_frame_storage;
        bump(&ScoreClientStats::trace_propagated, m_trace_propagated_);
      }
      launched_hedge = true;
      call->hedged = true;
      bump(&ScoreClientStats::hedges, m_hedges_);
      hedge_thread = std::thread([&] {
        if (tracing) hedge_start_us = obs::steady_now_us();
        AttemptResult result = exchange_once(*hedge, *hedge_frame, session_id);
        if (tracing) hedge_end_us = obs::steady_now_us();
        state.settle(std::move(result), /*is_hedge=*/true);
      });
      lock.lock();
    }
    if (!state.cv.wait_until(lock, deadline,
                             [&] { return state.settled; })) {
      // Budget exhausted with requests still in flight: settle the
      // race ourselves so late finishers discard their results.
      state.settled = true;
      state.winner.kind = AttemptResult::Kind::kTimedOut;
      state.winner.error = "deadline exceeded with request in flight";
    }
    winner = state.winner;
    hedge_won = state.winner_is_hedge;
  }

  // Cancel the losers: shutting their sockets down unblocks whatever
  // they are waiting on, so the joins below are prompt.
  if (winner.kind == AttemptResult::Kind::kTimedOut) {
    primary->abort_connection();
    if (launched_hedge) hedge->abort_connection();
  } else if (hedge_won) {
    primary->abort_connection();
  } else if (launched_hedge) {
    hedge->abort_connection();
  }
  primary_thread.join();
  if (hedge_thread.joinable()) hedge_thread.join();

  const bool timed_out = winner.kind == AttemptResult::Kind::kTimedOut;
  // The winner's connection survives if its exchange left it healthy;
  // every aborted loser is poisoned by construction.
  const bool primary_healthy =
      !timed_out && !hedge_won && !winner.poison_connection;
  const bool hedge_healthy =
      !timed_out && hedge_won && !winner.poison_connection;
  release_connection(std::move(primary), primary_healthy);
  if (launched_hedge) release_connection(std::move(hedge), hedge_healthy);

  if (hedge_won && !timed_out) {
    call->hedge_won = true;
    bump(&ScoreClientStats::hedge_wins, m_hedge_wins_);
  }

  if (tracing && trace_sampled) {
    // Both runners are joined, so their timestamps are final; exactly
    // the race-settling runner — and only on a definitive answer —
    // carries the *_winner name.
    const bool definitive_win =
        !timed_out && (winner.kind == AttemptResult::Kind::kOk ||
                       winner.kind == AttemptResult::Kind::kRejected);
    obs::TraceSink* sink = config_.trace;
    sink->record_forced({trace_id, primary_span, 1,
                  definitive_win && !hedge_won ? "attempt_winner" : "attempt",
                  primary_start_us, primary_end_us});
    if (launched_hedge) {
      sink->record_forced({trace_id, hedge_span, 1,
                    definitive_win && hedge_won ? "hedge_winner" : "hedge",
                    hedge_start_us, hedge_end_us});
    }
  }
  return winner;
}

ScoreCallResult ScoreClient::score(std::uint64_t session_id,
                                   std::string_view claimed_ua,
                                   std::span<const std::int32_t> features) {
  ScoreCallResult call;
  bump(&ScoreClientStats::calls, m_calls_);

  bool admitted;
  {
    std::lock_guard<std::mutex> lock(breaker_mutex_);
    admitted = breaker_.admit();
  }
  if (!admitted) {
    call.outcome = ScoreClientOutcome::kBreakerOpen;
    call.error = "circuit breaker open";
    bump(&ScoreClientStats::breaker_short_circuits, m_short_circuits_);
    return call;
  }

  std::string frame;
  render_score_request(session_id, claimed_ua, features, &frame);

  // Mint the call's trace id: pure in session_id, so a deterministic
  // replay of the same session stream yields the same trace ids in the
  // same order, whatever the thread interleaving.
  obs::TraceSink* sink = config_.trace;
  std::int64_t call_start_us = 0;
  if (sink != nullptr) {
    util::Rng stream = util::Rng(kTraceSeed).split(session_id);
    call.trace_id = stream.next();
    if (call.trace_id == 0) call.trace_id = 1;  // 0 means "no context"
    call.trace_sampled = sink->sampled(call.trace_id);
    call_start_us = obs::steady_now_us();
  }
  const auto finish_trace = [&] {
    if (sink != nullptr && call.trace_sampled) {
      sink->record_forced({call.trace_id, 1, 0, "client_call", call_start_us,
                    obs::steady_now_us()});
    }
  };

  const Clock::time_point deadline = Clock::now() + config_.deadline;
  const int max_attempts = std::max(config_.max_attempts, 1);

  AttemptResult last;
  bool out_of_budget = false;
  for (int a = 0; a < max_attempts; ++a) {
    if (a > 0) {
      const Clock::time_point now = Clock::now();
      if (now >= deadline) {
        out_of_budget = true;
        break;
      }
      const auto remaining =
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                                now);
      // Jitter from a pure pre-split stream: retry k of session s waits
      // the same on every run and thread interleaving, so a chaos soak's
      // backoff schedule — and its trace — replays bit-for-bit.
      util::Rng jitter = util::Rng(config_.jitter_seed)
                             .split(session_id)
                             .split(static_cast<std::uint64_t>(a));
      const std::chrono::milliseconds backoff =
          std::min(util::backoff(config_.initial_backoff, config_.max_backoff,
                                 a - 1, jitter.uniform()),
                   remaining);
      if (backoff.count() > 0) {
        if (config_.sleep_fn) {
          config_.sleep_fn(backoff);
        } else {
          std::this_thread::sleep_for(backoff);
        }
      }
      bump(&ScoreClientStats::retries, m_retries_);
      if (Clock::now() >= deadline) {
        out_of_budget = true;
        break;
      }
    }
    ++call.attempts;
    bump(&ScoreClientStats::attempts, m_attempts_);
    last = attempt(frame, session_id, call.trace_id, call.trace_sampled, a + 1,
                   deadline, &call);
    // A 4xx means the plane is up and answering: this caller's bug, not
    // a reason to retry or to open the breaker.
    if (last.kind == AttemptResult::Kind::kOk ||
        last.kind == AttemptResult::Kind::kRejected) {
      break;
    }
    if (last.kind == AttemptResult::Kind::kTimedOut) {
      out_of_budget = true;
      break;
    }
  }

  // (Running out of budget always follows a failed attempt.)
  const bool answered = last.kind == AttemptResult::Kind::kOk ||
                        last.kind == AttemptResult::Kind::kRejected;
  bool opened = false;
  {
    std::lock_guard<std::mutex> lock(breaker_mutex_);
    if (answered) {
      breaker_.on_success();
    } else {
      opened = breaker_.on_failure();
    }
  }
  if (opened) bump(&ScoreClientStats::breaker_opens, m_breaker_opens_);

  call.error = last.error;
  if (out_of_budget) {
    call.outcome = ScoreClientOutcome::kDeadlineExhausted;
    if (call.error.empty()) call.error = "deadline exhausted";
    bump(&ScoreClientStats::deadline_exhausted, m_deadline_);
  } else if (last.kind == AttemptResult::Kind::kOk) {
    call.outcome = ScoreClientOutcome::kOk;
    call.response = last.response;
    bump(&ScoreClientStats::ok, m_ok_);
  } else if (last.kind == AttemptResult::Kind::kRejected) {
    call.outcome = ScoreClientOutcome::kRejected;
    bump(&ScoreClientStats::rejected, m_rejected_);
  } else if (last.kind == AttemptResult::Kind::kShed) {
    call.outcome = ScoreClientOutcome::kShed;
    bump(&ScoreClientStats::shed, m_shed_);
  } else if (last.kind == AttemptResult::Kind::kCorrupt) {
    call.outcome = ScoreClientOutcome::kCorruptResponse;
    bump(&ScoreClientStats::corrupt, m_corrupt_);
  } else {
    call.outcome = ScoreClientOutcome::kTransportError;
    bump(&ScoreClientStats::transport_errors, m_transport_);
  }
  finish_trace();
  return call;
}

}  // namespace bp::net
