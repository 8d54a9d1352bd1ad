#include "net/score_client.h"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <thread>
#include <utility>

#include "util/rng.h"

namespace bp::net {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kPoolCapacity = 4;  // idle connections kept for reuse
constexpr std::uint64_t kTraceSeed = 0x51ace;

// True when a readable socket holds no response byte but EOF or a
// reset: the server closed the connection before answering.
bool closed_before_response(int fd) {
  char byte;
  const ssize_t n = ::recv(fd, &byte, 1, MSG_PEEK | MSG_DONTWAIT);
  return n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK);
}

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

// One request of an attempt, the primary or its hedged twin, from
// its send to its verdict.
struct ScoreClient::Runner {
  std::uint32_t span_id = 0;
  // The base frame plus this runner's own t: segment (parent = its
  // span id), so the server-side spans parent under the exact request
  // that reached the ingress.
  std::string frame;
  std::unique_ptr<HttpClient> connection;
  // The connection came live from the pool, so the server may have
  // closed it while it sat idle: a failed send, or EOF or a reset
  // before any response byte, earns one resend on a fresh connection.
  bool reused = false;
  bool live = false;  // sent, awaiting its response
  Clock::time_point silent_until;  // sent + io_timeout
  std::int64_t start_us = 0;
  std::int64_t end_us = 0;
  AttemptResult result;
};

ScoreClient::ScoreClient(ScoreClientConfig config)
    : config_(std::move(config)),
      breaker_(config_.breaker_threshold, config_.breaker_cooldown) {
  if (config_.registry == nullptr) {
    owned_registry_ = std::make_unique<obs::MetricsRegistry>();
    config_.registry = owned_registry_.get();
  }
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
      p + "_breaker_open", [this] { return breaker_open() ? 1.0 : 0.0; },
      "1 while the circuit breaker is open");
}

ScoreClient::~ScoreClient() {
  config_.registry->remove(config_.metrics_prefix + "_breaker_open");
}

ScoreClientStats ScoreClient::stats() const {
  return {.calls = m_calls_->value(),
          .attempts = m_attempts_->value(),
          .retries = m_retries_->value(),
          .hedges = m_hedges_->value(),
          .hedge_wins = m_hedge_wins_->value(),
          .ok = m_ok_->value(),
          .shed = m_shed_->value(),
          .rejected = m_rejected_->value(),
          .transport_errors = m_transport_->value(),
          .corrupt = m_corrupt_->value(),
          .deadline_exhausted = m_deadline_->value(),
          .breaker_short_circuits = m_short_circuits_->value(),
          .breaker_opens = m_breaker_opens_->value(),
          .trace_propagated = m_trace_propagated_->value()};
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
  if (!healthy) connection->close();
  std::lock_guard<std::mutex> lock(pool_mutex_);
  if (pool_.size() < kPoolCapacity) {
    pool_.push_back(std::move(connection));
  }
  // else: dropped; its destructor closes the socket.
}

bool ScoreClient::send(Runner& runner) {
  HttpClient& connection = *runner.connection;
  while (!connection.send_request("POST", "/score", runner.frame,
                                  "application/x-bpwire")) {
    if (!runner.reused) {
      runner.result = {.kind = Kind::kTransport, .error = connection.error(),
                       .poison_connection = true};
      return false;
    }
    // Closed by the server while pooled: the request was never read,
    // so resending it on a fresh connection cannot duplicate it.
    connection.close();
    runner.reused = false;
  }
  runner.live = true;
  runner.silent_until = Clock::now() + config_.io_timeout;
  return true;
}

ScoreClient::AttemptResult ScoreClient::read_verdict(
    HttpClient& connection, std::uint64_t session_id) {
  const HttpResult http = connection.read_response();
  if (http.status < 0) {
    return {.kind = Kind::kTransport, .error = http.error,
            .poison_connection = true};
  }
  if (http.status == 503) {
    return {.kind = Kind::kShed, .error = "server shed the request (503)"};
  }
  if (http.status >= 400 && http.status < 500) {
    return {.kind = Kind::kRejected,
            .error = "server refused (" + std::to_string(http.status) +
                     "): " + http.body};
  }
  if (http.status != 200) {
    return {.kind = Kind::kCorrupt,
            .error = "unexpected status " + std::to_string(http.status),
            .poison_connection = true};
  }
  WireScoreResponse response;
  const WireError wire = parse_score_response(http.body, &response);
  if (wire != WireError::kOk) {
    // The framing may be desynchronized: the connection is closed.
    return {.kind = Kind::kCorrupt,
            .error = "invalid response frame: " +
                     std::string(wire_error_name(wire)),
            .poison_connection = true};
  }
  if (response.session_id != session_id) {
    return {.kind = Kind::kCorrupt, .error = "session echo mismatch",
            .poison_connection = true};
  }
  return {.kind = Kind::kOk, .response = response, .error = {}};
}

ScoreClient::AttemptResult ScoreClient::attempt(
    const std::string& frame, std::uint64_t session_id, std::uint64_t trace_id,
    bool trace_sampled, int attempt_index, Clock::time_point deadline,
    ScoreCallResult* call) {
  const bool tracing = trace_id != 0;
  Runner runners[2];  // the primary, then the hedge
  int launched = 0;
  int winner = -1;  // the runner that settled the attempt
  const auto finish = [&](int i) {
    Runner& runner = runners[i];
    runner.live = false;
    if (tracing) runner.end_us = obs::steady_now_us();
    // A definitive server answer settles at once; a transport or
    // corrupt result only once no runner is left, so a fast-failing
    // primary cannot steal the attempt from a hedge that would answer.
    const Kind kind = runner.result.kind;
    if (kind == Kind::kOk || kind == Kind::kShed || kind == Kind::kRejected ||
        !(runners[0].live || runners[1].live)) {
      winner = i;
    }
  };
  const auto launch = [&] {
    const int i = launched++;
    Runner& runner = runners[i];
    runner.span_id = static_cast<std::uint32_t>(8 * attempt_index + 2 + i);
    runner.frame = frame;
    if (tracing) {
      runner.start_us = obs::steady_now_us();
      append_trace_context({trace_id, runner.span_id, trace_sampled},
                           &runner.frame);
      m_trace_propagated_->increment();
    }
    runner.connection = acquire_connection();
    runner.reused = runner.connection->connected();
    if (!send(runner)) finish(i);
  };

  const bool hedging = config_.hedge_delay.count() > 0;
  const Clock::time_point hedge_at =
      std::min(deadline, Clock::now() + config_.hedge_delay);
  launch();
  while (winner < 0) {
    const Clock::time_point now = Clock::now();
    if (now >= deadline) break;  // settles as kTimedOut below
    const bool hedge_pending = hedging && launched == 1;
    if (hedge_pending && now >= hedge_at) {
      call->hedged = true;
      m_hedges_->increment();
      launch();
      continue;
    }
    pollfd fds[2];
    int owner[2];
    nfds_t watched = 0;
    Clock::time_point wake = hedge_pending ? hedge_at : deadline;
    for (int i = 0; i < launched && winner < 0; ++i) {
      Runner& runner = runners[i];
      if (!runner.live) continue;
      if (now >= runner.silent_until) {
        // What the socket's own receive timeout reports, checked here
        // because the wait happens in poll().
        runner.result = {.kind = Kind::kTransport,
                         .error = "recv: no response within io_timeout",
                         .poison_connection = true};
        finish(i);
        continue;
      }
      fds[watched] = {runner.connection->fd(), POLLIN, 0};
      owner[watched++] = i;
      wake = std::min(wake, runner.silent_until);
    }
    if (winner >= 0) break;
    const auto wait = std::chrono::ceil<std::chrono::milliseconds>(wake - now);
    if (::poll(fds, watched, static_cast<int>(wait.count())) <= 0) {
      continue;  // a timer came due (or EINTR): recheck the clocks
    }
    for (nfds_t k = 0; k < watched && winner < 0; ++k) {
      if (fds[k].revents == 0) continue;
      Runner& runner = runners[owner[k]];
      if (runner.reused && closed_before_response(fds[k].fd)) {
        runner.connection->close();
        runner.reused = false;
        if (!send(runner)) finish(owner[k]);
        continue;
      }
      // The response has begun; reading the rest may block for up to
      // io_timeout per recv, the call deadline's one io_timeout of slack.
      runner.result = read_verdict(*runner.connection, session_id);
      finish(owner[k]);
    }
  }

  AttemptResult result =
      winner < 0 ? AttemptResult{.kind = Kind::kTimedOut,
                                 .error = "deadline exceeded with request "
                                          "in flight"}
                 : std::move(runners[winner].result);
  // The winner's connection survives if its exchange left it healthy;
  // every loser, answered or still in flight, is closed.
  for (int i = 0; i < launched; ++i) {
    Runner& runner = runners[i];
    if (tracing && runner.live) runner.end_us = obs::steady_now_us();
    release_connection(std::move(runner.connection),
                       i == winner && !result.poison_connection);
  }
  if (winner == 1) {  // the hedge settled the attempt
    call->hedge_won = true;
    m_hedge_wins_->increment();
  }

  if (tracing && trace_sampled) {
    // Exactly the settling runner, and only on a definitive answer a
    // retry will not supersede, carries the *_winner name.
    const bool definitive_win =
        result.kind == Kind::kOk || result.kind == Kind::kRejected;
    for (int i = 0; i < launched; ++i) {
      const char* name = i == 0 ? "attempt" : "hedge";
      if (definitive_win && i == winner) {
        name = i == 0 ? "attempt_winner" : "hedge_winner";
      }
      config_.trace->record_forced({trace_id, runners[i].span_id, 1, name,
                                    runners[i].start_us, runners[i].end_us});
    }
  }
  return result;
}

ScoreCallResult ScoreClient::score(std::uint64_t session_id,
                                   std::string_view claimed_ua,
                                   std::span<const std::int32_t> features) {
  ScoreCallResult call;
  m_calls_->increment();

  bool admitted;
  {
    std::lock_guard<std::mutex> lock(breaker_mutex_);
    admitted = breaker_.admit();
  }
  if (!admitted) {
    call.outcome = ScoreClientOutcome::kBreakerOpen;
    call.error = "circuit breaker open";
    m_short_circuits_->increment();
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
      m_retries_->increment();
      if (Clock::now() >= deadline) {
        out_of_budget = true;
        break;
      }
    }
    ++call.attempts;
    m_attempts_->increment();
    last = attempt(frame, session_id, call.trace_id, call.trace_sampled, a + 1,
                   deadline, &call);
    // A 4xx means the plane is up and answering: this caller's bug, not
    // a reason to retry or to open the breaker.
    if (last.kind == Kind::kOk || last.kind == Kind::kRejected) {
      break;
    }
    if (last.kind == Kind::kTimedOut) {
      out_of_budget = true;
      break;
    }
  }

  // (Running out of budget always follows a failed attempt.)
  const bool answered =
      last.kind == Kind::kOk || last.kind == Kind::kRejected;
  {
    std::lock_guard<std::mutex> lock(breaker_mutex_);
    if (answered) {
      breaker_.on_success();
    } else if (breaker_.on_failure()) {
      m_breaker_opens_->increment();
    }
  }

  call.error = last.error;
  if (out_of_budget) {
    call.outcome = ScoreClientOutcome::kDeadlineExhausted;
    if (call.error.empty()) call.error = "deadline exhausted";
    m_deadline_->increment();
  } else if (last.kind == Kind::kOk) {
    call.outcome = ScoreClientOutcome::kOk;
    call.response = last.response;
    m_ok_->increment();
  } else if (last.kind == Kind::kRejected) {
    call.outcome = ScoreClientOutcome::kRejected;
    m_rejected_->increment();
  } else if (last.kind == Kind::kShed) {
    call.outcome = ScoreClientOutcome::kShed;
    m_shed_->increment();
  } else if (last.kind == Kind::kCorrupt) {
    call.outcome = ScoreClientOutcome::kCorruptResponse;
    m_corrupt_->increment();
  } else {
    call.outcome = ScoreClientOutcome::kTransportError;
    m_transport_->increment();
  }
  if (call.trace_sampled) {
    sink->record_forced({call.trace_id, 1, 0, "client_call", call_start_us,
                         obs::steady_now_us()});
  }
  return call;
}

}  // namespace bp::net
