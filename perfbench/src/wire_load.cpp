#include "wire_load.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <string>
#include <string_view>
#include <thread>

#include "net/wire.h"

namespace perfbench {

Tally& Tally::operator+=(const Tally& other) noexcept {
  attempted += other.attempted;
  ok += other.ok;
  lost += other.lost;
  rejected += other.rejected;
  corrupted += other.corrupted;
  mismatched += other.mismatched;
  return *this;
}

namespace {

// Responses still outstanding this long after the last due time are
// lost.  Long enough to drain a probe offered well past saturation.
constexpr std::int64_t kDrainNs = 5'000'000'000;

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const int one = 1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) != 0 ||
      ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// One HTTP/1.1 response framed by Content-Length, as the server writes
// it.  kIncomplete: wait for more bytes; kBad: unframeable.
enum class Framing { kComplete, kIncomplete, kBad };

struct HttpAnswer {
  int status = 0;
  std::string_view body;
  bool close = false;
  std::size_t consumed = 0;
};

Framing next_response(std::string_view in, HttpAnswer* out) {
  const std::size_t head_end = in.find("\r\n\r\n");
  if (head_end == std::string_view::npos) {
    return in.size() > 8192 ? Framing::kBad : Framing::kIncomplete;
  }
  const std::string_view head = in.substr(0, head_end);
  if (head.size() < 12 || head.substr(0, 9) != "HTTP/1.1 ") return Framing::kBad;
  if (std::from_chars(head.data() + 9, head.data() + 12, out->status).ec !=
      std::errc()) {
    return Framing::kBad;
  }
  constexpr std::string_view kLength = "\r\nContent-Length: ";
  const std::size_t at = head.find(kLength);
  std::size_t length = 0;
  if (at == std::string_view::npos ||
      std::from_chars(head.data() + at + kLength.size(),
                      head.data() + head.size(), length)
              .ec != std::errc()) {
    return Framing::kBad;
  }
  const std::size_t total = head_end + 4 + length;
  if (in.size() < total) return Framing::kIncomplete;
  out->body = in.substr(head_end + 4, length);
  out->close = head.find("\r\nConnection: close") != std::string_view::npos;
  out->consumed = total;
  return Framing::kComplete;
}

struct ThreadTotals {
  Tally tally;
  std::int64_t last_recv_ns = 0;
  double cpu_us = 0.0;
  CpuUsage usage;
  std::vector<Span> spans;
};

class Connection {
 public:
  Connection(std::uint16_t port, const Fixture& fixture,
             const bp::serve::ModelRegistry& registry, const DriveSpec& spec,
             std::size_t index, std::int64_t t0_ns, std::uint64_t span_base,
             std::vector<RequestRecord>& records, ThreadTotals& totals)
      : port_(port),
        fixture_(fixture),
        versions_(registry, fixture.models),
        spec_(spec),
        index_(index),
        t0_ns_(t0_ns),
        span_base_(span_base),
        records_(records),
        totals_(totals) {
    const std::size_t k = spec.connections;
    mine_ = spec.requests / k + (index < spec.requests % k ? 1 : 0);
  }

  void run() {
    // Wake for a due time within a microsecond, not the default 50 us
    // timer slack, which would add itself to every measured latency.
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    const double cpu_start = thread_cpu_clock_us();
    const CpuUsage usage_start = thread_cpu();
    if (spec_.spans != nullptr) totals_.spans.reserve(3 * mine_);
    for (std::size_t j = 0; j < mine_; ++j) {
      records_[request(j)].due_ns = due_ns(request(j));
    }
    fd_ = connect_loopback(port_);
    if (fd_ >= 0) {
      loop();
      ::close(fd_);
    }
    totals_.tally.attempted = mine_;
    for (std::size_t j = 0; j < mine_; ++j) {
      if (records_[request(j)].outcome == Outcome::kLost) ++totals_.tally.lost;
    }
    totals_.cpu_us = thread_cpu_clock_us() - cpu_start;
    totals_.usage = thread_cpu() - usage_start;
  }

 private:
  std::size_t request(std::size_t j) const noexcept {
    return j * spec_.connections + index_;
  }
  std::int64_t due_ns(std::size_t i) const noexcept {
    return static_cast<std::int64_t>(static_cast<double>(i) * 1e9 /
                                     spec_.rate);
  }
  std::size_t frame(std::size_t i) const noexcept {
    return (spec_.first_frame + i) % fixture_.frames();
  }

  void loop() {
    const std::int64_t deadline =
        (mine_ == 0 ? 0 : due_ns(request(mine_ - 1))) + kDrainNs;
    std::string out, in;
    std::size_t out_off = 0, in_off = 0;
    std::size_t next_send = 0, next_recv = 0;
    char buffer[1 << 16];
    std::this_thread::sleep_until(
        Clock::time_point(std::chrono::nanoseconds(t0_ns_)));
    while (next_recv < mine_) {
      std::int64_t now = now_ns() - t0_ns_;
      if (now > deadline) return;
      while (next_send < mine_ && due_ns(request(next_send)) <= now) {
        const std::size_t i = request(next_send++);
        out += fixture_.http[frame(i)];
        records_[i].sent_ns = now;
      }
      if (out_off < out.size()) {
        const ssize_t n = ::send(fd_, out.data() + out_off,
                                 out.size() - out_off,
                                 MSG_NOSIGNAL | MSG_DONTWAIT);
        if (n > 0) {
          out_off += static_cast<std::size_t>(n);
          if (out_off == out.size()) {
            out.clear();
            out_off = 0;
          }
        } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                   errno != EINTR) {
          return;
        }
      }
      bool peer_closed = false;
      const std::size_t had = in.size();
      while (true) {
        const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), MSG_DONTWAIT);
        if (n > 0) {
          in.append(buffer, static_cast<std::size_t>(n));
          if (static_cast<std::size_t>(n) < sizeof(buffer)) break;
        } else if (n == 0) {
          peer_closed = true;
          break;
        } else if (errno == EINTR) {
          continue;
        } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
          break;
        } else {
          return;
        }
      }
      if (in.size() > had) quick_ack();
      const std::int64_t read_at = now_ns() - t0_ns_;
      while (next_recv < next_send) {
        HttpAnswer answer;
        const Framing framing =
            next_response(std::string_view(in).substr(in_off), &answer);
        if (framing == Framing::kIncomplete) break;
        if (framing == Framing::kBad) return;
        settle(request(next_recv++), answer, read_at);
        in_off += answer.consumed;
        if (answer.close) return;
      }
      if (in_off > (1u << 20) || in_off == in.size()) {
        in.erase(0, in_off);
        in_off = 0;
      }
      if (peer_closed) return;
      if (next_recv == mine_) break;

      now = now_ns() - t0_ns_;
      std::int64_t wait_ns = deadline - now;
      if (next_send < mine_) {
        wait_ns = std::min(wait_ns, due_ns(request(next_send)) - now);
      }
      wait_ns = std::max<std::int64_t>(0, wait_ns);
      const timespec timeout{static_cast<time_t>(wait_ns / 1'000'000'000),
                             static_cast<long>(wait_ns % 1'000'000'000)};
      pollfd pfd{fd_, static_cast<short>(POLLIN | (out.empty() ? 0 : POLLOUT)),
                 0};
      ::ppoll(&pfd, 1, &timeout, nullptr);
    }
  }

  // Acknowledge received responses at once instead of after the delayed
  // ACK timer (Linux re-arms the delay, so this is repeated after every
  // read).  With pipelined requests a delayed ACK holds the server's
  // next response behind Nagle's algorithm until the client's next
  // request carries the ACK, which a browser sending one request at a
  // time never causes; without this, latency would flip at random
  // between the processing time and the gap between two sends.
  void quick_ack() const {
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
  }

  // Checks one response against what request `i` must get back.
  void settle(std::size_t i, const HttpAnswer& answer, std::int64_t read_at) {
    RequestRecord& record = records_[i];
    Tally& tally = totals_.tally;
    totals_.last_recv_ns = read_at;
    if (answer.status == 503) {
      record.outcome = Outcome::kRejected;
      ++tally.rejected;
      return;
    }
    bp::net::WireScoreResponse response;
    const std::size_t f = frame(i);
    const int model =
        answer.status == 200 &&
                bp::net::parse_score_response(answer.body, &response) ==
                    bp::net::WireError::kOk &&
                response.session_id == Fixture::session_id(f) &&
                response.status == bp::serve::ResponseStatus::kScored
            ? versions_.model_of(response.model_version)
            : -1;
    if (model < 0) {
      record.outcome = Outcome::kCorrupted;
      ++tally.corrupted;
      return;
    }
    const Verdict got{response.flagged, response.risk_factor,
                      response.predicted_cluster};
    if (!(got == fixture_.expected[model][fixture_.frame_content[f]])) {
      record.outcome = Outcome::kMismatched;
      ++tally.mismatched;
      return;
    }
    record.outcome = Outcome::kOk;
    record.recv_ns = read_at;
    record.engine_us = static_cast<std::uint32_t>(response.latency_micros);
    ++tally.ok;
    if (spec_.spans != nullptr) {
      const std::uint64_t id = span_base_ + 3 * i;
      const std::int64_t end = t0_ns_ + read_at;
      totals_.spans.push_back({"wire.request", id, spec_.parent_span,
                               t0_ns_ + record.due_ns, end, 1});
      totals_.spans.push_back({"wire.send", id + 1, id,
                               t0_ns_ + record.due_ns,
                               t0_ns_ + record.sent_ns, 1});
      totals_.spans.push_back(
          {"serve.engine", id + 2, id,
           end - static_cast<std::int64_t>(response.latency_micros) * 1000,
           end, 1});
    }
  }

  const std::uint16_t port_;
  const Fixture& fixture_;
  VersionMap versions_;
  const DriveSpec& spec_;
  const std::size_t index_;
  const std::int64_t t0_ns_;
  const std::uint64_t span_base_;
  std::vector<RequestRecord>& records_;
  ThreadTotals& totals_;
  std::size_t mine_ = 0;
  int fd_ = -1;
};

}  // namespace

DriveResult drive(std::uint16_t port, const Fixture& fixture,
                  const bp::serve::ModelRegistry& registry,
                  const DriveSpec& spec) {
  DriveResult result;
  result.records.resize(spec.requests);
  std::vector<ThreadTotals> totals(spec.connections);
  const std::uint64_t span_base =
      spec.spans != nullptr ? spec.spans->reserve_ids(3 * spec.requests) : 0;

  const CpuUsage process_start = process_cpu();
  const TaskTicks ticks_start = task_ticks();
  // Connections are opened before the first due time.
  const std::int64_t t0 = now_ns() + 50'000'000;
  std::vector<std::thread> threads;
  threads.reserve(spec.connections);
  for (std::size_t c = 0; c < spec.connections; ++c) {
    threads.emplace_back([&, c] {
      Connection(port, fixture, registry, spec, c, t0, span_base,
                 result.records, totals[c])
          .run();
    });
  }
  for (const PhaseEvent& event : spec.events) {
    std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(
        t0 + static_cast<std::int64_t>(event.at_s * 1e9))));
    event.action();
  }
  for (std::thread& thread : threads) thread.join();
  result.process_usage = process_cpu() - process_start;
  result.server_user_share = user_share(ticks_start, task_ticks());

  std::int64_t last = 0;
  for (ThreadTotals& t : totals) {
    result.tally += t.tally;
    result.gen_cpu_us += t.cpu_us;
    result.gen_usage += t.usage;
    last = std::max(last, t.last_recv_ns);
    if (spec.spans != nullptr) spec.spans->append(t.spans);
  }
  result.seconds = static_cast<double>(last) / 1e9;
  return result;
}

}  // namespace perfbench
