// Open-loop load generator for POST /score over loopback.
//
// Every request has a due time fixed by the offered rate alone, and its
// latency is measured from that due time, so a server stall also counts
// against the requests queued behind it.  How late the generator itself
// sent (its own scheduling, not the server) is recorded per request.
//
// Each generator thread owns one keep-alive connection and pipelines
// its share of the schedule over it with non-blocking I/O: it writes
// every frame that is due, reads whatever responses have arrived, and
// sleeps in ppoll until the next due time.  Every response is checked:
// the echoed session id, the status, and the verdict against the
// offline verdict of the model version the response names.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "fixture.h"
#include "serve/model_registry.h"
#include "stats.h"

namespace perfbench {

enum class Outcome : std::uint8_t {
  kLost,        // not sent, or no response before the drain deadline
  kOk,          // HTTP 200, well-formed, echo and verdict match
  kRejected,    // HTTP 503: the server refused it explicitly
  kCorrupted,   // wrong status, unparseable frame, wrong echo
  kMismatched,  // well-formed but the verdict differs from offline
};

struct RequestRecord {
  std::int64_t due_ns = 0;    // relative to the phase start
  std::int64_t sent_ns = -1;  // when the generator wrote it
  std::int64_t recv_ns = -1;  // when its response was read
  std::uint32_t engine_us = 0;  // engine latency echoed by the server
  Outcome outcome = Outcome::kLost;
};

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t lost = 0;
  std::uint64_t rejected = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t mismatched = 0;

  std::uint64_t failed() const noexcept {
    return lost + rejected + corrupted + mismatched;
  }
  Tally& operator+=(const Tally& other) noexcept;
};

struct DriveResult {
  std::vector<RequestRecord> records;  // by request index
  Tally tally;
  double seconds = 0.0;        // phase start -> last response read
  double gen_cpu_us = 0.0;     // generator threads, CLOCK_THREAD_CPUTIME_ID
  CpuUsage gen_usage;          // generator threads, RUSAGE_THREAD
  CpuUsage process_usage;      // whole process over the phase
  double server_user_share = 0.0;  // see user_share() in stats.h
};

// A call made by the driving thread `at_s` seconds into the phase, while
// the generator threads run (the hot swaps).
struct PhaseEvent {
  double at_s = 0.0;
  std::function<void()> action;
};

struct DriveSpec {
  double rate = 0.0;            // offered requests per second
  std::size_t requests = 0;
  std::size_t first_frame = 0;  // request i sends frame (first + i) % frames
  std::size_t connections = 4;  // one generator thread each
  std::vector<PhaseEvent> events;
  // Per-request spans ("wire.request" with "wire.send" and the echoed
  // "serve.engine" beneath it) go here when set.
  SpanLog* spans = nullptr;
  std::uint64_t parent_span = 0;
};

// `registry` is the one the server scores from; responses are checked
// against the fixture model it published under the named version.
DriveResult drive(std::uint16_t port, const Fixture& fixture,
                  const bp::serve::ModelRegistry& registry,
                  const DriveSpec& spec);

}  // namespace perfbench
