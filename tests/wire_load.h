// Shared load helpers for the tests that drive POST /score over real
// TCP: a production-shape model, release-popularity traffic, and one
// keep-alive load generator.
//
// The generator runs one sender and one reader thread per connection
// (the HttpClient send_request/read_response halves), so requests
// pipeline.  Open loop: every request has a due time fixed by the
// offered rate alone, whatever the server's pace.  Closed loop
// (offered_rps = 0): every request is due at once, so the senders
// pipeline as fast as the sockets allow.  Every response is checked:
// HTTP 200 with a well-formed frame echoing the expected session id is
// answered; 503 is the server saying it shed (counted, not lost);
// anything else is corrupted; a request with no response is lost.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/polygraph.h"
#include "net/score_server.h"
#include "traffic/session_generator.h"

namespace bp::wire_load {

// The production model (28 features, PCA 7, k = 11) trained on
// `n_sessions` sessions of the default generated corpus.
core::Polygraph train_production_model(std::size_t n_sessions);

// `n` live sessions from a generator seeded with `seed`, stored over
// the model's feature indices.
std::vector<traffic::SessionRecord> session_pool(const core::Polygraph& model,
                                                 std::size_t n,
                                                 std::uint64_t seed);

// `n` indices into a pool of `pool_size`, skewed u^3 toward the head
// the way a handful of current browser releases dominates real
// traffic.  Seeded, so every caller draws the same stream.
std::vector<std::size_t> popularity_draw(std::size_t pool_size, std::size_t n);

// `n` request frames whose content follows popularity_draw over
// `pool`; frame i carries session id i + 1, so echo checks stay strict
// even though the content repeats.
std::vector<std::string> popularity_frames(
    const std::vector<traffic::SessionRecord>& pool, std::size_t n);

// The server the load runs against: 4 handler threads, 2 shards of 2
// workers, each shard's verdict cache sized to 4x the unique pool so
// the whole pool fits even when sharding lands unevenly.
net::ScoreServerConfig server_config(const core::Polygraph& model,
                                     std::size_t unique_sessions);

struct LoadResult {
  std::size_t answered = 0;   // 200 with a valid frame echoing its session
  std::size_t shed = 0;       // 503: explicit backpressure
  std::size_t lost = 0;       // no response, or never sent
  std::size_t corrupted = 0;  // a response that failed validation
  double seconds = 0.0;       // first due time to the last response
};

// `total` requests over `connections` keep-alive connections to
// 127.0.0.1:`port`, cycling through `frames` (frame k must carry
// session id k + 1).  offered_rps > 0: open loop at that aggregate
// rate; 0: closed loop.
LoadResult drive(std::uint16_t port, const std::vector<std::string>& frames,
                 double offered_rps, std::size_t connections,
                 std::size_t total);

}  // namespace bp::wire_load
