// Layer-alone timings: each layer's public entry point called in a
// tight loop on the workload's own frames and sessions, one thread, no
// sockets and no queue.  Each timed loop is also recorded as a span.
#pragma once

#include "fixture.h"
#include "net/engine_router.h"
#include "stats.h"

namespace perfbench {

struct LayerTimes {
  double parse_ns = 0.0;         // net::parse_score_request
  double render_ns = 0.0;        // net::render_score_response
  double route_ns = 0.0;         // EngineRouter::shard_of
  double cache_key_ns = 0.0;     // VerdictCache::key_of
  double cache_hit_ns = 0.0;     // VerdictCache::lookup, resident key
  double cache_miss_ns = 0.0;    // VerdictCache::lookup, absent key
  double cache_insert_ns = 0.0;  // VerdictCache::insert
  double publish_us = 0.0;       // ModelRegistry::publish
  double score_batch_ns = 0.0;   // Polygraph::score_batch, block 64
  double score_ns = 0.0;         // Polygraph::score, scalar
  double risk_ns = 0.0;          // Polygraph::risk_factor, flagged sessions
  double flagged_ratio = 0.0;    // flagged share of the workload's frames
};

LayerTimes time_layers(const Fixture& fixture,
                       const bp::net::EngineRouter& router, SpanLog& spans,
                       std::uint64_t parent_span);

}  // namespace perfbench
