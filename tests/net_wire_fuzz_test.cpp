// Seeded mutation fuzz for the wire parsers (net/wire.h): byte flips,
// truncations, insertions and random garbage against
// parse_score_request / parse_score_response, and the same mutations
// against the HTTP request-head parser in front of them
// (net/http_common.h parse_request_head).  The contract under
// fuzz: the parser never crashes and always returns a typed WireError;
// when a mutation happens to leave a frame valid, the parsed result
// still satisfies the grammar's invariants.  Mutations are drawn from
// a splitmix64 stream, so a failing case replays from the seed.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "net/http_common.h"
#include "net/wire.h"
#include "util/rng.h"

namespace bp::net {
namespace {

// One deterministic mutation of `frame` drawn from `state`.
std::string mutate(const std::string& frame, std::uint64_t& state) {
  std::string out = frame;
  const std::uint64_t op = util::splitmix64(state) % 4;
  const std::uint64_t a = util::splitmix64(state);
  const std::uint64_t b = util::splitmix64(state);
  switch (op) {
    case 0: {  // flip one byte
      if (out.empty()) break;
      char flip = static_cast<char>(b & 0xff);
      if (flip == 0) flip = 1;
      out[a % out.size()] ^= flip;
      break;
    }
    case 1:  // truncate
      out.resize(a % (out.size() + 1));
      break;
    case 2:  // insert a byte
      out.insert(out.begin() + static_cast<std::ptrdiff_t>(a % (out.size() + 1)),
                 static_cast<char>(b & 0xff));
      break;
    default: {  // duplicate a span (framing confusion)
      if (out.empty()) break;
      const std::size_t begin = a % out.size();
      const std::size_t len = 1 + b % (out.size() - begin);
      out.insert(begin, out.substr(begin, len));
      break;
    }
  }
  return out;
}

std::string valid_request() {
  // Production-shaped: 28 features, a real-looking UA.
  std::vector<std::int32_t> features;
  for (int i = 0; i < 28; ++i) features.push_back(i * 37 - 40);
  std::string frame;
  render_score_request(
      0x1234567890ABCDEFull,
      "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 "
      "(KHTML, like Gecko) Chrome/112.0.0.0 Safari/537.36",
      features, &frame);
  return frame;
}

std::string valid_response() {
  WireScoreResponse response;
  response.session_id = 0xFEDCBA9876543210ull;
  response.status = serve::ResponseStatus::kScored;
  response.flagged = true;
  response.risk_factor = 3;
  response.predicted_cluster = 17;
  response.model_version = 42;
  response.latency_micros = 1234;
  std::string frame;
  render_score_response(response, &frame);
  return frame;
}

TEST(WireFuzz, MutatedRequestsNeverCrashAndStayTyped) {
  const std::string frame = valid_request();
  std::uint64_t state = 0xF00D;
  WireScoreRequest parsed;  // reused, like the ingress does
  int accepted = 0;
  for (int i = 0; i < 5000; ++i) {
    const std::string mutated = mutate(frame, state);
    const WireError error = parse_score_request(mutated, &parsed);
    ASSERT_FALSE(wire_error_name(error).empty()) << "iteration " << i;
    if (error != WireError::kOk) continue;
    ++accepted;
    // A mutation that stays valid must still satisfy the grammar.
    ASSERT_FALSE(parsed.features.empty()) << "iteration " << i;
    ASSERT_LE(parsed.features.size(), kMaxWireFeatures) << "iteration " << i;
  }
  // Most single mutations of a 28-feature frame break it; a few are
  // benign (a flipped UA byte, a truncated feature list).  Both sides
  // must occur for the fuzz to mean anything.
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, 2500);
}

TEST(WireFuzz, MutatedResponsesNeverCrashAndStayTyped) {
  const std::string frame = valid_response();
  std::uint64_t state = 0xBEEF;
  WireScoreResponse parsed;
  for (int i = 0; i < 5000; ++i) {
    const std::string mutated = mutate(frame, state);
    const WireError error = parse_score_response(mutated, &parsed);
    ASSERT_FALSE(wire_error_name(error).empty()) << "iteration " << i;
  }
}

// Stacked mutations: each round mutates the previous round's output,
// drifting arbitrarily far from a valid frame.
TEST(WireFuzz, StackedMutationsStayTyped) {
  std::uint64_t state = 0xCAFE;
  std::string frame = valid_request();
  WireScoreRequest parsed;
  for (int round = 0; round < 1500; ++round) {
    frame = mutate(frame, state);
    if (frame.size() > kMaxFrameBytes + 64) frame = valid_request();
    const WireError error = parse_score_request(frame, &parsed);
    ASSERT_FALSE(wire_error_name(error).empty()) << "round " << round;
  }
}

TEST(WireFuzz, RandomGarbageIsRefusedNotCrashed) {
  std::uint64_t state = 0xD15EA5E;
  WireScoreRequest request;
  WireScoreResponse response;
  for (int i = 0; i < 1000; ++i) {
    const std::size_t len = util::splitmix64(state) % 300;
    std::string garbage(len, '\0');
    for (char& c : garbage) {
      c = static_cast<char>(util::splitmix64(state) & 0xff);
    }
    EXPECT_NE(parse_score_request(garbage, &request), WireError::kOk);
    // (An all-random frame alias of the response grammar is
    // astronomically unlikely; refusal is the expected outcome.)
    EXPECT_NE(parse_score_response(garbage, &response), WireError::kOk);
  }
}

TEST(WireFuzz, EveryPrefixOfAValidFrameIsHandled) {
  const std::string request = valid_request();
  WireScoreRequest parsed_request;
  for (std::size_t len = 0; len < request.size(); ++len) {
    const WireError error =
        parse_score_request(request.substr(0, len), &parsed_request);
    // A strict prefix may itself be a valid frame (fewer features);
    // anything else must be a typed refusal.
    ASSERT_FALSE(wire_error_name(error).empty()) << "prefix " << len;
    if (error == WireError::kOk) {
      ASSERT_LE(parsed_request.features.size(), 28u);
    }
  }
  const std::string response = valid_response();
  WireScoreResponse parsed_response;
  for (std::size_t len = 0; len < response.size(); ++len) {
    ASSERT_FALSE(
        wire_error_name(parse_score_response(response.substr(0, len),
                                             &parsed_response))
            .empty())
        << "prefix " << len;
  }
}

TEST(WireFuzz, EveryWireErrorHasAName) {
  for (int e = 0; e <= static_cast<int>(WireError::kBadTraceContext); ++e) {
    EXPECT_FALSE(wire_error_name(static_cast<WireError>(e)).empty());
  }
}

// ------------------- trace-context extension segment -------------------

std::string valid_traced_request() {
  std::string frame = valid_request();
  append_trace_context({0xABCDEF0123456789ull, 10, true}, &frame);
  return frame;
}

// The adoption contract under fuzz: a mutated trace segment either
// parses to exactly the context the frame carries, or is refused with a
// typed error — a bogus trace id is never silently adopted.
TEST(WireFuzz, MutatedTracedRequestsNeverCrashOrAdoptBogusContext) {
  const std::string frame = valid_traced_request();
  std::uint64_t state = 0x7A5ED;
  WireScoreRequest parsed;
  int accepted = 0;
  int accepted_with_trace = 0;
  for (int i = 0; i < 5000; ++i) {
    const std::string mutated = mutate(frame, state);
    const WireError error = parse_score_request(mutated, &parsed);
    ASSERT_FALSE(wire_error_name(error).empty()) << "iteration " << i;
    if (error != WireError::kOk) {
      // Refusals must leave no half-adopted context behind on reuse:
      // the next successful parse decides trace presence from scratch.
      continue;
    }
    ++accepted;
    ASSERT_FALSE(parsed.features.empty()) << "iteration " << i;
    if (parsed.trace.present()) {
      ++accepted_with_trace;
      // Whatever survived the mutation, the adopted context obeys the
      // grammar: nonzero id and a boolean sampled flag by construction.
      ASSERT_NE(parsed.trace.trace_id, 0u) << "iteration " << i;
    }
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(accepted_with_trace, 0);
  EXPECT_LT(accepted, 2500);
}

// Targeted corpus: every structural way a t: segment can go wrong —
// flips of the separators, truncations inside the payload, duplicated
// separators — must yield a typed WireError, never a crash.
TEST(WireFuzz, TraceSegmentStructuralMutations) {
  const std::string frame = valid_traced_request();
  const std::size_t bar = frame.rfind('|');
  ASSERT_NE(bar, std::string::npos);
  WireScoreRequest parsed;

  // Truncate at every offset inside the extension segment.
  for (std::size_t len = bar; len < frame.size(); ++len) {
    const WireError error = parse_score_request(frame.substr(0, len), &parsed);
    ASSERT_FALSE(wire_error_name(error).empty()) << "truncate " << len;
    if (error == WireError::kOk && parsed.trace.present()) {
      // A cut anywhere inside the payload drops a ':'-part and is
      // refused; the only accepted-with-trace truncation is the one
      // that merely shaved the trailing newline — so an adopted
      // context is always the full original, never a digit-prefix id.
      ASSERT_EQ(parsed.trace.trace_id, 0xABCDEF0123456789ull)
          << "truncate " << len;
      ASSERT_EQ(parsed.trace.parent_span, 10u) << "truncate " << len;
      ASSERT_TRUE(parsed.trace.sampled) << "truncate " << len;
    }
  }

  // Flip every byte of the segment, one at a time.
  for (std::size_t i = bar; i < frame.size(); ++i) {
    for (const char flip : {'\x01', '\x20', '\x7f'}) {
      std::string mutated = frame;
      mutated[i] = static_cast<char>(mutated[i] ^ flip);
      ASSERT_FALSE(
          wire_error_name(parse_score_request(mutated, &parsed)).empty())
          << "flip at " << i;
    }
  }

  // Duplicated separators around and inside the segment.
  for (const char* mutated :
       {"bp1|1|Chrome 100|1 2||t:1:2:1", "bp1|1|Chrome 100|1 2|t::1:2:1",
        "bp1|1|Chrome 100|1 2|t:1::2:1", "bp1|1|Chrome 100|1 2|t:1:2:1||"}) {
    const WireError error = parse_score_request(mutated, &parsed);
    EXPECT_NE(error, WireError::kOk) << mutated;
    EXPECT_FALSE(wire_error_name(error).empty()) << mutated;
  }
}

// Stacked mutations drifting from a traced frame: same always-typed
// contract, now with the extension grammar in the blast radius.
TEST(WireFuzz, StackedTracedMutationsStayTyped) {
  std::uint64_t state = 0x7AC3D;
  std::string frame = valid_traced_request();
  WireScoreRequest parsed;
  for (int round = 0; round < 1500; ++round) {
    frame = mutate(frame, state);
    if (frame.size() > kMaxFrameBytes + 64) frame = valid_traced_request();
    const WireError error = parse_score_request(frame, &parsed);
    ASSERT_FALSE(wire_error_name(error).empty()) << "round " << round;
    if (error == WireError::kOk && parsed.trace.present()) {
      ASSERT_NE(parsed.trace.trace_id, 0u) << "round " << round;
    }
  }
}

// -------------------------- HTTP request heads --------------------------

// The head parser is the first code to touch untrusted bytes.  Its
// contract under fuzz: a head either parses into a request whose method
// is non-empty and whose target starts with '/', or is refused; it
// never crashes.
bool parsed_sanely_or_refused(std::string_view head, HttpRequest* request) {
  if (!parse_request_head(head, request)) return true;
  return !request->method.empty() && !request->target.empty() &&
         request->target[0] == '/';
}

// Heads as the listener hands them over: through the CRLF that ends the
// last header line, without the blank line.  The first two are valid;
// the four after them must be refused.
constexpr const char* kHeadCorpus[] = {
    "POST /score HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: 42\r\n",
    "GET /metrics?n=1 HTTP/1.0\r\nConnection: keep-alive\r\n",
    // Content-Length overflow and duplication.
    "POST /score HTTP/1.1\r\nContent-Length: 99999999999999999999999\r\n",
    "POST /score HTTP/1.1\r\ncontent-length: 5\r\nCONTENT-LENGTH:5\r\n",
    // Chunked framing, alone and beside a Content-Length.
    "POST /score HTTP/1.1\r\nTransfer-Encoding: chunked\r\n",
    "POST /score HTTP/1.1\r\nContent-Length: 5\r\n"
    "transfer-encoding: chunked\r\n",
    // Stray CR and LF.
    "POST /score HTTP/1.1\r\n\rContent-Length: 5\r\n",
    "POST /score HTTP/1.1\nContent-Length: 5\n",
    "POST /score\r HTTP/1.1\r\nContent-Length: 5\r\r\n",
};

TEST(WireFuzz, HttpHeadCorpusSeedsAreJudged) {
  HttpRequest request;
  EXPECT_TRUE(parse_request_head(kHeadCorpus[0], &request));
  EXPECT_EQ(request.content_length, 42u);
  EXPECT_TRUE(parse_request_head(kHeadCorpus[1], &request));
  for (std::size_t i = 2; i < 6; ++i) {
    EXPECT_FALSE(parse_request_head(kHeadCorpus[i], &request)) << i;
  }
}

TEST(WireFuzz, MutatedHttpHeadsParseOrAreRefused) {
  std::uint64_t state = 0x4EAD;
  HttpRequest request;
  int accepted = 0;
  for (const char* seed : kHeadCorpus) {
    std::string stacked = seed;
    for (int i = 0; i < 1000; ++i) {
      const std::string mutated = mutate(seed, state);
      ASSERT_TRUE(parsed_sanely_or_refused(mutated, &request)) << mutated;
      accepted += parse_request_head(mutated, &request) ? 1 : 0;
      stacked = mutate(stacked, state);
      if (stacked.size() > 4096) stacked = seed;
      ASSERT_TRUE(parsed_sanely_or_refused(stacked, &request)) << stacked;
    }
  }
  // Both outcomes must occur for the fuzz to mean anything.
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, 7000);
}

// Separators split at every byte: each seed cut at every offset, and a
// stray CR, LF or CRLF inserted at every offset.
TEST(WireFuzz, HttpHeadSeparatorsSplitAtEveryByte) {
  HttpRequest request;
  for (const char* seed : kHeadCorpus) {
    const std::string head = seed;
    for (std::size_t at = 0; at <= head.size(); ++at) {
      ASSERT_TRUE(parsed_sanely_or_refused(head.substr(0, at), &request))
          << head.substr(0, at);
      for (const char* separator : {"\r", "\n", "\r\n"}) {
        std::string split = head;
        split.insert(at, separator);
        ASSERT_TRUE(parsed_sanely_or_refused(split, &request)) << split;
      }
    }
  }
}

}  // namespace
}  // namespace bp::net
