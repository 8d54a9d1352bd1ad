// Wire-format tests: round-trip both frame kinds, hit every typed
// parse error by name, and pin the allocation-free reuse contract.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/wire.h"

namespace bp::net {
namespace {

// ------------------------------ round trips ------------------------------

TEST(NetWire, RequestRoundTrip) {
  const std::vector<std::int32_t> features = {0, -3, 17, 2147483647,
                                              -2147483648};
  std::string frame;
  render_score_request(987654321, "Chrome 112", features, &frame);
  EXPECT_EQ(frame, "bp1|987654321|Chrome 112|0 -3 17 2147483647 -2147483648\n");

  WireScoreRequest parsed;
  ASSERT_EQ(parse_score_request(frame, &parsed), WireError::kOk);
  EXPECT_EQ(parsed.session_id, 987654321u);
  EXPECT_EQ(parsed.claimed.vendor, ua::Vendor::kChrome);
  EXPECT_EQ(parsed.claimed.major_version, 112);
  EXPECT_EQ(parsed.features, features);
}

TEST(NetWire, RequestAcceptsFullUserAgentHeader) {
  std::string frame;
  render_score_request(
      7,
      "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 "
      "(KHTML, like Gecko) Chrome/112.0.0.0 Safari/537.36",
      std::vector<std::int32_t>{1, 2}, &frame);
  WireScoreRequest parsed;
  ASSERT_EQ(parse_score_request(frame, &parsed), WireError::kOk);
  EXPECT_EQ(parsed.claimed.vendor, ua::Vendor::kChrome);
  EXPECT_EQ(parsed.claimed.major_version, 112);
}

TEST(NetWire, RequestUnknownVendorIsNotAnError) {
  // Scoring a claimed UA the table has never seen is the risk path's
  // job, not a parse failure.
  WireScoreRequest parsed;
  ASSERT_EQ(parse_score_request("bp1|5|NetscapeNavigator/4.08|1 2", &parsed),
            WireError::kOk);
  EXPECT_EQ(parsed.claimed.vendor, ua::Vendor::kUnknown);
}

TEST(NetWire, RequestToleratesTrailingNewlineAndCrlf) {
  WireScoreRequest parsed;
  EXPECT_EQ(parse_score_request("bp1|1|Chrome 100|1 2", &parsed),
            WireError::kOk);
  EXPECT_EQ(parse_score_request("bp1|1|Chrome 100|1 2\n", &parsed),
            WireError::kOk);
  EXPECT_EQ(parse_score_request("bp1|1|Chrome 100|1 2\r\n", &parsed),
            WireError::kOk);
  EXPECT_EQ(parsed.features, (std::vector<std::int32_t>{1, 2}));
}

TEST(NetWire, ResponseRoundTrip) {
  WireScoreResponse response;
  response.session_id = 42;
  response.status = serve::ResponseStatus::kScored;
  response.flagged = true;
  response.risk_factor = -2;
  response.predicted_cluster = 7;
  response.model_version = 3;
  response.latency_micros = 1250;

  std::string frame;
  render_score_response(response, &frame);
  EXPECT_EQ(frame, "bp1|42|scored|1|-2|7|3|1250\n");

  WireScoreResponse parsed;
  ASSERT_EQ(parse_score_response(frame, &parsed), WireError::kOk);
  EXPECT_EQ(parsed.session_id, 42u);
  EXPECT_EQ(parsed.status, serve::ResponseStatus::kScored);
  EXPECT_TRUE(parsed.flagged);
  EXPECT_EQ(parsed.risk_factor, -2);
  EXPECT_EQ(parsed.predicted_cluster, 7u);
  EXPECT_EQ(parsed.model_version, 3u);
  EXPECT_EQ(parsed.latency_micros, 1250u);
}

TEST(NetWire, ResponseRoundTripsEveryStatus) {
  for (const serve::ResponseStatus status : {serve::ResponseStatus::kScored}) {
    WireScoreResponse response;
    response.session_id = 1;
    response.status = status;
    std::string frame;
    render_score_response(response, &frame);
    WireScoreResponse parsed;
    ASSERT_EQ(parse_score_response(frame, &parsed), WireError::kOk)
        << "status token: " << wire_status_token(status);
    EXPECT_EQ(parsed.status, status);
  }
}

// `shed` is not a status: the engine refuses at admission instead, so
// a frame carrying it is refused like any other unknown token.
TEST(NetWire, ResponseRefusesShedStatus) {
  WireScoreResponse response;
  EXPECT_EQ(parse_score_response("bp1|1|shed|0|0|0|0|10", &response),
            WireError::kBadStatus);
}

// Nor is `degraded`: with no model published the ingress answers 503,
// so no frame carries a model-less verdict.
TEST(NetWire, ResponseRefusesDegradedStatus) {
  WireScoreResponse response;
  EXPECT_EQ(parse_score_response("bp1|1|degraded|0|0|0|0|10", &response),
            WireError::kBadStatus);
}

// --------------------------- every typed error ---------------------------

TEST(NetWireErrors, EmptyFrame) {
  WireScoreRequest request;
  EXPECT_EQ(parse_score_request("", &request), WireError::kEmptyFrame);
  EXPECT_EQ(parse_score_request("\n", &request), WireError::kEmptyFrame);
  WireScoreResponse response;
  EXPECT_EQ(parse_score_response("", &response), WireError::kEmptyFrame);
}

TEST(NetWireErrors, Oversized) {
  const std::string frame =
      "bp1|1|Chrome 100|" + std::string(kMaxFrameBytes, '1');
  WireScoreRequest request;
  EXPECT_EQ(parse_score_request(frame, &request), WireError::kOversized);
  WireScoreResponse response;
  EXPECT_EQ(parse_score_response(frame, &response), WireError::kOversized);
}

TEST(NetWireErrors, BadMagic) {
  WireScoreRequest request;
  EXPECT_EQ(parse_score_request("xq1|1|Chrome 100|1", &request),
            WireError::kBadMagic);
  EXPECT_EQ(parse_score_request("b", &request), WireError::kBadMagic);
  EXPECT_EQ(parse_score_request("bpX|1|Chrome 100|1", &request),
            WireError::kBadMagic);
  WireScoreResponse response;
  EXPECT_EQ(parse_score_response("GET / HTTP/1.1", &response),
            WireError::kBadMagic);
}

TEST(NetWireErrors, BadVersion) {
  WireScoreRequest request;
  EXPECT_EQ(parse_score_request("bp2|1|Chrome 100|1", &request),
            WireError::kBadVersion);
  EXPECT_EQ(parse_score_request("bp99|1|Chrome 100|1", &request),
            WireError::kBadVersion);
}

TEST(NetWireErrors, Truncated) {
  WireScoreRequest request;
  EXPECT_EQ(parse_score_request("bp1", &request), WireError::kTruncated);
  EXPECT_EQ(parse_score_request("bp1|1", &request), WireError::kTruncated);
  WireScoreResponse response;
  EXPECT_EQ(parse_score_response("bp1|1|scored|1|0|0", &response),
            WireError::kTruncated);
}

TEST(NetWireErrors, BadSessionId) {
  WireScoreRequest request;
  EXPECT_EQ(parse_score_request("bp1|abc|Chrome 100|1", &request),
            WireError::kBadSessionId);
  EXPECT_EQ(parse_score_request("bp1||Chrome 100|1", &request),
            WireError::kBadSessionId);
  EXPECT_EQ(parse_score_request("bp1|-1|Chrome 100|1", &request),
            WireError::kBadSessionId);
}

TEST(NetWireErrors, BadUserAgent) {
  WireScoreRequest request;
  EXPECT_EQ(parse_score_request("bp1|1||1 2", &request),
            WireError::kBadUserAgent);
}

TEST(NetWireErrors, NoFeatures) {
  WireScoreRequest request;
  EXPECT_EQ(parse_score_request("bp1|1|Chrome 100|", &request),
            WireError::kNoFeatures);
}

TEST(NetWireErrors, BadFeature) {
  WireScoreRequest request;
  EXPECT_EQ(parse_score_request("bp1|1|Chrome 100|1 x 3", &request),
            WireError::kBadFeature);
  EXPECT_EQ(parse_score_request("bp1|1|Chrome 100|1  3", &request),
            WireError::kBadFeature);  // double space = empty token
  EXPECT_EQ(parse_score_request("bp1|1|Chrome 100|99999999999", &request),
            WireError::kBadFeature);  // int32 overflow
}

TEST(NetWireErrors, TooManyFeatures) {
  std::string frame = "bp1|1|Chrome 100|1";
  for (std::size_t i = 0; i < kMaxWireFeatures; ++i) frame += " 1";
  WireScoreRequest request;
  EXPECT_EQ(parse_score_request(frame, &request),
            WireError::kTooManyFeatures);
}

TEST(NetWireErrors, BadStatus) {
  WireScoreResponse response;
  EXPECT_EQ(parse_score_response("bp1|1|banana|0|0|0|1|10", &response),
            WireError::kBadStatus);
  EXPECT_EQ(parse_score_response("bp1|1|deadline|0|0|0|0|10", &response),
            WireError::kBadStatus);  // no longer a status token
  EXPECT_EQ(parse_score_response("bp1|1|scored|2|0|0|1|10", &response),
            WireError::kBadStatus);  // flagged must be 0/1
  EXPECT_EQ(parse_score_response("bp1|1|scored|0|x|0|1|10", &response),
            WireError::kBadStatus);  // risk not an int
}

// --------------------- trace-context extension segment ---------------------

TEST(NetWireTrace, RequestRoundTrip) {
  std::string frame;
  render_score_request(42, "Chrome 100", std::vector<std::int32_t>{1, 2, 3},
                       &frame);
  append_trace_context({0xABCDEF, 7, true}, &frame);
  WireScoreRequest request;
  ASSERT_EQ(parse_score_request(frame, &request), WireError::kOk);
  EXPECT_EQ(request.session_id, 42u);
  EXPECT_EQ(request.features, (std::vector<std::int32_t>{1, 2, 3}));
  ASSERT_TRUE(request.trace.present());
  EXPECT_EQ(request.trace.trace_id, 0xABCDEFu);
  EXPECT_EQ(request.trace.parent_span, 7u);
  EXPECT_TRUE(request.trace.sampled);
}

TEST(NetWireTrace, ResponseCarriesContext) {
  WireScoreResponse out;
  out.session_id = 9;
  out.status = serve::ResponseStatus::kScored;
  out.model_version = 1;
  out.latency_micros = 10;
  std::string frame;
  render_score_response(out, &frame);
  append_trace_context({123, 3, false}, &frame);
  WireScoreResponse response;
  ASSERT_EQ(parse_score_response(frame, &response), WireError::kOk);
  ASSERT_TRUE(response.trace.present());
  EXPECT_EQ(response.trace.trace_id, 123u);
  EXPECT_EQ(response.trace.parent_span, 3u);
  EXPECT_FALSE(response.trace.sampled);
}

TEST(NetWireTrace, AbsentContextLeavesDefault) {
  WireScoreRequest request;
  request.trace = WireTraceContext{99, 1, true};  // stale from a prior parse
  ASSERT_EQ(parse_score_request("bp1|1|Chrome 100|1 2", &request),
            WireError::kOk);
  EXPECT_FALSE(request.trace.present());
}

TEST(NetWireTrace, UnknownExtensionTagsAreIgnored) {
  // Version tolerance: a newer peer may append segments we do not know;
  // well-formed unknown tags must parse cleanly, before or after t:.
  WireScoreRequest request;
  ASSERT_EQ(parse_score_request("bp1|1|Chrome 100|1 2|zz:whatever", &request),
            WireError::kOk);
  EXPECT_FALSE(request.trace.present());
  ASSERT_EQ(parse_score_request(
                "bp1|1|Chrome 100|1 2|zz:x|t:5:2:1|aa:y", &request),
            WireError::kOk);
  EXPECT_EQ(request.trace.trace_id, 5u);
}

TEST(NetWireTrace, MalformedExtensionShape) {
  WireScoreRequest request;
  // No colon, empty segment, dangling separator, uppercase tag: all the
  // shapes that are not <lowercase-tag>:<payload>.
  EXPECT_EQ(parse_score_request("bp1|1|Chrome 100|1 2|3", &request),
            WireError::kBadExtension);
  EXPECT_EQ(parse_score_request("bp1|1|Chrome 100|1 2|", &request),
            WireError::kBadExtension);
  EXPECT_EQ(parse_score_request("bp1|1|Chrome 100|1 2|t:1:2:1|", &request),
            WireError::kBadExtension);
  EXPECT_EQ(parse_score_request("bp1|1|Chrome 100|1 2|T:1:2:1", &request),
            WireError::kBadExtension);
  EXPECT_EQ(parse_score_request("bp1|1|Chrome 100|1 2|:payload", &request),
            WireError::kBadExtension);
}

TEST(NetWireTrace, MalformedTracePayload) {
  WireScoreRequest request;
  const char* bad[] = {
      "bp1|1|Chrome 100|1 2|t:1:2",        // too few parts
      "bp1|1|Chrome 100|1 2|t:1:2:1:9",    // too many parts
      "bp1|1|Chrome 100|1 2|t:0:2:1",      // zero trace id reserved
      "bp1|1|Chrome 100|1 2|t:x:2:1",      // id not a number
      "bp1|1|Chrome 100|1 2|t:1:99999999999:1",  // parent overflows u32
      "bp1|1|Chrome 100|1 2|t:1:2:2",      // sampled must be 0/1
      "bp1|1|Chrome 100|1 2|t:1:2:1|t:3:4:1",    // duplicate t segment
  };
  for (const char* frame : bad) {
    EXPECT_EQ(parse_score_request(frame, &request),
              WireError::kBadTraceContext)
        << frame;
  }
}

TEST(NetWireErrors, EveryErrorHasAName) {
  for (const WireError error :
       {WireError::kOk, WireError::kEmptyFrame, WireError::kOversized,
        WireError::kBadMagic, WireError::kBadVersion, WireError::kTruncated,
        WireError::kBadSessionId, WireError::kBadUserAgent,
        WireError::kNoFeatures, WireError::kBadFeature,
        WireError::kTooManyFeatures, WireError::kBadStatus,
        WireError::kBadExtension, WireError::kBadTraceContext}) {
    EXPECT_FALSE(wire_error_name(error).empty());
    EXPECT_NE(wire_error_name(error), "unknown");
  }
}

// ------------------------------ reuse contract ------------------------------

TEST(NetWire, ParseReusesFeatureCapacity) {
  WireScoreRequest request;
  ASSERT_EQ(parse_score_request("bp1|1|Chrome 100|1 2 3 4 5 6 7 8", &request),
            WireError::kOk);
  const std::size_t capacity = request.features.capacity();
  const std::int32_t* data = request.features.data();
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(parse_score_request("bp1|2|Chrome 101|9 8 7", &request),
              WireError::kOk);
    EXPECT_EQ(request.features.capacity(), capacity);
    EXPECT_EQ(request.features.data(), data);  // same allocation throughout
  }
  EXPECT_EQ(request.features, (std::vector<std::int32_t>{9, 8, 7}));
}

TEST(NetWire, RenderReusesBufferCapacity) {
  std::string frame;
  render_score_request(1, "Chrome 100",
                       std::vector<std::int32_t>{1, 2, 3, 4, 5, 6, 7, 8},
                       &frame);
  frame.reserve(256);
  const std::size_t capacity = frame.capacity();
  for (int i = 0; i < 100; ++i) {
    render_score_request(2, "Chrome 101", std::vector<std::int32_t>{1},
                         &frame);
    EXPECT_EQ(frame.capacity(), capacity);
  }
  EXPECT_EQ(frame, "bp1|2|Chrome 101|1\n");
}

}  // namespace
}  // namespace bp::net
