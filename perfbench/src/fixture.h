// Workload inputs, built from the command-line seed alone: two trained
// models, the session contents a workload sends, the wire frames that
// carry them, and every expected verdict, precomputed with offline
// Polygraph::score outside any timed region.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/polygraph.h"
#include "serve/model_registry.h"
#include "ua/user_agent.h"

namespace perfbench {

enum class Workload { kWirePopular, kWireUnique, kEngineBulk };

// The verdict fields a wire response carries.
struct Verdict {
  bool flagged = false;
  int risk = 0;
  std::uint32_t cluster = 0;
  friend bool operator==(const Verdict&, const Verdict&) = default;
};

// One distinct session content: what the server scores.
struct Content {
  std::vector<std::int32_t> features;  // model feature order
  bp::ua::UserAgent claimed;           // as the wire parser reads the UA
  std::string user_agent;              // the header carried on the wire
};

struct TrainedModels {
  std::array<std::shared_ptr<const bp::core::Polygraph>, 2> model;
  std::array<bp::core::TrainingSummary, 2> summary;
  double generate_s = 0.0;  // synthesis of both training corpora
};

struct Fixture {
  TrainedModels models;
  double pool_generate_s = 0.0;  // synthesis of the workload's sessions

  std::vector<Content> contents;
  // expected[m][c]: offline verdict of model m on contents[c].
  std::array<std::vector<Verdict>, 2> expected;

  // Frame i carries session id i + 1 and contents[frame_content[i]]; a
  // run cycles through the frames.  http[i] is the complete HTTP/1.1
  // request, with the wire frame starting at body_offset[i].
  std::vector<std::uint32_t> frame_content;
  std::vector<std::string> http;
  std::vector<std::uint32_t> body_offset;

  std::size_t frames() const noexcept { return frame_content.size(); }
  std::string_view body(std::size_t frame) const noexcept {
    return std::string_view(http[frame]).substr(body_offset[frame]);
  }
  static std::uint64_t session_id(std::size_t frame) noexcept {
    return frame + 1;
  }
};

// Builds every input of `workload` from `seed`.  With `inject_mismatch`
// the expected verdicts of the first frame's content are deliberately
// wrong, so the run must report failures (the benchmark's self-check).
Fixture build_fixture(Workload workload, std::uint64_t seed,
                      bool inject_mismatch);

// Maps a model version named in a response back to the fixture model
// that the registry published under it.  Not thread-safe: each thread
// that validates responses owns one; a lookup miss asks the registry.
class VersionMap {
 public:
  VersionMap(const bp::serve::ModelRegistry& registry, const TrainedModels& models)
      : registry_(registry), models_(models) {}

  // 0 or 1, or -1 when `version` holds neither fixture model.
  int model_of(std::uint64_t version);

 private:
  const bp::serve::ModelRegistry& registry_;
  const TrainedModels& models_;
  std::vector<int> known_;  // version -> model index, -2 = not looked up
};

}  // namespace perfbench
