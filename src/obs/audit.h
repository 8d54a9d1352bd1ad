// Decision audit trail: the Algorithm-1 evidence behind every flag.
//
// Real-traffic fingerprinting studies stress that a detection system is
// only trustworthy when per-decision evidence is inspectable.  The
// trail records, for every flagged session (and a deterministic sample
// of unflagged ones), everything needed to reconstruct the verdict
// offline: the predicted cluster, the claimed UA's table cluster, the
// centroid distance, the risk factor, the tag bits, and — crucially —
// the version of the model that scored it, so a flag raised just
// before a hot swap replays against the right model.
//
// Replay contract (pinned by AuditReplay tests): given a record and the
// model at `record.model_version` (ModelRegistry::at_version keeps
// every published snapshot alive), re-scoring the session's features
// reproduces predicted_cluster, risk_factor and the flag bit exactly —
// scoring is deterministic and every input is either in the record or
// in the versioned snapshot.
//
// The trail is a bounded mutex-protected ring.  It sits on the response
// path, not the scoring hot loop: flagged sessions are rare and the
// unflagged sample rate is small, so the common case is one pure
// sampling decision (no lock).  Like trace sampling, the unflagged
// sample is deterministic in (seed, session id) via util::IdSampler.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/ring.h"
#include "ua/user_agent.h"
#include "util/rng.h"

namespace bp::obs {

struct AuditRecord {
  // Tag bits (bit 1 is unused).
  static constexpr std::uint8_t kFlagged = 1u << 0;
  static constexpr std::uint8_t kSampledUnflagged = 1u << 2;
  // Verdict replayed from the serving tier's content-addressed cache.
  // The evidence fields are byte-identical to the original scoring
  // under the same model_version (the cache stores the full Detection),
  // so replay_flag() is unaffected — the bit records provenance only.
  static constexpr std::uint8_t kCached = 1u << 3;

  std::uint64_t session_id = 0;
  std::uint64_t model_version = 0;  // the published version that scored it
  ua::UserAgent claimed{};
  std::uint32_t predicted_cluster = 0;
  std::int32_t expected_cluster = -1;  // -1 = claimed UA absent from table
  std::int32_t risk_factor = 0;
  double centroid_distance2 = 0.0;  // squared distance to winning centroid
  std::uint8_t tags = 0;
  std::int64_t recorded_at_us = 0;  // steady clock; diagnostic only

  bool flagged() const noexcept { return (tags & kFlagged) != 0; }
  bool cached() const noexcept { return (tags & kCached) != 0; }
};

struct AuditConfig {
  std::size_t capacity = 16384;        // ring slots
  double unflagged_sample_rate = 0.01; // fraction of clean sessions kept
  std::uint64_t seed = 0x9d2c5680;
};

class AuditTrail {
 public:
  explicit AuditTrail(AuditConfig config = {});

  // Deterministic decision: should this *unflagged* session be recorded?
  // Pure in (seed, session_id); flagged sessions are always recorded.
  bool sample_unflagged(std::uint64_t session_id) const noexcept {
    return sampler_.keep(session_id);
  }

  void record(const AuditRecord& record);

  // Ring snapshot, oldest first.
  std::vector<AuditRecord> records() const;

  std::uint64_t recorded() const noexcept {
    return recorded_.load(std::memory_order_relaxed);
  }
  std::uint64_t flagged_recorded() const noexcept {
    return flagged_.load(std::memory_order_relaxed);
  }
  // Records displaced by ring wrap-around.
  std::uint64_t overwritten() const noexcept {
    return overwritten_.load(std::memory_order_relaxed);
  }

  // One JSON object per line (JSONL), oldest first.  Timing is opt-in
  // so the output stays deterministic for replay tooling.  `last_n`
  // bounds the render to the most recent N records (the /auditz?n=K
  // introspection query); the default renders the whole ring.
  std::string render_jsonl(bool include_timing = false,
                           std::size_t last_n = SIZE_MAX) const;

  const AuditConfig& config() const noexcept { return config_; }

  void clear();

 private:
  AuditConfig config_;
  util::IdSampler sampler_;
  mutable std::mutex mutex_;
  Ring<AuditRecord> ring_;
  std::atomic<std::uint64_t> recorded_{0};
  std::atomic<std::uint64_t> flagged_{0};
  std::atomic<std::uint64_t> overwritten_{0};
};

}  // namespace bp::obs
