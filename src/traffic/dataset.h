// Session dataset: the in-memory analogue of the periodic datasets
// FinOrg shared during the eight-month collection (§6.2).
//
// Each row carries exactly what the paper's collection pipeline stored —
// integer feature outputs, the navigator.userAgent string, an opaque
// SessionID — plus the evaluation-only security tags (Untrusted_IP,
// Untrusted_Cookie, ATO) and, because this is a simulation, the
// ground-truth provenance that a real deployment would not have.
//
// Datasets live only in memory: SessionGenerator builds them and the
// training and evaluation code reads them in the same process, so there
// is no file format.  A trained model is what persists (core/model_io).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "browser/extractor.h"
#include "ml/matrix.h"
#include "ua/user_agent.h"
#include "util/date.h"

namespace bp::traffic {

// Session provenance (ground truth; never visible to the detector).
enum class SessionKind : std::uint8_t {
  kBenign,          // genuine browser, honest UA
  kBenignModified,  // genuine browser with extensions/config tweaks
  kPrivacyBrowser,  // Brave / Tor presenting an upstream UA
  kFraudBrowser,    // anti-detect browser with a spoofed victim profile
};

struct SessionRecord {
  std::string session_id;    // opaque, randomized (Appendix A)
  bp::util::Date date;
  std::string user_agent;    // claimed navigator.userAgent header
  ua::UserAgent claimed;     // parsed form of the above

  // Feature values for the *stored* candidate subset (see Dataset).
  std::vector<std::int32_t> features;

  // FinOrg risk-system tags (evaluation only, §7.1).
  bool untrusted_ip = false;
  bool untrusted_cookie = false;
  bool ato = false;

  // Simulation ground truth.
  SessionKind kind = SessionKind::kBenign;
  std::string origin;  // actual browser / fraud tool label
};

class Dataset {
 public:
  Dataset() = default;
  // `stored_indices`: the candidate-catalog indices persisted per row.
  explicit Dataset(std::vector<std::size_t> stored_indices)
      : stored_indices_(std::move(stored_indices)) {}

  const std::vector<std::size_t>& stored_indices() const noexcept {
    return stored_indices_;
  }
  std::vector<SessionRecord>& records() noexcept { return records_; }
  const std::vector<SessionRecord>& records() const noexcept {
    return records_;
  }
  std::size_t size() const noexcept { return records_.size(); }

  void add(SessionRecord record) { records_.push_back(std::move(record)); }

  // Feature matrix over a subset of the stored candidates (`wanted` uses
  // candidate-catalog indices and must be a subset of stored_indices()).
  ml::Matrix feature_matrix(const std::vector<std::size_t>& wanted) const;
  // All stored features, in stored order.
  ml::Matrix feature_matrix() const;

  // Per-row claimed-UA keys (for the accuracy metrics).
  std::vector<std::uint32_t> ua_keys() const;

  // Rows restricted to a date range [from, to] (inclusive).
  Dataset slice(bp::util::Date from, bp::util::Date to) const;

 private:
  std::vector<std::size_t> stored_indices_;
  std::vector<SessionRecord> records_;
};

}  // namespace bp::traffic
