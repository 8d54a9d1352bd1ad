// Coarse-grained fingerprint extraction.
//
// In production this is a <1KB JavaScript snippet evaluating
// Object.getOwnPropertyNames(...).length over the candidate interfaces;
// here the "page visit" is simulated against the engine-timeline model.
// Two paths are provided:
//
//   * extract_candidates / extract_final — the values a visit produces,
//     including environment modifiers and staggered-rollout blending.
//     This is what the traffic generator and fraud simulators call.
//
//   * SimulatedDom — an object-model walk that actually materializes the
//     property-name lists and counts them, giving the extraction a
//     realistic, measurable cost profile for the Table 2 / §7.5
//     performance benchmarks (property enumeration dominated by string
//     handling, a few hundred names per prototype).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "browser/environment.h"
#include "browser/feature_catalog.h"

namespace bp::browser {

// One collected record, exactly the fields FinOrg's collection pipeline
// stored: candidate feature values, the navigator.userAgent string, and
// an opaque session identifier.
using CandidateValues = std::vector<int>;  // catalog.candidate_count() wide
using FinalValues = std::vector<double>;   // the production 28, Table 8 order

// Pristine-install candidate values for an engine release (memoized;
// `previous_era` selects the staggered-rollout cohort's values).
const CandidateValues& baseline_candidates(Engine engine, int engine_version,
                                           bool previous_era = false);

// All 513 candidate values for a visit from `env`.
CandidateValues extract_candidates(const Environment& env);
// The same values written into `out`, reusing its capacity (the traffic
// generator extracts every session into one buffer).
void extract_candidates(const Environment& env, CandidateValues& out);

// Restrict candidate values to a feature subset (by candidate index).
FinalValues select_features(const CandidateValues& values,
                            const std::vector<std::size_t>& indices);

// The production 28 directly.
FinalValues extract_final(const Environment& env);

// Serialized collection payload: the integer outputs joined with commas
// plus the UA string and the opaque session id — the paper's "under one
// kilobyte" budget refers to this (production feature set).
std::string serialize_payload(const FinalValues& values,
                              const std::string& user_agent,
                              const std::string& session_id);
std::string serialize_payload(const CandidateValues& values,
                              const std::string& user_agent,
                              const std::string& session_id);

// ----------------------------------------------------------------------
// SimulatedDom: materializes per-interface property-name tables so that
// benchmarks measure work comparable to real prototype reflection.
// ----------------------------------------------------------------------
class SimulatedDom {
 public:
  explicit SimulatedDom(const Environment& env);

  // Enumerate the (synthetic) own-property names of an interface's
  // prototype; size equals the timeline value for the environment.
  const std::vector<std::string>& own_property_names(
      std::size_t candidate_index) const;

  // Run the full production extraction against the materialized model:
  // enumerate + count for the 22 deviation features, probe presence for
  // the 6 time-based ones.  Returns the same values as extract_final.
  FinalValues run_production_script() const;

 private:
  Environment env_;
  // Lazily built per candidate feature (only deviation-based entries are
  // ever populated).
  mutable std::vector<std::vector<std::string>> property_tables_;
  mutable std::vector<bool> built_;
};

}  // namespace bp::browser
