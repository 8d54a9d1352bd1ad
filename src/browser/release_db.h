// Browser release database: every (vendor, major version) pair in the
// paper's study window, with engine lineage and release dates.
//
// Paper §6.1: fingerprints were gathered from Chrome 59-119,
// Firefox 46-119, Edge 17-19 (EdgeHTML) and Edge 79-119 (Chromium).
// Release dates drive both the traffic popularity model (newer releases
// dominate) and the drift-detection schedule (checks are run a few days
// after each Firefox release).  Dates are anchored at known milestones
// and linearly interpolated between anchors — day-level precision is all
// the pipeline needs.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "ua/user_agent.h"
#include "util/date.h"

namespace bp::browser {

enum class Engine : std::uint8_t {
  kBlink,     // Chrome, Chromium Edge (79+), Brave
  kGecko,     // Firefox, Tor Browser
  kEdgeHtml,  // Edge 17-19
  kWebKit,    // Safari (outside the study; kept for robustness tests)
};

std::string_view engine_name(Engine e) noexcept;

struct BrowserRelease {
  ua::Vendor vendor = ua::Vendor::kChrome;
  int version = 0;
  Engine engine = Engine::kBlink;
  int engine_version = 0;  // == version for Blink/Gecko lineages
  bp::util::Date release_date;

  ua::UserAgent user_agent(ua::Os os = ua::Os::kWindows10) const {
    return ua::UserAgent{vendor, version, os};
  }
  std::string label() const { return user_agent().label(); }
};

class ReleaseDatabase {
 public:
  // The full study-window database.
  static const ReleaseDatabase& instance();

  std::span<const BrowserRelease> releases() const noexcept {
    return releases_;
  }

  // Lookup by vendor + major version; nullptr when absent.
  const BrowserRelease* find(ua::Vendor vendor, int version) const;
  const BrowserRelease* find(const ua::UserAgent& ua) const {
    return find(ua.vendor, ua.major_version);
  }

  // The latest release of a vendor at a date (nullptr when the vendor has
  // no release yet).
  const BrowserRelease* latest(ua::Vendor vendor, bp::util::Date date) const;

 private:
  ReleaseDatabase();
  std::vector<BrowserRelease> releases_;
};

}  // namespace bp::browser
