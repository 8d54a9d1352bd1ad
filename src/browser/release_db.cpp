#include "browser/release_db.h"

#include <algorithm>
#include <array>
#include <cassert>

namespace bp::browser {

namespace {

using bp::util::Date;

struct Anchor {
  int version;
  Date date;
};

// Linear interpolation of release dates between anchor milestones.
Date interpolate(std::span<const Anchor> anchors, int version) {
  assert(!anchors.empty());
  if (version <= anchors.front().version) return anchors.front().date;
  for (std::size_t i = 1; i < anchors.size(); ++i) {
    if (version <= anchors[i].version) {
      const Anchor& a = anchors[i - 1];
      const Anchor& b = anchors[i];
      const int span_versions = b.version - a.version;
      const int span_days = b.date - a.date;
      const int offset = version - a.version;
      return a.date + span_days * offset / span_versions;
    }
  }
  // Extrapolate past the last anchor at the final cadence.
  const Anchor& a = anchors[anchors.size() - 2];
  const Anchor& b = anchors.back();
  const int per_version = (b.date - a.date) / (b.version - a.version);
  return b.date + per_version * (version - b.version);
}

// Chrome milestone anchors (public release history).
constexpr std::array<Anchor, 11> kChromeAnchors = {{
    {59, Date::from_ymd(2017, 6, 5)},
    {70, Date::from_ymd(2018, 10, 16)},
    {80, Date::from_ymd(2020, 2, 4)},
    {90, Date::from_ymd(2021, 4, 14)},
    {100, Date::from_ymd(2022, 3, 29)},
    {110, Date::from_ymd(2023, 2, 7)},
    {114, Date::from_ymd(2023, 5, 30)},
    {115, Date::from_ymd(2023, 7, 12)},
    {117, Date::from_ymd(2023, 9, 12)},
    {118, Date::from_ymd(2023, 10, 10)},
    {119, Date::from_ymd(2023, 10, 24)},
}};

// Firefox milestone anchors.
constexpr std::array<Anchor, 9> kFirefoxAnchors = {{
    {46, Date::from_ymd(2016, 4, 26)},
    {60, Date::from_ymd(2018, 5, 9)},
    {80, Date::from_ymd(2020, 8, 25)},
    {100, Date::from_ymd(2022, 5, 3)},
    {114, Date::from_ymd(2023, 6, 6)},
    {115, Date::from_ymd(2023, 7, 4)},
    {117, Date::from_ymd(2023, 8, 29)},
    {118, Date::from_ymd(2023, 9, 26)},
    {119, Date::from_ymd(2023, 10, 24)},
}};

}  // namespace

std::string_view engine_name(Engine e) noexcept {
  switch (e) {
    case Engine::kBlink:
      return "Blink";
    case Engine::kGecko:
      return "Gecko";
    case Engine::kEdgeHtml:
      return "EdgeHTML";
    case Engine::kWebKit:
      return "WebKit";
  }
  return "Blink";
}

ReleaseDatabase::ReleaseDatabase() {
  // Chrome 59-119 (Blink).
  for (int v = 59; v <= 119; ++v) {
    releases_.push_back(BrowserRelease{ua::Vendor::kChrome, v, Engine::kBlink,
                                       v, interpolate(kChromeAnchors, v)});
  }
  // Firefox 46-119 (Gecko).
  for (int v = 46; v <= 119; ++v) {
    releases_.push_back(BrowserRelease{ua::Vendor::kFirefox, v, Engine::kGecko,
                                       v, interpolate(kFirefoxAnchors, v)});
  }
  // EdgeHTML 17-19.
  releases_.push_back(BrowserRelease{ua::Vendor::kEdgeLegacy, 17,
                                     Engine::kEdgeHtml, 17,
                                     Date::from_ymd(2018, 4, 30)});
  releases_.push_back(BrowserRelease{ua::Vendor::kEdgeLegacy, 18,
                                     Engine::kEdgeHtml, 18,
                                     Date::from_ymd(2018, 11, 13)});
  releases_.push_back(BrowserRelease{ua::Vendor::kEdgeLegacy, 19,
                                     Engine::kEdgeHtml, 19,
                                     Date::from_ymd(2019, 5, 1)});
  // Chromium Edge 79-119: tracks the same-numbered Chrome release with
  // roughly a week of lag.
  for (int v = 79; v <= 119; ++v) {
    releases_.push_back(BrowserRelease{ua::Vendor::kEdge, v, Engine::kBlink, v,
                                       interpolate(kChromeAnchors, v) + 7});
  }
}

const ReleaseDatabase& ReleaseDatabase::instance() {
  static const ReleaseDatabase db;
  return db;
}

const BrowserRelease* ReleaseDatabase::find(ua::Vendor vendor,
                                            int version) const {
  for (const auto& r : releases_) {
    if (r.vendor == vendor && r.version == version) return &r;
  }
  // Tolerate the Edge/EdgeLegacy split when callers pass a parsed label.
  if (vendor == ua::Vendor::kEdge && version < 20) {
    return find(ua::Vendor::kEdgeLegacy, version);
  }
  return nullptr;
}

const BrowserRelease* ReleaseDatabase::latest(ua::Vendor vendor,
                                              Date date) const {
  const BrowserRelease* best = nullptr;
  for (const auto& r : releases_) {
    if (r.vendor != vendor || r.release_date > date) continue;
    if (best == nullptr || r.version > best->version) best = &r;
  }
  return best;
}

}  // namespace bp::browser
