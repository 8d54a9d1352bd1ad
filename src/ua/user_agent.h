// user-agent string model: parsing, formatting, and the vendor/version
// distance semantics used by Algorithm 1 of the paper.
//
// The threat model (paper §4) assumes the attacker always sets the
// victim's user-agent verbatim, so Browser Polygraph must be able to
// (a) synthesize realistic UA strings for every browser release in the
// study window, and (b) recover vendor + major version from an arbitrary
// claimed UA.  Note that privacy-focused Chromium/Gecko derivatives
// (Brave, Tor Browser) intentionally present the UA of their upstream —
// parsing alone cannot distinguish them; that discrepancy is exactly what
// the fingerprint-side detection exploits.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace bp::ua {

enum class Vendor : std::uint8_t {
  kChrome,
  kFirefox,
  kEdge,        // Chromium-based Edge (79+)
  kEdgeLegacy,  // EdgeHTML (Edge 17-19)
  kSafari,
  kUnknown,
};

std::string_view vendor_name(Vendor v) noexcept;

enum class Os : std::uint8_t {
  kWindows10,
  kWindows11,  // NB: Windows 11 reports "Windows NT 10.0" in UAs.
  kMacSonoma,
  kMacSequoia,
  kLinux,
};

// A parsed (or synthesized) user-agent.
struct UserAgent {
  Vendor vendor = Vendor::kUnknown;
  int major_version = 0;
  Os os = Os::kWindows10;

  friend bool operator==(const UserAgent&, const UserAgent&) = default;

  // Short human-readable form, e.g. "Chrome 112".
  std::string label() const;

  // Canonical key used in cluster tables: vendor + major version.
  // OS is deliberately excluded — the paper clusters by browser release.
  std::uint32_t key() const noexcept {
    return (static_cast<std::uint32_t>(vendor) << 16) |
           static_cast<std::uint32_t>(major_version & 0xffff);
  }
};

// Render a full, realistic user-agent header value for the release.
// Examples of the shapes produced:
//   Chrome  : Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36
//             (KHTML, like Gecko) Chrome/112.0.0.0 Safari/537.36
//   Edge    : ... Chrome/112.0.0.0 Safari/537.36 Edg/112.0.1722.48
//   EdgeHTML: ... Chrome/64.0.3282.140 Safari/537.36 Edge/17.17134
//   Firefox : Mozilla/5.0 (Windows NT 10.0; Win64; x64; rv:102.0)
//             Gecko/20100101 Firefox/102.0
std::string format_user_agent(const UserAgent& ua);

// Parse a user-agent header value.  Only the tokens needed for fraud
// detection are recovered (vendor, major version, coarse OS).  Returns
// Vendor::kUnknown for strings that match no known desktop browser
// pattern; parse failures never throw.
UserAgent parse_user_agent(std::string_view header);

// Parse a short label of the form "Chrome 112" / "Firefox 101" /
// "Edge 17" as used throughout tables in the paper.
std::optional<UserAgent> parse_label(std::string_view label);

// A claimed user-agent as a client sends it: the short label form
// first, else the full header (parse_label, then parse_user_agent).
// Allocates nothing.
UserAgent parse_claimed(std::string_view claimed);

// Algorithm 1's vendor notion: EdgeHTML and Chromium Edge are the same
// vendor for distance purposes (both present as "Edge" to the analyst),
// every other vendor only matches itself.
bool same_vendor(Vendor a, Vendor b) noexcept;

}  // namespace bp::ua
