#include "ua/user_agent.h"

#include <cstdio>

#include "util/strings.h"

namespace bp::ua {

namespace {

using bp::util::contains;
using bp::util::parse_int;

// Extract the integer that follows `token` in `header` (major version up
// to the first '.' or non-digit).  Returns 0 when absent.  A version too
// long for an int wraps modulo 2^32 rather than overflowing.
int version_after(std::string_view header, std::string_view token) {
  const std::size_t pos = header.find(token);
  if (pos == std::string_view::npos) return 0;
  std::size_t i = pos + token.size();
  std::uint32_t value = 0;
  bool any = false;
  while (i < header.size() && header[i] >= '0' && header[i] <= '9') {
    value = value * 10 + static_cast<std::uint32_t>(header[i] - '0');
    any = true;
    ++i;
  }
  return any ? static_cast<int>(value) : 0;
}

std::string os_fragment(Os os) {
  switch (os) {
    case Os::kWindows10:
    case Os::kWindows11:
      // Windows 11 froze the UA platform token at "Windows NT 10.0".
      return "Windows NT 10.0; Win64; x64";
    case Os::kMacSonoma:
      return "Macintosh; Intel Mac OS X 10_15_7";
    case Os::kMacSequoia:
      return "Macintosh; Intel Mac OS X 10_15_7";
    case Os::kLinux:
      return "X11; Linux x86_64";
  }
  return "Windows NT 10.0; Win64; x64";
}

}  // namespace

std::string_view vendor_name(Vendor v) noexcept {
  switch (v) {
    case Vendor::kChrome:
      return "Chrome";
    case Vendor::kFirefox:
      return "Firefox";
    case Vendor::kEdge:
      return "Edge";
    case Vendor::kEdgeLegacy:
      return "Edge";
    case Vendor::kSafari:
      return "Safari";
    case Vendor::kUnknown:
      return "Unknown";
  }
  return "Unknown";
}

std::string UserAgent::label() const {
  std::string out(vendor_name(vendor));
  out += ' ';
  out += std::to_string(major_version);
  return out;
}

std::string format_user_agent(const UserAgent& ua) {
  char buf[320];
  const std::string os = os_fragment(ua.os);
  switch (ua.vendor) {
    case Vendor::kChrome:
      std::snprintf(buf, sizeof(buf),
                    "Mozilla/5.0 (%s) AppleWebKit/537.36 (KHTML, like Gecko) "
                    "Chrome/%d.0.0.0 Safari/537.36",
                    os.c_str(), ua.major_version);
      return buf;
    case Vendor::kEdge:
      std::snprintf(buf, sizeof(buf),
                    "Mozilla/5.0 (%s) AppleWebKit/537.36 (KHTML, like Gecko) "
                    "Chrome/%d.0.0.0 Safari/537.36 Edg/%d.0.1722.48",
                    os.c_str(), ua.major_version, ua.major_version);
      return buf;
    case Vendor::kEdgeLegacy:
      std::snprintf(buf, sizeof(buf),
                    "Mozilla/5.0 (%s) AppleWebKit/537.36 (KHTML, like Gecko) "
                    "Chrome/64.0.3282.140 Safari/537.36 Edge/%d.17134",
                    os.c_str(), ua.major_version);
      return buf;
    case Vendor::kFirefox:
      std::snprintf(buf, sizeof(buf),
                    "Mozilla/5.0 (%s; rv:%d.0) Gecko/20100101 Firefox/%d.0",
                    os.c_str(), ua.major_version, ua.major_version);
      return buf;
    case Vendor::kSafari:
      std::snprintf(buf, sizeof(buf),
                    "Mozilla/5.0 (%s) AppleWebKit/605.1.15 (KHTML, like Gecko) "
                    "Version/%d.0 Safari/605.1.15",
                    os.c_str(), ua.major_version);
      return buf;
    case Vendor::kUnknown:
      break;
  }
  return "Mozilla/5.0 (compatible)";
}

UserAgent parse_user_agent(std::string_view header) {
  UserAgent ua;

  if (contains(header, "Windows NT")) {
    ua.os = Os::kWindows10;
  } else if (contains(header, "Mac OS X")) {
    ua.os = Os::kMacSonoma;
  } else if (contains(header, "Linux")) {
    ua.os = Os::kLinux;
  }

  // Order matters: Chromium Edge UAs contain "Chrome/", EdgeHTML UAs
  // contain both "Chrome/" and "Edge/", Firefox UAs are disjoint.
  if (contains(header, "Edg/")) {
    ua.vendor = Vendor::kEdge;
    ua.major_version = version_after(header, "Edg/");
  } else if (contains(header, "Edge/")) {
    ua.vendor = Vendor::kEdgeLegacy;
    ua.major_version = version_after(header, "Edge/");
  } else if (contains(header, "Firefox/")) {
    ua.vendor = Vendor::kFirefox;
    ua.major_version = version_after(header, "Firefox/");
  } else if (contains(header, "Chrome/")) {
    ua.vendor = Vendor::kChrome;
    ua.major_version = version_after(header, "Chrome/");
  } else if (contains(header, "Safari/") && contains(header, "Version/")) {
    ua.vendor = Vendor::kSafari;
    ua.major_version = version_after(header, "Version/");
  } else {
    ua.vendor = Vendor::kUnknown;
    ua.major_version = 0;
  }
  return ua;
}

std::optional<UserAgent> parse_label(std::string_view label) {
  // Exactly two space-separated fields once the ends are trimmed.
  label = bp::util::trim(label);
  const std::size_t space = label.find(' ');
  if (space == std::string_view::npos ||
      label.find(' ', space + 1) != std::string_view::npos) {
    return std::nullopt;
  }
  const std::string_view name = label.substr(0, space);
  const auto version = parse_int(label.substr(space + 1));
  if (!version || *version <= 0) return std::nullopt;

  UserAgent ua;
  ua.major_version = static_cast<int>(*version);
  if (bp::util::iequals(name, "Chrome")) {
    ua.vendor = Vendor::kChrome;
  } else if (bp::util::iequals(name, "Firefox")) {
    ua.vendor = Vendor::kFirefox;
  } else if (bp::util::iequals(name, "Edge")) {
    ua.vendor = ua.major_version < 20 ? Vendor::kEdgeLegacy : Vendor::kEdge;
  } else if (bp::util::iequals(name, "Safari")) {
    ua.vendor = Vendor::kSafari;
  } else {
    return std::nullopt;
  }
  return ua;
}

UserAgent parse_claimed(std::string_view claimed) {
  if (const auto label = parse_label(claimed)) return *label;
  return parse_user_agent(claimed);
}

bool same_vendor(Vendor a, Vendor b) noexcept {
  auto canon = [](Vendor v) {
    return v == Vendor::kEdgeLegacy ? Vendor::kEdge : v;
  };
  return canon(a) == canon(b);
}

}  // namespace bp::ua
