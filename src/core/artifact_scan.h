// Automated vendor-artifact scanning (§8's proposed future work, built).
//
// Manual analysis found tool-specific globals (ANTBROWSER, ...); this
// module turns those findings into a maintained signature set that a
// collection script can evaluate with one getOwnPropertyNames(window)
// sweep.  It complements the clustering detector: artifacts identify the
// *specific tool* with certainty when present, while the coarse-grained
// model covers tools that keep their namespace clean.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace bp::core {

struct ArtifactSignature {
  std::string tool;            // e.g. "AntBrowser"
  std::string exact_global;    // exact window-global name ("" if unused)
  std::string prefix;          // case-insensitive prefix ("" if unused)
};

struct ArtifactMatch {
  std::string tool;
  std::string matched_name;    // the window global that matched
};

class ArtifactScanner {
 public:
  // Scanner loaded with the built-in signature set (the §8 findings).
  static ArtifactScanner with_builtin_signatures();

  void add_signature(ArtifactSignature signature);

  // Scan a window-global namespace; returns every signature hit (empty
  // for clean browsers).  Names are matched exactly or by
  // case-insensitive prefix.
  std::vector<ArtifactMatch> scan(
      const std::vector<std::string>& window_globals) const;

  // Convenience: the first matching tool, if any.
  std::optional<std::string> identify(
      const std::vector<std::string>& window_globals) const;

 private:
  std::vector<ArtifactSignature> signatures_;
};

}  // namespace bp::core
