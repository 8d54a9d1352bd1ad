// Fixed-width ASCII table rendering.
//
// Every bench binary reproduces one table or figure of the paper and
// prints it in a form directly comparable with the published artifact.
// This helper keeps that output consistent across binaries.
#pragma once

#include <initializer_list>
#include <string>
#include <vector>

namespace bp::util {

class TextTable {
 public:
  TextTable() = default;
  explicit TextTable(std::vector<std::string> header)
      : header_(std::move(header)) {}

  void add_row(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

  // Convenience for mixed literal rows.
  void add_row(std::initializer_list<std::string> row) {
    rows_.emplace_back(row);
  }

  std::size_t row_count() const { return rows_.size(); }

  // Render with column alignment, `| a | b |` style with a separator rule
  // under the header.
  std::string render() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

// Render a simple two-column "figure" as an ASCII line/bar chart: one row
// per x value, bar length proportional to y.  Used by the bench binaries
// that reproduce the paper's figures (PCA variance, elbow, anonymity sets).
std::string ascii_chart(const std::vector<std::pair<std::string, double>>& series,
                        int width = 60, char bar = '#');

}  // namespace bp::util
