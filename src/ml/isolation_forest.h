// Isolation Forest anomaly detection (Liu, Ting, Zhou — ICDM 2008).
//
// Paper §6.4.1 filters outliers from the training data with an Isolation
// Forest at a contamination threshold of 0.002% — on the 205k-row FinOrg
// dataset this removed 172 rows, none of which matched a legitimate
// browser baseline.  We implement the standard algorithm: an ensemble of
// isolation trees built on subsamples, anomaly score
//   s(x, n) = 2 ^ ( -E[h(x)] / c(n) )
// where h is the path length and c(n) the average unsuccessful-search
// path length of a BST.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "ml/matrix.h"
#include "util/rng.h"

namespace bp::ml {

struct IsolationForestConfig {
  std::size_t n_trees = 100;
  std::size_t max_samples = 256;  // subsample size per tree
  std::uint64_t seed = 7;
};

class IsolationForest {
 public:
  explicit IsolationForest(IsolationForestConfig config = {})
      : config_(config) {}

  void fit(const Matrix& data);

  // Anomaly score in (0, 1); higher = more anomalous.
  double score_one(std::span<const double> point) const;
  std::vector<double> score(const Matrix& data) const;

  // Rows to KEEP after removing the `contamination` fraction with the
  // highest anomaly scores (at least the ceil of contamination * n rows
  // are dropped whenever contamination > 0 and n > 0).
  std::vector<bool> inlier_mask(const Matrix& data,
                                double contamination) const;

  bool fitted() const noexcept { return !trees_.empty(); }

  // Average unsuccessful-search path length of a BST with n nodes.
  static double average_path_length(std::size_t n) noexcept;

 private:
  // One node of a tree's flat array.  An internal node sends a row to
  // child[!(x[feature] < threshold)], so NaN goes right.  A leaf is its
  // own child on both sides and carries `terminal` = depth + c(size),
  // the path length of every row that reaches it; a walk of exactly the
  // tree's height therefore ends on the row's leaf without testing for
  // one.
  struct Node {
    double threshold = 0.0;
    double terminal = 0.0;
    std::uint32_t feature = 0;
    std::uint32_t child[2] = {0, 0};
  };

  struct Tree {
    std::vector<Node> nodes;  // root first
    std::uint32_t height = 0;  // deepest leaf's depth
    double path_length(const double* point) const noexcept;
  };

  Tree build_tree(const Matrix& data, std::vector<std::size_t>& indices,
                  bp::util::Rng& rng) const;
  // Adds each row's path length through `tree` to sums[i - begin],
  // several rows in flight at once.
  static void accumulate(const Tree& tree, const Matrix& data,
                         std::size_t begin, std::size_t end, double* sums);

  IsolationForestConfig config_;
  std::vector<Tree> trees_;
  double c_norm_ = 1.0;  // c(max_samples)
};

}  // namespace bp::ml
