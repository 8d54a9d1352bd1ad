// Principal Component Analysis via eigen-decomposition of the covariance
// matrix (cyclic Jacobi rotations).
//
// Paper §6.4.2 uses PCA to project the 28 scaled features onto 7
// components capturing >= 98.5% of cumulative variance (Figure 2).  The
// feature count throughout this codebase stays in the low hundreds (268
// for the FingerprintJS baseline of Appendix-5 is the worst case), so a
// dense Jacobi solver on the d x d covariance matrix is exact, simple,
// and fast enough.
#pragma once

#include <cstddef>
#include <vector>

#include "ml/matrix.h"

namespace bp::ml {

// Symmetric eigen-decomposition: fills `eigenvalues` (descending) and
// `eigenvectors` (columns matching eigenvalue order).  `a` must be
// symmetric; tolerance is on the off-diagonal Frobenius norm.
void symmetric_eigen(const Matrix& a, std::vector<double>& eigenvalues,
                     Matrix& eigenvectors, double tolerance = 1e-12,
                     int max_sweeps = 64);

class Pca {
 public:
  // Fit retaining `n_components` components (clamped to the feature
  // count).  Data is centered internally; callers typically standardize
  // first, matching the paper's pipeline.
  void fit(const Matrix& data, std::size_t n_components);

  Matrix transform(const Matrix& data) const;
  Matrix fit_transform(const Matrix& data, std::size_t n_components);

  // Single-row projection into a caller-owned buffer (`in.size() ==
  // n_features`, `out.size() == n_components()`).  Allocation-free for
  // the serving tier's per-session hot path.
  void transform_row(std::span<const double> in, std::span<double> out) const;

  // Reconstruct from component space back to (centered-removed) feature
  // space; lossless when n_components == n_features.
  Matrix inverse_transform(const Matrix& projected) const;

  bool fitted() const noexcept { return !eigenvalues_.empty(); }
  std::size_t n_components() const noexcept { return n_components_; }

  // Cumulative fraction of total variance explained by the first k
  // components, for every k up to the feature count (used to reproduce
  // Figure 2).
  std::vector<double> cumulative_variance_ratio() const;

  const std::vector<double>& eigenvalues() const noexcept {
    return eigenvalues_;
  }
  const std::vector<double>& mean() const noexcept { return mean_; }
  const Matrix& components() const noexcept { return components_; }

  // Reconstruct a fitted projection from persisted parameters (model_io).
  static Pca from_params(std::vector<double> mean,
                         std::vector<double> eigenvalues, Matrix components);

 private:
  std::size_t n_components_ = 0;
  std::vector<double> mean_;
  std::vector<double> eigenvalues_;  // all of them, descending
  Matrix components_;                // n_features x n_components
};

}  // namespace bp::ml
