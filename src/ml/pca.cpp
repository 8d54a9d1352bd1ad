#include "ml/pca.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

#include "util/parallel.h"

namespace bp::ml {

namespace {

// Row-blocking grain for the covariance reduction and the projection
// sweep; fixed so the chunk-ordered covariance sums (and therefore the
// eigenbasis) are identical at any thread count.
constexpr std::size_t kRowGrain = 2048;

double off_diagonal_norm(const Matrix& a) {
  double sum = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      if (i != j) sum += a(i, j) * a(i, j);
    }
  }
  return std::sqrt(sum);
}

}  // namespace

void symmetric_eigen(const Matrix& a_in, std::vector<double>& eigenvalues,
                     Matrix& eigenvectors, double tolerance, int max_sweeps) {
  assert(a_in.rows() == a_in.cols());
  const std::size_t n = a_in.rows();
  Matrix a = a_in;
  Matrix v = Matrix::identity(n);

  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    if (off_diagonal_norm(a) <= tolerance) break;
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = a(p, q);
        if (std::abs(apq) < 1e-300) continue;
        const double app = a(p, p);
        const double aqq = a(q, q);
        const double theta = (aqq - app) / (2.0 * apq);
        // Stable computation of tan(phi) for the smaller rotation angle.
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;

        for (std::size_t k = 0; k < n; ++k) {
          const double akp = a(k, p);
          const double akq = a(k, q);
          a(k, p) = c * akp - s * akq;
          a(k, q) = s * akp + c * akq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double apk = a(p, k);
          const double aqk = a(q, k);
          a(p, k) = c * apk - s * aqk;
          a(q, k) = s * apk + c * aqk;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double vkp = v(k, p);
          const double vkq = v(k, q);
          v(k, p) = c * vkp - s * vkq;
          v(k, q) = s * vkp + c * vkq;
        }
      }
    }
  }

  // Sort eigenpairs by descending eigenvalue.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    return a(x, x) > a(y, y);
  });

  eigenvalues.resize(n);
  eigenvectors = Matrix(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    eigenvalues[j] = a(order[j], order[j]);
    for (std::size_t i = 0; i < n; ++i) {
      eigenvectors(i, j) = v(i, order[j]);
    }
  }
}

void Pca::fit(const Matrix& data, std::size_t n_components) {
  assert(data.rows() > 1 && data.cols() > 0);
  const std::size_t d = data.cols();
  n_components_ = std::min(n_components, d);
  mean_ = data.column_means();

  // Covariance (sample, divisor n-1, matching sklearn) as a blocked
  // parallel reduction over rows: each chunk accumulates its own upper
  // triangle, merged in chunk order.
  const double denom = static_cast<double>(data.rows() - 1);
  Matrix cov = bp::util::parallel_reduce(
      std::size_t{0}, data.rows(), kRowGrain, Matrix(d, d),
      [&](std::size_t begin, std::size_t end) {
        Matrix partial(d, d);
        for (std::size_t r = begin; r < end; ++r) {
          const auto row = data.row(r);
          for (std::size_t i = 0; i < d; ++i) {
            const double di = row[i] - mean_[i];
            if (di == 0.0) continue;
            for (std::size_t j = i; j < d; ++j) {
              partial(i, j) += di * (row[j] - mean_[j]);
            }
          }
        }
        return partial;
      },
      [d](Matrix& acc, Matrix&& part) {
        for (std::size_t i = 0; i < d; ++i) {
          for (std::size_t j = i; j < d; ++j) {
            acc(i, j) += part(i, j);
          }
        }
      });
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t j = i; j < d; ++j) {
      cov(i, j) /= denom;
      cov(j, i) = cov(i, j);
    }
  }

  Matrix vectors;
  symmetric_eigen(cov, eigenvalues_, vectors);

  components_ = Matrix(d, n_components_);
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t j = 0; j < n_components_; ++j) {
      components_(i, j) = vectors(i, j);
    }
  }
}

Matrix Pca::transform(const Matrix& data) const {
  assert(fitted() && data.cols() == mean_.size());
  // Row-parallel projection through transform_row, which performs the
  // same center-then-accumulate arithmetic (in the same order) as the
  // historical centered.multiply(components_) path.
  Matrix out(data.rows(), n_components_);
  bp::util::parallel_for(
      std::size_t{0}, data.rows(), kRowGrain,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t r = begin; r < end; ++r) {
          transform_row(data.row(r), out.row(r));
        }
      });
  return out;
}

void Pca::transform_row(std::span<const double> in,
                        std::span<double> out) const {
  assert(fitted() && in.size() == mean_.size() && out.size() == n_components_);
  std::fill(out.begin(), out.end(), 0.0);
  for (std::size_t i = 0; i < in.size(); ++i) {
    const double centered = in[i] - mean_[i];
    if (centered == 0.0) continue;
    const auto components = components_.row(i);
    for (std::size_t j = 0; j < n_components_; ++j) {
      out[j] += centered * components[j];
    }
  }
}

Matrix Pca::fit_transform(const Matrix& data, std::size_t n_components) {
  fit(data, n_components);
  return transform(data);
}

Matrix Pca::inverse_transform(const Matrix& projected) const {
  assert(fitted() && projected.cols() == n_components_);
  Matrix out = projected.multiply(components_.transposed());
  for (std::size_t r = 0; r < out.rows(); ++r) {
    const auto row = out.row(r);
    for (std::size_t c = 0; c < out.cols(); ++c) {
      row[c] += mean_[c];
    }
  }
  return out;
}

Pca Pca::from_params(std::vector<double> mean, std::vector<double> eigenvalues,
                     Matrix components) {
  assert(components.rows() == mean.size());
  Pca pca;
  pca.mean_ = std::move(mean);
  pca.eigenvalues_ = std::move(eigenvalues);
  pca.n_components_ = components.cols();
  pca.components_ = std::move(components);
  return pca;
}

std::vector<double> Pca::cumulative_variance_ratio() const {
  double total = 0.0;
  for (double ev : eigenvalues_) total += std::max(ev, 0.0);
  std::vector<double> out(eigenvalues_.size(), 0.0);
  double running = 0.0;
  for (std::size_t i = 0; i < eigenvalues_.size(); ++i) {
    running += std::max(eigenvalues_[i], 0.0);
    out[i] = total > 0.0 ? running / total : 0.0;
  }
  return out;
}

}  // namespace bp::ml
