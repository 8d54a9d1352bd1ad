// Tests for StandardScaler and PCA.
#include <gtest/gtest.h>

#include <cmath>

#include "ml/pca.h"
#include "ml/scaler.h"
#include "util/rng.h"

namespace bp::ml {
namespace {

Matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  bp::util::Rng rng(seed);
  Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      m(r, c) = rng.normal(static_cast<double>(c) * 3.0,
                           1.0 + static_cast<double>(c));
    }
  }
  return m;
}

TEST(Scaler, ZeroMeanUnitVariance) {
  const Matrix data = random_matrix(500, 4, 1);
  StandardScaler scaler;
  const Matrix scaled = scaler.fit_transform(data);
  const auto means = scaled.column_means();
  const auto stds = scaled.column_stddevs(means);
  for (std::size_t c = 0; c < 4; ++c) {
    EXPECT_NEAR(means[c], 0.0, 1e-9);
    EXPECT_NEAR(stds[c], 1.0, 1e-9);
  }
}

TEST(Scaler, ConstantColumnCenteredOnly) {
  const Matrix data = Matrix::from_rows({{5, 1}, {5, 2}, {5, 3}});
  StandardScaler scaler;
  const Matrix scaled = scaler.fit_transform(data);
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_DOUBLE_EQ(scaled(r, 0), 0.0);
  }
}

TEST(Scaler, PassThroughColumns) {
  const Matrix data = Matrix::from_rows({{100, 0}, {200, 1}, {300, 1}});
  StandardScaler scaler;
  scaler.fit(data, {true, false});
  const Matrix scaled = scaler.transform(data);
  // Column 1 (the time-based bit) is untouched.
  EXPECT_DOUBLE_EQ(scaled(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(scaled(2, 1), 1.0);
  // Column 0 is standardized.
  EXPECT_NEAR(scaled(0, 0) + scaled(1, 0) + scaled(2, 0), 0.0, 1e-12);
}

TEST(Scaler, InverseTransformRoundTrips) {
  const Matrix data = random_matrix(100, 3, 2);
  StandardScaler scaler;
  const Matrix scaled = scaler.fit_transform(data);
  const Matrix restored = scaler.inverse_transform(scaled);
  for (std::size_t r = 0; r < data.rows(); ++r) {
    for (std::size_t c = 0; c < data.cols(); ++c) {
      EXPECT_NEAR(restored(r, c), data(r, c), 1e-9);
    }
  }
}

TEST(Scaler, TransformUsesTrainingStatistics) {
  const Matrix train = Matrix::from_rows({{0.0}, {10.0}});
  StandardScaler scaler;
  scaler.fit(train);
  const Matrix other = Matrix::from_rows({{5.0}});
  EXPECT_DOUBLE_EQ(scaler.transform(other)(0, 0), 0.0);  // (5-5)/5
}

TEST(Scaler, FromParamsReconstructs) {
  StandardScaler scaler = StandardScaler::from_params({2.0}, {4.0});
  const Matrix data = Matrix::from_rows({{10.0}});
  EXPECT_DOUBLE_EQ(scaler.transform(data)(0, 0), 2.0);
}

// ------------------------- eigen / PCA -------------------------

TEST(SymmetricEigen, DiagonalMatrix) {
  const Matrix a = Matrix::from_rows({{3, 0}, {0, 1}});
  std::vector<double> values;
  Matrix vectors;
  symmetric_eigen(a, values, vectors);
  EXPECT_NEAR(values[0], 3.0, 1e-12);
  EXPECT_NEAR(values[1], 1.0, 1e-12);
}

TEST(SymmetricEigen, KnownTwoByTwo) {
  // Eigenvalues of [[2,1],[1,2]] are 3 and 1.
  const Matrix a = Matrix::from_rows({{2, 1}, {1, 2}});
  std::vector<double> values;
  Matrix vectors;
  symmetric_eigen(a, values, vectors);
  EXPECT_NEAR(values[0], 3.0, 1e-10);
  EXPECT_NEAR(values[1], 1.0, 1e-10);
  // Eigenvector for 3 is (1,1)/sqrt(2) up to sign.
  EXPECT_NEAR(std::abs(vectors(0, 0)), 1.0 / std::sqrt(2.0), 1e-8);
}

TEST(SymmetricEigen, VectorsAreOrthonormal) {
  const Matrix a = Matrix::from_rows(
      {{4, 1, 0.5}, {1, 3, 0.2}, {0.5, 0.2, 2}});
  std::vector<double> values;
  Matrix v;
  symmetric_eigen(a, values, v);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      double dot = 0.0;
      for (std::size_t k = 0; k < 3; ++k) dot += v(k, i) * v(k, j);
      EXPECT_NEAR(dot, i == j ? 1.0 : 0.0, 1e-9);
    }
  }
}

TEST(Pca, EigenvaluesDescending) {
  const Matrix data = random_matrix(300, 5, 3);
  Pca pca;
  pca.fit(data, 5);
  const auto& ev = pca.eigenvalues();
  for (std::size_t i = 1; i < ev.size(); ++i) {
    EXPECT_GE(ev[i - 1], ev[i] - 1e-12);
  }
}

TEST(Pca, CumulativeVarianceMonotoneToOne) {
  const Matrix data = random_matrix(300, 6, 4);
  Pca pca;
  pca.fit(data, 6);
  const auto cumulative = pca.cumulative_variance_ratio();
  EXPECT_NEAR(cumulative.back(), 1.0, 1e-9);
  for (std::size_t i = 1; i < cumulative.size(); ++i) {
    EXPECT_GE(cumulative[i], cumulative[i - 1] - 1e-12);
  }
}

TEST(Pca, FullRankRoundTrips) {
  const Matrix data = random_matrix(120, 4, 5);
  Pca pca;
  const Matrix projected = pca.fit_transform(data, 4);
  const Matrix restored = pca.inverse_transform(projected);
  for (std::size_t r = 0; r < data.rows(); ++r) {
    for (std::size_t c = 0; c < data.cols(); ++c) {
      EXPECT_NEAR(restored(r, c), data(r, c), 1e-8);
    }
  }
}

TEST(Pca, CapturesDominantDirection) {
  // Points along the diagonal y = x with tiny orthogonal noise: one
  // component should capture nearly everything.
  bp::util::Rng rng(6);
  Matrix data(400, 2);
  for (std::size_t i = 0; i < 400; ++i) {
    const double t = rng.normal(0.0, 5.0);
    const double noise = rng.normal(0.0, 0.01);
    data(i, 0) = t + noise;
    data(i, 1) = t - noise;
  }
  Pca pca;
  pca.fit(data, 2);
  const auto ratio = pca.cumulative_variance_ratio();
  EXPECT_GT(ratio[0], 0.999);
}

TEST(Pca, ProjectionReducesDimensions) {
  const Matrix data = random_matrix(50, 6, 7);
  Pca pca;
  const Matrix projected = pca.fit_transform(data, 2);
  EXPECT_EQ(projected.cols(), 2u);
  EXPECT_EQ(projected.rows(), 50u);
}

TEST(Pca, ComponentCountClamped) {
  const Matrix data = random_matrix(50, 3, 8);
  Pca pca;
  pca.fit(data, 10);
  EXPECT_EQ(pca.n_components(), 3u);
}

TEST(Pca, FromParamsMatchesOriginalTransform) {
  const Matrix data = random_matrix(80, 4, 9);
  Pca pca;
  pca.fit(data, 3);
  Pca rebuilt = Pca::from_params(pca.mean(), pca.eigenvalues(),
                                 pca.components());
  const Matrix a = pca.transform(data);
  const Matrix b = rebuilt.transform(data);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      EXPECT_DOUBLE_EQ(a(r, c), b(r, c));
    }
  }
}

// Property: total variance is preserved by the eigen decomposition
// (trace of covariance == sum of eigenvalues) across random datasets.
class PcaTraceProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PcaTraceProperty, TraceEqualsEigenvalueSum) {
  const Matrix data = random_matrix(150, 5, GetParam());
  Pca pca;
  pca.fit(data, 5);

  const auto means = data.column_means();
  double trace = 0.0;
  for (std::size_t c = 0; c < data.cols(); ++c) {
    double var = 0.0;
    for (std::size_t r = 0; r < data.rows(); ++r) {
      const double d = data(r, c) - means[c];
      var += d * d;
    }
    trace += var / static_cast<double>(data.rows() - 1);
  }
  double sum = 0.0;
  for (double ev : pca.eigenvalues()) sum += ev;
  EXPECT_NEAR(sum, trace, 1e-6 * trace);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PcaTraceProperty,
                         ::testing::Range<std::uint64_t>(10, 18));

}  // namespace
}  // namespace bp::ml
