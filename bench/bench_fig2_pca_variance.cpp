// Reproduces Figure 2: cumulative explained variance vs the number of
// PCA components on the scaled 28-feature training data.  The paper
// selects 7 components as the point capturing >= 98.5% of variance.
#include <cstdio>
#include <cstdlib>

#include "bench_common.h"
#include "browser/feature_catalog.h"
#include "ml/pca.h"
#include "ml/scaler.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace bp;
  const std::size_t n =
      argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 205'000;

  std::printf("=== Figure 2: cumulative variance vs PCA components ===\n");
  const auto data = benchmark_support::make_training_dataset(n);
  const auto& catalog = browser::FeatureCatalog::instance();
  const ml::Matrix features = data.feature_matrix(catalog.final_indices());

  std::vector<bool> scale_column;
  for (std::size_t idx : catalog.final_indices()) {
    scale_column.push_back(catalog.spec(idx).kind ==
                           browser::FeatureKind::kDeviationBased);
  }
  ml::StandardScaler scaler;
  scaler.fit(features, scale_column);

  ml::Pca pca;
  pca.fit(scaler.transform(features), catalog.final_count());
  const std::vector<double> cumulative = pca.cumulative_variance_ratio();

  std::vector<std::pair<std::string, double>> series;
  for (std::size_t i = 0; i < cumulative.size(); ++i) {
    char label[21];  // room for any size_t: 20 digits and the NUL
    std::snprintf(label, sizeof(label), "%2zu", i + 1);
    series.emplace_back(label, 100.0 * cumulative[i]);
  }
  std::fputs(util::ascii_chart(series).c_str(), stdout);

  std::printf("\ncumulative variance at 7 components: %.2f%% (paper: >98.5%%)\n",
              100.0 * cumulative[6]);
  return 0;
}
