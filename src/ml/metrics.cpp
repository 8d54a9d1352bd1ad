#include "ml/metrics.h"

#include <cassert>
#include <cstdint>

namespace bp::ml {

namespace {

// label -> (cluster -> row count)
std::map<std::uint32_t, std::map<std::size_t, std::size_t>> tally(
    const std::vector<std::uint32_t>& labels,
    const std::vector<std::size_t>& clusters) {
  assert(labels.size() == clusters.size());
  std::map<std::uint32_t, std::map<std::size_t, std::size_t>> counts;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    ++counts[labels[i]][clusters[i]];
  }
  return counts;
}

}  // namespace

std::map<std::uint32_t, std::size_t> majority_clusters(
    const std::vector<std::uint32_t>& labels,
    const std::vector<std::size_t>& clusters) {
  std::map<std::uint32_t, std::size_t> majority;
  for (const auto& [label, per_cluster] : tally(labels, clusters)) {
    std::size_t best_cluster = 0;
    std::size_t best_count = 0;
    for (const auto& [cluster, count] : per_cluster) {
      if (count > best_count) {
        best_count = count;
        best_cluster = cluster;
      }
    }
    majority[label] = best_cluster;
  }
  return majority;
}

ClusterAccuracy clustering_accuracy(const std::vector<std::uint32_t>& labels,
                                    const std::vector<std::size_t>& clusters) {
  ClusterAccuracy out;
  out.majority = majority_clusters(labels, clusters);
  out.total_rows = labels.size();
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (clusters[i] == out.majority.at(labels[i])) ++out.correct_rows;
  }
  out.row_accuracy = out.total_rows > 0
                         ? static_cast<double>(out.correct_rows) /
                               static_cast<double>(out.total_rows)
                         : 0.0;
  return out;
}

}  // namespace bp::ml
