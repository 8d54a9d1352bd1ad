// Clustering quality metrics.
//
// The paper's central accuracy notion (Appendix-4, Formula 1) is the
// majority-cluster metric for semi-supervised evaluation: each distinct
// label (user-agent) is assigned the cluster that holds the majority of
// its rows, and a row is "correct" when it sits in its label's majority
// cluster.  Model accuracy is the fraction of correct rows.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

namespace bp::ml {

// Majority cluster per label, given per-row (label, cluster) pairs.
// Labels are arbitrary integer keys (we use ua::UserAgent::key()).
std::map<std::uint32_t, std::size_t> majority_clusters(
    const std::vector<std::uint32_t>& labels,
    const std::vector<std::size_t>& clusters);

struct ClusterAccuracy {
  double row_accuracy = 0.0;    // fraction of rows in their majority cluster
  std::size_t total_rows = 0;
  std::size_t correct_rows = 0;
  std::map<std::uint32_t, std::size_t> majority;  // label -> cluster
};

ClusterAccuracy clustering_accuracy(const std::vector<std::uint32_t>& labels,
                                    const std::vector<std::size_t>& clusters);

}  // namespace bp::ml
