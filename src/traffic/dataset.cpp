#include "traffic/dataset.h"

#include <cassert>
#include <map>

namespace bp::traffic {

ml::Matrix Dataset::feature_matrix(
    const std::vector<std::size_t>& wanted) const {
  // Map candidate index -> stored position.
  std::map<std::size_t, std::size_t> position;
  for (std::size_t i = 0; i < stored_indices_.size(); ++i) {
    position[stored_indices_[i]] = i;
  }
  std::vector<std::size_t> cols;
  cols.reserve(wanted.size());
  for (std::size_t idx : wanted) {
    const auto it = position.find(idx);
    assert(it != position.end() && "feature not stored in this dataset");
    cols.push_back(it->second);
  }

  ml::Matrix out(records_.size(), cols.size());
  for (std::size_t r = 0; r < records_.size(); ++r) {
    const auto& features = records_[r].features;
    for (std::size_t j = 0; j < cols.size(); ++j) {
      out(r, j) = static_cast<double>(features[cols[j]]);
    }
  }
  return out;
}

ml::Matrix Dataset::feature_matrix() const {
  return feature_matrix(stored_indices_);
}

std::vector<std::uint32_t> Dataset::ua_keys() const {
  std::vector<std::uint32_t> out;
  out.reserve(records_.size());
  for (const auto& r : records_) out.push_back(r.claimed.key());
  return out;
}

Dataset Dataset::slice(bp::util::Date from, bp::util::Date to) const {
  Dataset out(stored_indices_);
  for (const auto& r : records_) {
    if (r.date >= from && r.date <= to) out.add(r);
  }
  return out;
}

}  // namespace bp::traffic
