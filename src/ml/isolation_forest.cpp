#include "ml/isolation_forest.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

#include "util/parallel.h"

namespace bp::ml {

namespace {

// Row-blocking grain for batch scoring, and the length of a block's
// path-length sums; fixed for thread-count-invariant decomposition
// (per-row scores are independent, so this only bounds dispatch
// overhead).
constexpr std::size_t kScoreGrain = 1024;

}  // namespace

double IsolationForest::average_path_length(std::size_t n) noexcept {
  if (n <= 1) return 0.0;
  if (n == 2) return 1.0;
  const double nd = static_cast<double>(n);
  constexpr double kEulerMascheroni = 0.5772156649015329;
  const double harmonic = std::log(nd - 1.0) + kEulerMascheroni;
  return 2.0 * harmonic - 2.0 * (nd - 1.0) / nd;
}

IsolationForest::Tree IsolationForest::build_tree(
    const Matrix& data, std::vector<std::size_t>& indices,
    bp::util::Rng& rng) const {
  Tree tree;
  const std::size_t d = data.cols();
  const int height_limit = static_cast<int>(
      std::ceil(std::log2(std::max<double>(2.0, static_cast<double>(indices.size())))));

  struct Frame {
    std::size_t begin;
    std::size_t end;
    int depth;
    std::uint32_t node;
  };

  tree.nodes.reserve(2 * indices.size());
  tree.nodes.emplace_back();
  std::vector<Frame> stack{{0, indices.size(), 0, 0}};

  // A leaf's path length is its depth plus c(size) for the points that
  // were not isolated further.
  const auto make_leaf = [&](const Frame& frame, std::size_t count) {
    Node& node = tree.nodes[frame.node];
    node.child[0] = node.child[1] = frame.node;
    node.terminal =
        static_cast<double>(frame.depth) + average_path_length(count);
    tree.height =
        std::max(tree.height, static_cast<std::uint32_t>(frame.depth));
  };

  while (!stack.empty()) {
    const Frame frame = stack.back();
    stack.pop_back();
    const std::size_t count = frame.end - frame.begin;

    if (count <= 1 || frame.depth >= height_limit) {
      make_leaf(frame, count);
      continue;
    }

    // Pick a split feature with spread; try a few features before giving
    // up (constant subsets become leaves).
    bool split = false;
    std::size_t feature = 0;
    double lo = 0.0;
    double hi = 0.0;
    for (std::size_t attempt = 0; attempt < d; ++attempt) {
      feature = static_cast<std::size_t>(rng.below(d));
      lo = hi = data(indices[frame.begin], feature);
      for (std::size_t i = frame.begin + 1; i < frame.end; ++i) {
        const double v = data(indices[i], feature);
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
      if (hi > lo) {
        split = true;
        break;
      }
    }
    if (!split) {
      make_leaf(frame, count);
      continue;
    }

    const double threshold = rng.uniform(lo, hi);
    const auto mid_it = std::partition(
        indices.begin() + static_cast<std::ptrdiff_t>(frame.begin),
        indices.begin() + static_cast<std::ptrdiff_t>(frame.end),
        [&](std::size_t idx) { return data(idx, feature) < threshold; });
    std::size_t mid =
        static_cast<std::size_t>(mid_it - indices.begin());
    // Degenerate partitions can happen when threshold == lo; force a
    // non-empty split to guarantee progress.
    if (mid == frame.begin) ++mid;
    if (mid == frame.end) --mid;

    const auto left = static_cast<std::uint32_t>(tree.nodes.size());
    Node& node = tree.nodes[frame.node];
    node.feature = static_cast<std::uint32_t>(feature);
    node.threshold = threshold;
    node.child[0] = left;
    node.child[1] = left + 1;
    tree.nodes.emplace_back();
    tree.nodes.emplace_back();
    stack.push_back({frame.begin, mid, frame.depth + 1, left});
    stack.push_back({mid, frame.end, frame.depth + 1, left + 1});
  }
  return tree;
}

double IsolationForest::Tree::path_length(
    const double* point) const noexcept {
  const Node* n = nodes.data();
  std::uint32_t at = 0;
  for (std::uint32_t step = 0; step < height; ++step) {
    const Node& node = n[at];
    at = node.child[!(point[node.feature] < node.threshold)];
  }
  return n[at].terminal;
}

void IsolationForest::accumulate(const Tree& tree, const Matrix& data,
                                 std::size_t begin, std::size_t end,
                                 double* sums) {
  // Independent walks interleaved so their loads overlap; each is the
  // same walk as Tree::path_length.  The lane loop is unrolled so the
  // lanes' cursors stay in registers.
  constexpr std::size_t kLanes = 8;
  const Node* n = tree.nodes.data();
  std::size_t i = begin;
  for (; i + kLanes <= end; i += kLanes) {
    const double* x[kLanes];
    std::uint32_t at[kLanes] = {};
    for (std::size_t l = 0; l < kLanes; ++l) x[l] = data.row(i + l).data();
    for (std::uint32_t step = 0; step < tree.height; ++step) {
#pragma GCC unroll 8
      for (std::size_t l = 0; l < kLanes; ++l) {
        const Node& node = n[at[l]];
        at[l] = node.child[!(x[l][node.feature] < node.threshold)];
      }
    }
    for (std::size_t l = 0; l < kLanes; ++l) {
      sums[i - begin + l] += n[at[l]].terminal;
    }
  }
  for (; i < end; ++i) sums[i - begin] += tree.path_length(data.row(i).data());
}

void IsolationForest::fit(const Matrix& data) {
  assert(data.rows() > 0);
  const bp::util::Rng rng(config_.seed);
  const std::size_t sample =
      std::min(config_.max_samples, data.rows());
  c_norm_ = std::max(average_path_length(sample), 1e-9);

  // Trees are embarrassingly parallel: tree t draws from the pre-split
  // stream rng.split(t), which is a pure function of (seed, t), so the
  // forest is identical no matter which thread builds which tree.
  trees_.clear();
  trees_.resize(config_.n_trees);
  bp::util::parallel_for(
      std::size_t{0}, config_.n_trees, 1,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t t = begin; t < end; ++t) {
          bp::util::Rng tree_rng = rng.split(t);
          auto indices = tree_rng.sample_indices(data.rows(), sample);
          trees_[t] = build_tree(data, indices, tree_rng);
        }
      });
}

double IsolationForest::score_one(std::span<const double> point) const {
  assert(fitted());
  double total = 0.0;
  for (const Tree& tree : trees_) total += tree.path_length(point.data());
  const double mean_depth = total / static_cast<double>(trees_.size());
  return std::pow(2.0, -mean_depth / c_norm_);
}

std::vector<double> IsolationForest::score(const Matrix& data) const {
  assert(fitted());
  std::vector<double> out(data.rows());
  // Tree-major within each block: one tree's nodes stay in cache while
  // the block's rows walk it.  Every row still sums trees 0..n-1 in
  // order from 0.0, so each score equals score_one bit for bit.
  bp::util::parallel_for(
      std::size_t{0}, data.rows(), kScoreGrain,
      [&](std::size_t begin, std::size_t end) {
        double sums[kScoreGrain] = {};
        for (const Tree& tree : trees_) {
          accumulate(tree, data, begin, end, sums);
        }
        for (std::size_t i = begin; i < end; ++i) {
          const double mean_depth =
              sums[i - begin] / static_cast<double>(trees_.size());
          out[i] = std::pow(2.0, -mean_depth / c_norm_);
        }
      });
  return out;
}

std::vector<bool> IsolationForest::inlier_mask(const Matrix& data,
                                               double contamination) const {
  const std::vector<double> scores = score(data);
  const std::size_t n = scores.size();
  std::vector<bool> keep(n, true);
  if (contamination <= 0.0 || n == 0) return keep;

  const std::size_t drop = std::min<std::size_t>(
      n, static_cast<std::size_t>(
             std::ceil(contamination * static_cast<double>(n))));
  if (drop == 0) return keep;

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::nth_element(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(drop) - 1,
                   order.end(), [&](std::size_t a, std::size_t b) {
                     return scores[a] > scores[b];
                   });
  for (std::size_t i = 0; i < drop; ++i) keep[order[i]] = false;
  return keep;
}

}  // namespace bp::ml
