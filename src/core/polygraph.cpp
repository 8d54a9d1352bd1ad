#include "core/polygraph.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <limits>
#include <optional>

#include "browser/engine_timelines.h"
#include "browser/release_db.h"
#include "obs/metrics_registry.h"
#include "obs/prof/prof.h"
#include "util/parallel.h"

namespace bp::core {

namespace {

// dense_expected_'s entry for a UA the table does not hold.
constexpr std::uint32_t kNotInTable = std::numeric_limits<std::uint32_t>::max();
// table_row's answer for a UA the dense tables do not cover.
constexpr std::size_t kNoRow = std::numeric_limits<std::size_t>::max();

}  // namespace

PolygraphConfig PolygraphConfig::production() {
  PolygraphConfig config;
  config.feature_indices =
      browser::FeatureCatalog::instance().final_indices();
  return config;
}

void ClusterTable::assign(const ua::UserAgent& ua, std::size_t cluster) {
  const std::uint32_t key = ua.key();
  const auto it = ua_to_cluster_.find(key);
  if (it != ua_to_cluster_.end()) {
    if (it->second == cluster) return;
    // Re-assignment: swap-remove from the old cluster's list via the
    // per-UA position index.  (A remove_if scan here made bulk table
    // rebuilds — every retrain reassigns most UAs — quadratic.)
    auto& old_list = cluster_to_uas_[it->second];
    const std::size_t pos = position_in_cluster_.at(key);
    old_list[pos] = old_list.back();
    old_list.pop_back();
    if (pos < old_list.size()) {
      position_in_cluster_[old_list[pos].key()] = pos;
    }
    it->second = cluster;
  } else {
    ua_to_cluster_.emplace(key, cluster);
  }
  auto& list = cluster_to_uas_[cluster];
  position_in_cluster_[key] = list.size();
  list.push_back(ua);
}

std::optional<std::size_t> ClusterTable::expected_cluster(
    const ua::UserAgent& ua) const {
  const auto it = ua_to_cluster_.find(ua.key());
  if (it == ua_to_cluster_.end()) return std::nullopt;
  return it->second;
}

const std::vector<ua::UserAgent>& ClusterTable::user_agents_in(
    std::size_t cluster) const {
  const auto it = cluster_to_uas_.find(cluster);
  return it != cluster_to_uas_.end() ? it->second : empty_;
}

std::vector<std::size_t> ClusterTable::populated_clusters() const {
  std::vector<std::size_t> out;
  for (const auto& [cluster, uas] : cluster_to_uas_) {
    if (!uas.empty()) out.push_back(cluster);
  }
  return out;
}

Polygraph::Polygraph(PolygraphConfig config) : config_(std::move(config)) {
  if (config_.feature_indices.empty()) {
    config_.feature_indices =
        browser::FeatureCatalog::instance().final_indices();
  }
}

TrainingSummary Polygraph::train(const ml::Matrix& features,
                                 const std::vector<ua::UserAgent>& user_agents,
                                 const obs::ObsContext* obs) {
  assert(features.rows() == user_agents.size());
  assert(features.cols() == config_.feature_indices.size());
  TrainingSummary summary;
  summary.rows_total = features.rows();

  using Clock = std::chrono::steady_clock;
  const auto stage_start = Clock::now();
  auto lap = [last = stage_start]() mutable {
    const auto now = Clock::now();
    const double seconds = std::chrono::duration<double>(now - last).count();
    last = now;
    return seconds;
  };

  // Optional tracing: one span per stage under the caller's trace id.
  // Span ids are fixed (root 1, stages 2..6) so retrain traces render
  // deterministically; see obs/trace.h.
  obs::TraceSink* trace = obs != nullptr ? obs->trace : nullptr;
  const std::uint64_t trace_id = obs != nullptr ? obs->trace_id : 0;
  const std::int64_t train_begin_us = obs::steady_now_us();
  std::int64_t stage_begin_us = train_begin_us;
  auto emit_span = [&](const char* name, std::uint32_t span_id) {
    const std::int64_t now_us = obs::steady_now_us();
    if (trace != nullptr) {
      trace->record({trace_id, span_id, /*parent_id=*/1, name,
                     stage_begin_us, now_us});
    }
    stage_begin_us = now_us;
  };

  // Profiler attribution: the active stage is marked by re-emplacing one
  // tag scope (destroy pops the old tag, construct pushes the new one),
  // so samples landing in this thread carry train.<stage>.
  PROF_SCOPE("train");
  std::optional<obs::prof::TagScope> stage_scope;
  stage_scope.emplace("train.scale");

  // 1. Scale.  Deviation-based columns are standardized; time-based
  //    presence bits pass through (§6.4.1).
  const auto& catalog = browser::FeatureCatalog::instance();
  std::vector<bool> scale_column;
  scale_column.reserve(config_.feature_indices.size());
  for (std::size_t idx : config_.feature_indices) {
    scale_column.push_back(catalog.spec(idx).kind ==
                           browser::FeatureKind::kDeviationBased);
  }
  scaler_.fit(features, scale_column);
  const ml::Matrix scaled = scaler_.transform(features);
  summary.timings.scale = lap();
  emit_span("scale", 2);
  stage_scope.emplace("train.filter");

  // 2. Outlier filtering (§6.4.1).
  ml::IsolationForestConfig forest_config;
  forest_config.seed = config_.seed ^ 0xF0E1D2C3ULL;
  ml::IsolationForest forest(forest_config);
  forest.fit(scaled);
  const std::vector<bool> keep =
      forest.inlier_mask(scaled, config_.contamination);
  const ml::Matrix filtered = scaled.filter_rows(keep);
  summary.rows_outliers_removed = scaled.rows() - filtered.rows();

  std::vector<ua::UserAgent> kept_uas;
  kept_uas.reserve(filtered.rows());
  for (std::size_t i = 0; i < user_agents.size(); ++i) {
    if (keep[i]) kept_uas.push_back(user_agents[i]);
  }
  summary.timings.filter = lap();
  emit_span("filter", 3);
  stage_scope.emplace("train.pca");

  // 3. PCA (§6.4.2).
  const ml::Matrix projected =
      pca_.fit_transform(filtered, config_.pca_components);
  summary.timings.pca = lap();
  emit_span("pca", 4);
  stage_scope.emplace("train.kmeans");

  // 4. k-means (§6.4.3).
  ml::KMeansConfig kconfig;
  kconfig.k = config_.k;
  kconfig.seed = config_.seed;
  kconfig.n_init = config_.kmeans_restarts;
  kmeans_ = ml::KMeans(kconfig);
  kmeans_.fit(projected);
  summary.wcss = kmeans_.inertia();
  summary.timings.kmeans = lap();
  emit_span("kmeans", 5);
  stage_scope.emplace("train.table");

  // 5. Majority-cluster table + training accuracy (Appendix-4 Formula 1).
  std::vector<std::uint32_t> keys;
  keys.reserve(kept_uas.size());
  for (const auto& ua : kept_uas) keys.push_back(ua.key());
  const ml::ClusterAccuracy accuracy =
      ml::clustering_accuracy(keys, kmeans_.labels());
  summary.clustering_accuracy = accuracy.row_accuracy;

  table_ = ClusterTable();
  dense_expected_.clear();  // rebuilt once the table below is final
  dense_risk_.clear();
  std::map<std::uint32_t, std::size_t> label_rows;
  for (std::uint32_t key : keys) ++label_rows[key];
  std::map<std::uint32_t, ua::UserAgent> key_to_ua;
  for (const auto& ua : kept_uas) key_to_ua.emplace(ua.key(), ua);

  for (const auto& [key, cluster] : accuracy.majority) {
    table_.assign(key_to_ua.at(key), cluster);
  }

  // 6. Rare-label re-alignment (§6.4.3): user-agents with too few rows
  //    get their cluster from the legitimate baseline fingerprint of the
  //    candidate-generation stage rather than from noisy live data.
  if (config_.align_rare_labels) {
    const auto& db = browser::ReleaseDatabase::instance();
    for (const auto& [key, cluster] : accuracy.majority) {
      if (label_rows[key] >= config_.rare_label_min_rows) continue;
      const ua::UserAgent ua = key_to_ua.at(key);
      const auto* release = db.find(ua);
      if (release == nullptr) continue;
      const std::vector<double> baseline = baseline_features(*release);
      const std::size_t aligned = predict_cluster(baseline);
      if (aligned != cluster) {
        table_.assign(ua, aligned);
        ++summary.labels_realigned;
      }
    }
  }
  build_verdict_tables();
  summary.timings.table = lap();
  emit_span("table", 6);
  stage_scope.reset();
  summary.timings.total =
      std::chrono::duration<double>(Clock::now() - stage_start).count();

  if (trace != nullptr) {
    trace->record({trace_id, /*span_id=*/1, /*parent_id=*/0, "train",
                   train_begin_us, stage_begin_us});
  }
  if (obs != nullptr && obs->registry != nullptr) {
    obs::MetricsRegistry& r = *obs->registry;
    r.counter("bp_training_runs_total", "training pipeline runs").increment();
    r.counter("bp_training_rows_total", "training rows consumed")
        .add(summary.rows_total);
    r.counter("bp_training_outliers_removed_total",
              "rows discarded by the isolation-forest filter")
        .add(summary.rows_outliers_removed);
    r.counter("bp_training_labels_realigned_total",
              "rare-UA labels re-aligned to baseline fingerprints")
        .add(summary.labels_realigned);
    r.gauge("bp_training_last_accuracy",
            "clustering accuracy of the last training run")
        .set(summary.clustering_accuracy);
    r.gauge("bp_training_last_wcss", "k-means inertia of the last run")
        .set(summary.wcss);
    r.gauge("bp_training_scale_seconds", "scaler fit+transform, last run")
        .set(summary.timings.scale);
    r.gauge("bp_training_filter_seconds", "outlier filter, last run")
        .set(summary.timings.filter);
    r.gauge("bp_training_pca_seconds", "PCA, last run")
        .set(summary.timings.pca);
    r.gauge("bp_training_kmeans_seconds", "k-means restarts, last run")
        .set(summary.timings.kmeans);
    r.gauge("bp_training_table_seconds", "cluster table, last run")
        .set(summary.timings.table);
    r.gauge("bp_training_total_seconds", "whole pipeline, last run")
        .set(summary.timings.total);
  }
  return summary;
}

std::size_t Polygraph::predict_cluster(std::span<const double> features) const {
  BatchScratch scratch;
  return predict_cluster(features, scratch);
}

std::size_t Polygraph::predict_cluster(std::span<const double> features,
                                       BatchScratch& scratch) const {
  return predict_cluster(features, scratch, nullptr);
}

std::size_t Polygraph::predict_cluster(std::span<const double> features,
                                       BatchScratch& scratch,
                                       double* distance2) const {
  assert(features.size() == config_.feature_indices.size());
  const double* const row = features.data();
  nearest_block<1>(&row, 1, scratch);
  if (distance2 != nullptr) *distance2 = scratch.best_d2_[0];
  return scratch.best_cluster_[0];
}

std::vector<std::size_t> Polygraph::predict_clusters(
    const ml::Matrix& features) const {
  assert(features.cols() == config_.feature_indices.size());
  std::vector<std::size_t> out(features.rows());
  // Chunks of whole blocks on the pool, each with its own scratch; a
  // row's answer does not depend on its block, so neither does out.
  constexpr std::size_t kGrain = 16 * kScoreBatchBlock;
  util::parallel_for(0, out.size(), kGrain, [&](std::size_t begin,
                                                std::size_t end) {
    BatchScratch scratch;
    for (std::size_t base = begin; base < end; base += kScoreBatchBlock) {
      const std::size_t n = std::min(kScoreBatchBlock, end - base);
      const double* row_ptr[kScoreBatchBlock];
      for (std::size_t r = 0; r < n; ++r) {
        row_ptr[r] = features.row(base + r).data();
      }
      nearest_block<0>(row_ptr, n, scratch);
      std::copy_n(scratch.best_cluster_.begin(), n, out.begin() + base);
    }
  });
  return out;
}

int Polygraph::algorithm1(const ua::UserAgent& session_ua,
                          std::size_t predicted_cluster) const {
  return algorithm1(session_ua, table_.user_agents_in(predicted_cluster));
}

int Polygraph::algorithm1(const ua::UserAgent& session_ua,
                          std::span<const ua::UserAgent> cluster_uas) const {
  // An empty (noise) cluster leaves the minimum at its initial value; we
  // cap it at the vendor distance — no known-good UA resembles the
  // session at all.
  int risk = std::numeric_limits<int>::max();
  for (const ua::UserAgent& ua : cluster_uas) {
    int distance = 0;
    if (!ua::same_vendor(session_ua.vendor, ua.vendor)) {
      distance = config_.vendor_distance;
    } else {
      // In 64 bits: a hostile claimed major may sit anywhere in int.
      const std::int64_t diff = std::abs(
          std::int64_t{session_ua.major_version} - ua.major_version);
      distance = static_cast<int>(std::min<std::int64_t>(
          diff / config_.version_divisor, std::numeric_limits<int>::max()));
    }
    risk = std::min(risk, distance);
  }
  return risk == std::numeric_limits<int>::max() ? config_.vendor_distance
                                                 : risk;
}

std::size_t Polygraph::table_row(const ua::UserAgent& ua) const noexcept {
  const auto vendor = static_cast<std::size_t>(ua.vendor);
  if (dense_expected_.empty() || vendor >= kTableVendors ||
      ua.major_version < 0 ||
      static_cast<std::size_t>(ua.major_version) >= kTableMajors) {
    return kNoRow;
  }
  return vendor * kTableMajors + static_cast<std::size_t>(ua.major_version);
}

void Polygraph::build_verdict_tables() {
  const std::size_t width = kmeans_.centroids().rows();
  // train() assigns ids below k and model_io rejects any other, so every
  // id fits the uint32 table below kNotInTable.
  for ([[maybe_unused]] const auto& entry : table_.entries()) {
    assert(entry.second < width);
  }
  dense_expected_.clear();
  dense_risk_.clear();
  std::vector<std::span<const ua::UserAgent>> cluster_uas;
  for (std::size_t c = 0; c < width; ++c) {
    cluster_uas.push_back(table_.user_agents_in(c));
  }
  dense_expected_.resize(kTableVendors * kTableMajors);
  dense_risk_.resize(kTableVendors * kTableMajors * width);
  for (std::size_t v = 0; v < kTableVendors; ++v) {
    for (std::size_t major = 0; major < kTableMajors; ++major) {
      const ua::UserAgent ua{static_cast<ua::Vendor>(v),
                             static_cast<int>(major)};
      const std::size_t row = v * kTableMajors + major;
      const auto expected = table_.expected_cluster(ua);
      dense_expected_[row] =
          expected ? static_cast<std::uint32_t>(*expected) : kNotInTable;
      for (std::size_t c = 0; c < width; ++c) {
        dense_risk_[row * width + c] = algorithm1(ua, cluster_uas[c]);
      }
    }
  }
}

std::optional<std::size_t> Polygraph::expected_cluster(
    const ua::UserAgent& ua) const {
  const std::size_t row = table_row(ua);
  if (row == kNoRow) return table_.expected_cluster(ua);
  const std::uint32_t expected = dense_expected_[row];
  if (expected == kNotInTable) return std::nullopt;
  return expected;
}

int Polygraph::risk_factor(const ua::UserAgent& session_ua,
                           std::size_t predicted_cluster) const {
  const std::size_t row = table_row(session_ua);
  const std::size_t width = kmeans_.centroids().rows();
  if (row == kNoRow || predicted_cluster >= width) {
    return algorithm1(session_ua, predicted_cluster);
  }
  return dense_risk_[row * width + predicted_cluster];
}

Detection Polygraph::score(std::span<const double> features,
                           const ua::UserAgent& claimed) const {
  BatchScratch scratch;
  return score(features, claimed, scratch);
}

Detection Polygraph::score(std::span<const std::int32_t> features,
                           const ua::UserAgent& claimed,
                           BatchScratch& scratch) const {
  Detection detection;
  score_batch_impl<1, std::int32_t>({&features, 1}, {&claimed, 1},
                                    {&detection, 1}, scratch);
  return detection;
}

Detection Polygraph::score(std::span<const double> features,
                           const ua::UserAgent& claimed,
                           BatchScratch& scratch) const {
  Detection detection;
  score_batch_impl<1, double>({&features, 1}, {&claimed, 1},
                              {&detection, 1}, scratch);
  return detection;
}

template <std::size_t kRows, typename T>
void Polygraph::nearest_block(const T* const* row_ptr, std::size_t rows,
                              BatchScratch& scratch) const {
  assert(trained());
  static_assert(kRows <= 1);
  // The buffers are sized for whole blocks whatever the lane stride, so a
  // scratch shared by both forms is never resized between them.
  constexpr std::size_t kStride = kRows != 0 ? kRows : kScoreBatchBlock;
  const std::size_t n = kRows != 0 ? kRows : rows;
  assert(n >= 1 && n <= kStride && (kRows == 0 || rows == kRows));
  const std::size_t n_features = config_.feature_indices.size();
  const std::size_t n_components = pca_.n_components();
  const std::size_t n_centroids = kmeans_.centroids().rows();
  const double* const means = scaler_.means().data();
  const double* const stddevs = scaler_.stddevs().data();
  const double* const pca_mean = pca_.mean().data();
  const ml::Matrix& components = pca_.components();  // n_features x p
  const ml::Matrix& centroids = kmeans_.centroids();  // k x p

  scratch.panel_.resize(n_features * kScoreBatchBlock);
  scratch.centered_.resize(kScoreBatchBlock);
  scratch.projected_.resize(n_components * kScoreBatchBlock);
  scratch.distance_.resize(kScoreBatchBlock);
  scratch.best_d2_.resize(kScoreBatchBlock);
  scratch.best_cluster_.resize(kScoreBatchBlock);
  double* const panel = scratch.panel_.data();
  double* const centered = scratch.centered_.data();
  double* const projected = scratch.projected_.data();
  double* const distance = scratch.distance_.data();
  double* const best_d2 = scratch.best_d2_.data();
  std::uint32_t* const best_cluster = scratch.best_cluster_.data();

  // Gather + scale: transpose the block into feature-major lanes,
  // fusing the StandardScaler (same expression as transform_row, so
  // identical rounding).
  for (std::size_t c = 0; c < n_features; ++c) {
    const double mean = means[c];
    const double stddev = stddevs[c];
    double* const lane = panel + c * kStride;
    for (std::size_t r = 0; r < n; ++r) {
      lane[r] = (static_cast<double>(row_ptr[r][c]) - mean) / stddev;
    }
  }

  // PCA: accumulate components in feature order — per row this is
  // Pca::transform_row's exact reduction order.  (transform_row skips
  // exactly-zero centered values; adding their +/-0.0 contribution here
  // can only change the sign of a zero accumulator, which the squaring
  // below erases.)  Only the n live rows of each lane are zeroed.
  for (std::size_t j = 0; j < n_components; ++j) {
    std::fill_n(projected + j * kStride, n, 0.0);
  }
  for (std::size_t c = 0; c < n_features; ++c) {
    const double center = pca_mean[c];
    const double* const lane = panel + c * kStride;
    for (std::size_t r = 0; r < n; ++r) {
      centered[r] = lane[r] - center;
    }
    const auto weights = components.row(c);  // n_components entries
    for (std::size_t j = 0; j < n_components; ++j) {
      const double weight = weights[j];
      double* const proj = projected + j * kStride;
      for (std::size_t r = 0; r < n; ++r) {
        proj[r] += centered[r] * weight;
      }
    }
  }

  // Nearest centroid: full distance per centroid, strict < argmin —
  // the same winner and the same fully-accumulated winning distance
  // as squared_distance_bounded with early exit (a truncated sum is
  // already over the bound, so it can never win; ties keep the lower
  // centroid index in both paths).
  for (std::size_t r = 0; r < n; ++r) {
    best_d2[r] = std::numeric_limits<double>::max();
    best_cluster[r] = 0;
  }
  for (std::size_t c = 0; c < n_centroids; ++c) {
    const auto centroid = centroids.row(c);
    std::fill_n(distance, n, 0.0);
    for (std::size_t j = 0; j < n_components; ++j) {
      const double coord = centroid[j];
      const double* const proj = projected + j * kStride;
      for (std::size_t r = 0; r < n; ++r) {
        const double diff = proj[r] - coord;
        distance[r] += diff * diff;
      }
    }
    for (std::size_t r = 0; r < n; ++r) {
      if (distance[r] < best_d2[r]) {
        best_d2[r] = distance[r];
        best_cluster[r] = static_cast<std::uint32_t>(c);
      }
    }
  }
}

template <std::size_t kRows, typename T>
void Polygraph::score_batch_impl(std::span<const std::span<const T>> rows,
                                 std::span<const ua::UserAgent> claims,
                                 std::span<Detection> out,
                                 BatchScratch& scratch) const {
  assert(claims.size() == rows.size() && out.size() == rows.size());
  assert(kRows == 0 || rows.size() == kRows);
  constexpr std::size_t kBlock = kRows != 0 ? kRows : kScoreBatchBlock;
  for (std::size_t base = 0; base < rows.size(); base += kBlock) {
    const std::size_t n = std::min(kBlock, rows.size() - base);
    const T* row_ptr[kBlock];
    for (std::size_t r = 0; r < n; ++r) {
      assert(rows[base + r].size() == config_.feature_indices.size());
      row_ptr[r] = rows[base + r].data();
    }
    nearest_block<kRows>(row_ptr, n, scratch);

    // Verdict tail: the dense tables, Algorithm 1's answer.
    for (std::size_t r = 0; r < n; ++r) {
      Detection detection;
      detection.predicted_cluster = scratch.best_cluster_[r];
      detection.centroid_distance2 = scratch.best_d2_[r];
      detection.expected_cluster = expected_cluster(claims[base + r]);
      if (detection.expected_cluster.has_value() &&
          *detection.expected_cluster != detection.predicted_cluster) {
        detection.flagged = true;
        detection.risk_factor =
            risk_factor(claims[base + r], detection.predicted_cluster);
      }
      out[base + r] = detection;
    }
  }
}

void Polygraph::score_batch(std::span<const std::span<const std::int32_t>> rows,
                            std::span<const ua::UserAgent> claims,
                            std::span<Detection> out,
                            BatchScratch& scratch) const {
  score_batch_impl<0>(rows, claims, out, scratch);
}

void Polygraph::score_batch(std::span<const std::span<const double>> rows,
                            std::span<const ua::UserAgent> claims,
                            std::span<Detection> out,
                            BatchScratch& scratch) const {
  score_batch_impl<0>(rows, claims, out, scratch);
}

Polygraph Polygraph::from_parts(PolygraphConfig config,
                                ml::StandardScaler scaler, ml::Pca pca,
                                ml::KMeans kmeans, ClusterTable table) {
  Polygraph model(std::move(config));
  model.scaler_ = std::move(scaler);
  model.pca_ = std::move(pca);
  model.kmeans_ = std::move(kmeans);
  model.table_ = std::move(table);
  model.build_verdict_tables();
  return model;
}

std::vector<double> Polygraph::baseline_features(
    const browser::BrowserRelease& release) const {
  const auto& baseline =
      browser::baseline_candidates(release.engine, release.engine_version);
  std::vector<double> out;
  out.reserve(config_.feature_indices.size());
  for (std::size_t idx : config_.feature_indices) {
    out.push_back(static_cast<double>(baseline[idx]));
  }
  return out;
}

}  // namespace bp::core
