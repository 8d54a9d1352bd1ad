// Browser Polygraph — the paper's primary contribution.
//
// A semi-supervised pipeline that verifies whether a session's claimed
// user-agent is consistent with its coarse-grained fingerprint:
//
//   StandardScaler (deviation features only, §6.4.1)
//     -> IsolationForest outlier filter (§6.4.1)
//     -> PCA to 7 components (§6.4.2)
//     -> k-means, k = 11 (§6.4.3)
//     -> cluster <-> user-agent table (Table 3)
//     -> Algorithm 1 risk factor on cluster mismatch (§6.5)
//
// Training is offline; detection is a scale + project + nearest-centroid
// lookup, cheap enough for the 100 ms / per-request budget of §3.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "browser/extractor.h"
#include "obs/trace.h"
#include "ml/isolation_forest.h"
#include "ml/kmeans.h"
#include "ml/metrics.h"
#include "ml/pca.h"
#include "ml/scaler.h"
#include "ua/user_agent.h"

namespace bp::core {

struct PolygraphConfig {
  // Candidate-catalog indices of the model's features; defaults to the
  // production 28 of Table 8.
  std::vector<std::size_t> feature_indices;
  std::size_t pca_components = 7;
  std::size_t k = 11;
  // Fraction of training rows discarded as outliers.  The paper reports
  // the filter removing 172 of 205k rows (§6.4.1).
  double contamination = 0.00084;
  std::uint64_t seed = 42;
  int kmeans_restarts = 4;
  // Labels with fewer training rows than this are re-aligned against the
  // legitimate baseline fingerprints from the candidate-generation stage
  // (§6.4.3's manual adjustment for Chrome 81 / Edge 17-class UAs).
  std::size_t rare_label_min_rows = 100;
  bool align_rare_labels = true;

  // Algorithm 1 parameters: vendor mismatch distance and the version
  // difference divisor ("empirically selected referring to Table 3").
  int vendor_distance = 20;
  int version_divisor = 4;

  static PolygraphConfig production();
};

// The UA <-> cluster association derived from training (Table 3).
class ClusterTable {
 public:
  void assign(const ua::UserAgent& ua, std::size_t cluster);

  // Expected cluster of a claimed UA; nullopt for UAs absent from
  // training (e.g. brand-new releases — the drift module's territory).
  std::optional<std::size_t> expected_cluster(const ua::UserAgent& ua) const;

  // All user-agents whose majority sits in `cluster` (Algorithm 1's
  // userAgentTable[predictedCluster]).
  const std::vector<ua::UserAgent>& user_agents_in(std::size_t cluster) const;

  // Every cluster id that holds at least one UA majority.
  std::vector<std::size_t> populated_clusters() const;

  std::size_t size() const noexcept { return ua_to_cluster_.size(); }
  const std::map<std::uint32_t, std::size_t>& entries() const noexcept {
    return ua_to_cluster_;
  }

 private:
  std::map<std::uint32_t, std::size_t> ua_to_cluster_;
  std::map<std::size_t, std::vector<ua::UserAgent>> cluster_to_uas_;
  // Position of each UA inside its cluster's list, so a re-assignment is
  // a swap-remove instead of a remove_if scan (bulk table rebuilds used
  // to be quadratic in the number of UAs).
  std::map<std::uint32_t, std::size_t> position_in_cluster_;
  std::vector<ua::UserAgent> empty_;
};

// Outcome of scoring one session.  Besides the verdict it carries the
// Algorithm-1 *evidence* (all fixed-size fields — the scoring path
// stays allocation-free) so the audit trail can reconstruct any flag
// offline: predicted vs expected cluster, the distance to the winning
// centroid, and the risk factor.
struct Detection {
  std::size_t predicted_cluster = 0;
  std::optional<std::size_t> expected_cluster;  // nullopt: UA not in table
  bool flagged = false;  // cluster mismatch => suspicious session
  // Algorithm 1's output; 0 when not flagged.  A predicted cluster with
  // no known UA (a noise cluster) yields the maximum (vendor) distance.
  int risk_factor = 0;
  // Squared distance (in PCA space) between the session's projection
  // and the predicted centroid — how deep inside its cluster the
  // fingerprint sits.
  double centroid_distance2 = 0.0;
};

// Wall-clock seconds per training stage; perfbench reports them per run
// to show where a retrain's latency goes.
struct TrainingTimings {
  double scale = 0.0;   // scaler fit + transform
  double filter = 0.0;  // isolation-forest fit + inlier mask + row filter
  double pca = 0.0;     // covariance + eigenbasis + projection
  double kmeans = 0.0;  // all k-means++ restarts
  double table = 0.0;   // majority table + rare-label realignment
  double total = 0.0;
};

struct TrainingSummary {
  std::size_t rows_total = 0;
  std::size_t rows_outliers_removed = 0;
  double clustering_accuracy = 0.0;  // Appendix-4 Formula 1 on training data
  std::size_t labels_realigned = 0;  // rare-UA adjustments applied
  double wcss = 0.0;                 // final k-means inertia
  TrainingTimings timings;
};

// Reusable structure-of-arrays buffers for the scoring kernel behind
// every scoring entry point (`Polygraph::score_batch`, `score`,
// `predict_cluster`).  One instance per thread (the serving tier keeps
// one per worker); capacity sticks after the first block, so
// steady-state scoring never touches the allocator.
//
// Layout (B = Polygraph::kScoreBatchBlock rows per block):
//   panel_      d x B, feature-major — panel_[c*B + r] is feature c of
//               row r, already scaled; the gather+scale pass writes a
//               contiguous lane per feature so every later loop strides
//               unit over rows.
//   centered_   B — one feature lane minus the PCA mean.
//   projected_  p x B, component-major PCA output.
//   distance_   B — squared-distance accumulator for one centroid.
//   best_d2_/best_cluster_  B — running argmin over centroids.
class BatchScratch {
 public:
  BatchScratch() = default;

 private:
  friend class Polygraph;
  std::vector<double> panel_;
  std::vector<double> centered_;
  std::vector<double> projected_;
  std::vector<double> distance_;
  std::vector<double> best_d2_;
  std::vector<std::uint32_t> best_cluster_;
};

// score() is a batch of one through the same kernel, so it takes the
// same scratch.
using ScoringScratch = BatchScratch;

class Polygraph {
 public:
  explicit Polygraph(PolygraphConfig config = PolygraphConfig::production());

  // Train on feature rows (columns in config.feature_indices order) and
  // the per-row claimed user-agents.  When `obs` is supplied, each
  // training stage is reported into its registry (per-stage seconds,
  // row/outlier counters) and traced as a span under obs->trace_id
  // (span ids: 1 = train root, 2..6 = scale/filter/pca/kmeans/table).
  TrainingSummary train(const ml::Matrix& features,
                        const std::vector<ua::UserAgent>& user_agents,
                        const obs::ObsContext* obs = nullptr);

  bool trained() const noexcept { return kmeans_.fitted(); }

  // Nearest-centroid cluster of a raw (unscaled) feature vector.
  std::size_t predict_cluster(std::span<const double> features) const;
  std::vector<std::size_t> predict_clusters(const ml::Matrix& features) const;

  // Full fraud-detection scoring (§6.5).
  Detection score(std::span<const double> features,
                  const ua::UserAgent& claimed) const;

  // Allocation-free variants for the serving hot path.  All scoring
  // entry points are const and touch only state frozen at train / load
  // time, so one model may be scored from many threads concurrently;
  // the scratch is the only mutable state and must not be shared
  // between threads.
  std::size_t predict_cluster(std::span<const double> features,
                              BatchScratch& scratch) const;
  // As above, also reporting the squared distance to the winning
  // centroid (Detection::centroid_distance2); `distance2` may be null.
  std::size_t predict_cluster(std::span<const double> features,
                              BatchScratch& scratch,
                              double* distance2) const;
  Detection score(std::span<const double> features,
                  const ua::UserAgent& claimed, BatchScratch& scratch) const;
  // Scores a session's native integer feature storage directly
  // (traffic::SessionRecord::features) without an intermediate
  // std::vector<double> per call.
  Detection score(std::span<const std::int32_t> features,
                  const ua::UserAgent& claimed, BatchScratch& scratch) const;

  // Fused structure-of-arrays batch scoring — the one scoring kernel;
  // score() and predict_cluster() are batches of one through it.
  // Processes `rows` in blocks of kScoreBatchBlock sessions: one
  // gather+scale pass builds a feature-major panel, PCA projection and
  // all centroid distances then run as contiguous unit-stride loops over
  // the row lanes (auto-vectorizable, no per-row calls), and the verdict
  // tail reads the dense Algorithm-1 tables built at train / load time.
  //
  // Equivalence guarantee: for every row i, out[i] is bit-identical to
  // the row-at-a-time pipeline StandardScaler::transform_row ->
  // Pca::transform_row -> KMeans::predict_one -> ClusterTable lookup ->
  // Algorithm 1 — same predicted/expected cluster, flag, risk factor,
  // and centroid_distance2 down to the last mantissa bit, whatever the
  // row's position in its block.  This holds because every
  // floating-point reduction (PCA accumulation in feature order,
  // distance accumulation in component order) runs in that pipeline's
  // exact order per row — vectorization only runs independent *rows*
  // side by side — and the two places its control flow diverges cannot
  // leak into a Detection: Pca::transform_row's skip of exactly-zero
  // centered values can only flip the sign of a zero accumulator
  // (squaring erases it), and predict_one's early exit never truncates
  // the winning distance.  Tests lock this in (core_batch_score_test,
  // VerdictTables).
  //
  // `rows`/`claims`/`out` must have equal length; every row must have
  // feature_indices.size() entries.  Thread-safety matches score():
  // const model, per-thread scratch.
  static constexpr std::size_t kScoreBatchBlock = 64;
  void score_batch(std::span<const std::span<const std::int32_t>> rows,
                   std::span<const ua::UserAgent> claims,
                   std::span<Detection> out, BatchScratch& scratch) const;
  void score_batch(std::span<const std::span<const double>> rows,
                   std::span<const ua::UserAgent> claims,
                   std::span<Detection> out, BatchScratch& scratch) const;

  // Algorithm 1: smallest UA distance within a cluster.  A lookup in
  // the dense table for vendors and majors it covers; the per-cluster
  // loop itself otherwise.
  int risk_factor(const ua::UserAgent& session_ua,
                  std::size_t predicted_cluster) const;

  // The dense tables cover every vendor and the majors [0, kTableMajors).
  static constexpr std::size_t kTableVendors =
      static_cast<std::size_t>(ua::Vendor::kUnknown) + 1;
  static constexpr std::size_t kTableMajors = 256;

  const ClusterTable& cluster_table() const noexcept { return table_; }
  const PolygraphConfig& config() const noexcept { return config_; }
  const ml::Pca& pca() const noexcept { return pca_; }
  const ml::StandardScaler& scaler() const noexcept { return scaler_; }
  const ml::KMeans& kmeans() const noexcept { return kmeans_; }

  // The legitimate-baseline fingerprint of a release under this model's
  // feature set (used for rare-label alignment and by tests).
  std::vector<double> baseline_features(
      const browser::BrowserRelease& release) const;

  // Reassemble a trained model from persisted parts (model_io).
  static Polygraph from_parts(PolygraphConfig config, ml::StandardScaler scaler,
                              ml::Pca pca, ml::KMeans kmeans,
                              ClusterTable table);

 private:
  // The kernel: scale, project and find the nearest centroid of rows
  // row_ptr[0..n), 1 <= n <= kScoreBatchBlock, into scratch.best_cluster_
  // and scratch.best_d2_.  T is the raw feature element type (int32
  // widens exactly to double).  kRows = 0 takes n rows at the block
  // stride; kRows = 1 compiles the same source for a lone row, whose
  // lanes are then single values the compiler keeps unrolled (a
  // runtime-length loop costs more than its one iteration: ~0.3 vs
  // ~0.9 us a row).  Both forms give the same bits.
  //
  // The entry point picks the form, not the input: only the offline
  // callers of score() and predict_cluster() (benchmark fixtures,
  // examples, tests) take kRows = 1.  score_batch, which serves every
  // engine verdict, spans of one included, always takes kRows = 0:
  // the faster form there makes the observability planes' fixed cost
  // per verdict exceed ServeOverhead's 3% bound.  Choosing the form
  // from rows.size() inside score_batch_impl waits until the planes
  // are cheaper (ROADMAP item 2).
  template <std::size_t kRows, typename T>
  void nearest_block(const T* const* row_ptr, std::size_t n,
                     BatchScratch& scratch) const;
  // The kernel over any number of rows plus the verdict tail: behind
  // score_batch (kRows = 0) and, as a batch of one, offline score()
  // (kRows = 1).
  template <std::size_t kRows, typename T>
  void score_batch_impl(std::span<const std::span<const T>> rows,
                        std::span<const ua::UserAgent> claims,
                        std::span<Detection> out, BatchScratch& scratch) const;

  // Algorithm 1's per-cluster loop over table_, the dense tables' source.
  int algorithm1(const ua::UserAgent& session_ua,
                 std::size_t predicted_cluster) const;
  int algorithm1(const ua::UserAgent& session_ua,
                 std::span<const ua::UserAgent> cluster_uas) const;
  // The claimed UA's cluster in table_, read like risk_factor.
  std::optional<std::size_t> expected_cluster(const ua::UserAgent& ua) const;
  // Row of `ua` in the dense tables, or kNoRow when they do not cover it.
  std::size_t table_row(const ua::UserAgent& ua) const noexcept;
  // Fills the dense tables from table_ and the centroid count; run at
  // the end of train() and in from_parts().
  void build_verdict_tables();

  PolygraphConfig config_;
  ml::StandardScaler scaler_;
  ml::Pca pca_;
  ml::KMeans kmeans_;
  ClusterTable table_;
  // [vendor][major]: table_'s expected cluster, kNotInTable when absent.
  std::vector<std::uint32_t> dense_expected_;
  // [vendor][major][cluster], cluster < centroid count: Algorithm 1.
  std::vector<std::int32_t> dense_risk_;
};

}  // namespace bp::core
