// Tests for the observability plane: MetricsRegistry instruments and
// exporters, the rebased ServeMetrics quantile/budget semantics, and
// the drift / retrain-supervisor registry exports.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string_view>
#include <thread>
#include <vector>

#include "core/drift.h"
#include "obs/export.h"
#include "obs/histogram_layout.h"
#include "obs/metrics_registry.h"
#include "serve/retrain_supervisor.h"
#include "serve/serve_metrics.h"
#include "traffic/dataset.h"
#include "util/fault.h"

namespace bp::obs {
namespace {

// ----------------------------- instruments -----------------------------

TEST(ObsMetrics, CounterFoldsAllStripes) {
  MetricsRegistry registry;
  Counter& c = registry.counter("events_total");
  for (std::size_t hint = 0; hint < 2 * Counter::kStripes; ++hint) {
    c.add(1, hint);
  }
  EXPECT_EQ(c.value(), 2 * Counter::kStripes);
}

TEST(ObsMetrics, CounterExactUnderConcurrency) {
  MetricsRegistry registry;
  Counter& c = registry.counter("concurrent_total");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c, t] {
      for (int i = 0; i < kPerThread; ++i) c.increment(t);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(ObsMetrics, GaugeSetAndAdd) {
  MetricsRegistry registry;
  Gauge& g = registry.gauge("depth");
  g.set(3.0);
  EXPECT_DOUBLE_EQ(g.value(), 3.0);
  g.add(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 5.5);
  g.set(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), -1.0);
}

TEST(ObsMetrics, HistogramBucketEdgesAreInclusive) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("latency");
  // A bucket's upper bound is inclusive: upper(b) lands in b and
  // upper(b) + 1 in the next bucket; past 2^24 is the open bucket.
  const std::size_t b = hist::bucket(10);
  EXPECT_EQ(hist::bucket(hist::upper(b)), b);
  EXPECT_EQ(hist::bucket(hist::upper(b) + 1), b + 1);

  h.observe(hist::upper(b));
  h.observe(hist::upper(b) + 1, /*stripe_hint=*/5);
  h.observe(std::uint64_t{1} << 30);
  const Histogram::Counts counts = h.bucket_counts();
  EXPECT_EQ(counts[b], 1u);
  EXPECT_EQ(counts[b + 1], 1u);
  EXPECT_EQ(counts[hist::kBuckets - 1], 1u);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 2 * hist::upper(b) + 1 + (std::uint64_t{1} << 30));
}

TEST(ObsMetrics, FindOrCreateReturnsTheSameInstrument) {
  MetricsRegistry registry;
  Counter& a = registry.counter("shared_total", "first registration");
  Counter& b = registry.counter("shared_total", "ignored duplicate help");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
  EXPECT_EQ(registry.size(), 1u);
}

// ------------------------------ rendering ------------------------------

TEST(ObsMetrics, RenderPrometheusExposition) {
  MetricsRegistry registry;
  registry.counter("bp_events_total", "events seen").add(7);
  registry.gauge("bp_depth", "queue depth").set(4.0);
  Histogram& h = registry.histogram("bp_lat", "latency");
  h.observe(40);
  h.observe(60);
  h.observe(600);

  const std::string text = registry.render_prometheus();
  EXPECT_NE(text.find("# HELP bp_events_total events seen\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE bp_events_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("bp_events_total 7\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE bp_depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("bp_depth 4\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE bp_lat histogram\n"), std::string::npos);
  // Cumulative buckets, as Prometheus requires: one line per layout
  // bucket, labelled by its inclusive upper bound.
  const auto le_line = [](std::uint64_t value, int cumulative) {
    return "bp_lat_bucket{le=\"" +
           std::to_string(hist::upper(hist::bucket(value))) + "\"} " +
           std::to_string(cumulative) + "\n";
  };
  EXPECT_NE(text.find(le_line(40, 1)), std::string::npos) << text;
  EXPECT_NE(text.find(le_line(60, 2)), std::string::npos) << text;
  EXPECT_NE(text.find(le_line(100, 2)), std::string::npos) << text;
  EXPECT_NE(text.find(le_line(600, 3)), std::string::npos) << text;
  EXPECT_NE(text.find("bp_lat_bucket{le=\"+Inf\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("bp_lat_sum 700\n"), std::string::npos);
  EXPECT_NE(text.find("bp_lat_count 3\n"), std::string::npos);
}

TEST(ObsMetrics, PrometheusHelpEscapesBackslashAndNewline) {
  MetricsRegistry registry;
  registry.counter("bp_tricky_total", "line one\nline two \\ backslash")
      .add(1);
  const std::string text = registry.render_prometheus();
  // The exposition stays one physical line per HELP entry: the newline
  // is escaped to "\n" and the backslash to "\\".
  EXPECT_NE(
      text.find("# HELP bp_tricky_total line one\\nline two \\\\ backslash\n"),
      std::string::npos)
      << text;
  EXPECT_EQ(text.find("line one\nline"), std::string::npos);
  // Every line is a comment or a sample: no raw-help line can appear.
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string_view line(text.data() + pos, eol - pos);
    EXPECT_TRUE(line.empty() || line[0] == '#' ||
                line.substr(0, 3) == "bp_")
        << "unexpected exposition line: " << line;
    pos = eol + 1;
  }
}

TEST(ObsMetrics, ReadValueCoversEveryInstrumentKind) {
  MetricsRegistry registry;
  registry.counter("c_total").add(5);
  registry.gauge("g").set(2.5);
  registry.gauge_callback("cb", [] { return 9.0; });
  Histogram& h = registry.histogram("h_us");
  h.observe(50);
  h.observe(100);
  h.observe(500);
  h.observe(5'000);

  EXPECT_DOUBLE_EQ(registry.read_value("c_total").value(), 5.0);
  EXPECT_DOUBLE_EQ(registry.read_value("g").value(), 2.5);
  EXPECT_DOUBLE_EQ(registry.read_value("cb").value(), 9.0);
  EXPECT_DOUBLE_EQ(registry.read_value("h_us").value(), 4.0);  // count
  EXPECT_FALSE(registry.read_value("missing").has_value());
}

TEST(ObsMetrics, RenderJsonIsDeterministicAndNameOrdered) {
  MetricsRegistry registry;
  registry.counter("zeta_total").add(1);
  registry.counter("alpha_total").add(2);
  registry.gauge("mid_gauge").set(1.5);

  const std::string a = registry.render_json();
  const std::string b = registry.render_json();
  EXPECT_EQ(a, b);
  // std::map ordering: alpha before zeta regardless of insert order.
  EXPECT_LT(a.find("alpha_total"), a.find("zeta_total"));
  EXPECT_NE(a.find("\"alpha_total\": 2"), std::string::npos);
  EXPECT_NE(a.find("\"mid_gauge\": 1.5"), std::string::npos);
}

TEST(ObsMetrics, CallbackGaugeIsFreshAtRenderTime) {
  MetricsRegistry registry;
  double live = 1.0;
  registry.gauge_callback("bp_live", [&live] { return live; }, "live value");
  EXPECT_NE(registry.render_prometheus().find("bp_live 1\n"),
            std::string::npos);
  live = 42.0;  // no re-registration needed: evaluated at render time
  EXPECT_NE(registry.render_prometheus().find("bp_live 42\n"),
            std::string::npos);
  registry.remove("bp_live");
  EXPECT_EQ(registry.render_prometheus().find("bp_live"), std::string::npos);
}

TEST(ObsMetrics, FaultMetricsBridge) {
  MetricsRegistry registry;
  register_fault_metrics(registry);
  const std::string text = registry.render_prometheus();
  EXPECT_NE(text.find("bp_fault_points_armed"), std::string::npos);
  EXPECT_NE(text.find("bp_fault_fires_total"), std::string::npos);
}

// ------------------- ServeMetrics on the registry ----------------------

TEST(ObsServeMetrics, ExportsThroughSharedRegistry) {
  MetricsRegistry registry;
  serve::ServeMetrics metrics(&registry, "bp_serve");
  metrics.record_scored(0, /*flagged=*/true, /*latency_micros=*/120);
  metrics.record_scored(1, /*flagged=*/false, /*latency_micros=*/80);
  metrics.record_rejected();

  EXPECT_EQ(&metrics.registry(), &registry);
  const std::string text = registry.render_prometheus();
  EXPECT_NE(text.find("bp_serve_scored_total 2\n"), std::string::npos);
  EXPECT_NE(text.find("bp_serve_flagged_total 1\n"), std::string::npos);
  EXPECT_NE(text.find("bp_serve_rejected_total 1\n"), std::string::npos);
  EXPECT_NE(text.find("bp_serve_latency_micros_count 2\n"), std::string::npos);

  const serve::MetricsSnapshot snapshot = metrics.snapshot();
  EXPECT_EQ(snapshot.scored, 2u);
  EXPECT_EQ(snapshot.flagged, 1u);
}

TEST(ObsServeMetrics, PrivateRegistryIsolatesInstances) {
  serve::ServeMetrics a;
  serve::ServeMetrics b;
  a.record_scored(0, false, 10);
  EXPECT_EQ(a.snapshot().scored, 1u);
  EXPECT_EQ(b.snapshot().scored, 0u);
  EXPECT_NE(&a.registry(), &b.registry());
}

// ------------------ quantile / budget edge semantics -------------------

serve::MetricsSnapshot snapshot_with_bucket(std::size_t bucket,
                                            std::uint64_t count) {
  serve::MetricsSnapshot s;
  s.latency_histogram[bucket] = count;
  return s;
}

TEST(ObsLatencyQuantile, InterpolatesInsideABucket) {
  // The bucket holding 80 spans (79, 95]; rank q*total interpolates
  // linearly across it.
  const std::size_t b = hist::bucket(80);
  ASSERT_EQ(hist::upper(b - 1), 79u);
  ASSERT_EQ(hist::upper(b), 95u);
  const serve::MetricsSnapshot s = snapshot_with_bucket(b, 4);
  EXPECT_DOUBLE_EQ(s.latency_quantile_micros(0.5), 87.0);
  EXPECT_DOUBLE_EQ(s.latency_quantile_micros(1.0), 95.0);
}

TEST(ObsLatencyQuantile, ClampsOutOfRangeAndNaN) {
  const serve::MetricsSnapshot s = snapshot_with_bucket(hist::bucket(80), 4);
  EXPECT_DOUBLE_EQ(s.latency_quantile_micros(-5.0),
                   s.latency_quantile_micros(0.0));
  EXPECT_DOUBLE_EQ(s.latency_quantile_micros(2.0),
                   s.latency_quantile_micros(1.0));
  const double at_nan =
      s.latency_quantile_micros(std::numeric_limits<double>::quiet_NaN());
  EXPECT_FALSE(std::isnan(at_nan));
  EXPECT_DOUBLE_EQ(at_nan, s.latency_quantile_micros(0.0));
}

TEST(ObsLatencyQuantile, ZeroSamplesYieldZero) {
  const serve::MetricsSnapshot s;
  EXPECT_DOUBLE_EQ(s.latency_quantile_micros(0.99), 0.0);
  EXPECT_TRUE(s.within_budget());
}

TEST(ObsLatencyQuantile, BudgetIsInclusiveAtExactlyOneHundredMs) {
  // 100 ms falls inside the bucket (98'303, 114'687], 16'384 wide.  With
  // 1'452'316 samples below it and 16'384 in it, p99's rank lies 1'697
  // samples into the bucket, so the interpolated p99 is exactly
  // 98'303 + 1'697 = 100'000 us.  "around 100 milliseconds" is a
  // target, not an open bound: exactly 100 ms must count as within
  // budget (the old `<` comparison got this wrong).
  const std::size_t b = hist::bucket(serve::kLatencyBudgetMicros);
  ASSERT_EQ(hist::upper(b - 1), 98'303u);
  ASSERT_EQ(hist::upper(b) - hist::upper(b - 1), 16'384u);
  serve::MetricsSnapshot s;
  s.latency_histogram[b - 1] = 1'452'316;
  s.latency_histogram[b] = 16'384;
  ASSERT_DOUBLE_EQ(s.p99_micros(), 100'000.0);
  EXPECT_TRUE(s.within_budget());

  // One sample moved above the bucket pushes p99 over by one.
  serve::MetricsSnapshot over = s;
  over.latency_histogram[b - 1] -= 1;
  over.latency_histogram[b + 1] = 1;
  EXPECT_DOUBLE_EQ(over.p99_micros(), 100'001.0);
  EXPECT_FALSE(over.within_budget());
}

// ------------------------- the histogram layout -------------------------

TEST(ObsHistogramLayout, ContiguousMonotoneAndAtMostQuarterWide) {
  static_assert(hist::kBuckets <= 100);
  static_assert(hist::upper(hist::kBuckets - 2) >= 10'000'000);
  std::size_t previous = 0;
  // Plain checks in the sweep: 2^25 gtest assertions would dominate the
  // suite's run time, so the first failing value is reported instead.
  const auto holds = [&](std::uint64_t v) {
    const std::size_t b = hist::bucket(v);
    const bool contiguous = b == previous || b == previous + 1;
    previous = b;
    const bool inside = b < hist::kBuckets && v <= hist::upper(b) &&
                        (b == 0 || v > hist::upper(b - 1)) &&
                        hist::lower(b) == (b == 0 ? 0 : hist::upper(b - 1) + 1);
    // Above 8, no finite bucket is wider than 25% of its lowest value.
    const bool narrow = v < 8 || b + 1 == hist::kBuckets ||
                        4 * (hist::upper(b) - hist::lower(b) + 1) <=
                            hist::lower(b);
    return contiguous && inside && narrow;
  };
  std::uint64_t v = 0;
  while (v <= (std::uint64_t{1} << 25) && holds(v)) ++v;
  ASSERT_GT(v, std::uint64_t{1} << 25) << "first failing value " << v;
  EXPECT_EQ(hist::bucket(std::uint64_t{1} << 24), hist::kBuckets - 1);
  EXPECT_EQ(hist::bucket(UINT64_MAX), hist::kBuckets - 1);
  EXPECT_EQ(hist::upper(hist::kBuckets - 1), UINT64_MAX);
}

TEST(ObsHistogramServe, SubMicrosecondAndSmallLatenciesResolve) {
  serve::ServeMetrics zero;
  for (int i = 0; i < 100; ++i) zero.record_cached(0, false, 0);
  EXPECT_DOUBLE_EQ(zero.snapshot().p50_micros(), 0.0);

  serve::ServeMetrics three;
  for (int i = 0; i < 100; ++i) three.record_scored(0, false, 3);
  EXPECT_NEAR(three.snapshot().p50_micros(), 3.0, 0.25 * 3.0);
}

// --------------------- retrain supervisor export -----------------------

const ua::UserAgent kChrome100{ua::Vendor::kChrome, 100, ua::Os::kWindows10};
const ua::UserAgent kFirefox100{ua::Vendor::kFirefox, 100,
                                ua::Os::kWindows10};

core::Polygraph make_tiny_model() {
  core::PolygraphConfig config;
  config.feature_indices = {0, 1};
  config.pca_components = 2;
  config.k = 2;
  ml::Matrix centroids(2, 2);
  centroids(1, 0) = 10.0;
  centroids(1, 1) = 10.0;
  ml::KMeansConfig kconfig;
  kconfig.k = 2;
  core::ClusterTable table;
  table.assign(kChrome100, 0);
  table.assign(kFirefox100, 1);
  return core::Polygraph::from_parts(
      config, ml::StandardScaler::from_params({0.0, 0.0}, {1.0, 1.0}),
      ml::Pca::from_params({0.0, 0.0}, {1.0, 1.0}, ml::Matrix::identity(2)),
      ml::KMeans::from_centroids(std::move(centroids), kconfig),
      std::move(table));
}

TEST(ObsRetrainExport, StatusExportedAfterEveryCycle) {
  MetricsRegistry registry;
  serve::ModelRegistry models;
  serve::RetrainConfig config;
  config.max_attempts = 1;
  config.registry = &registry;

  bool should_train = true;
  serve::RetrainSupervisor supervisor(
      models, config, [&] { return should_train; },
      [] { return std::optional<core::Polygraph>(make_tiny_model()); },
      [](const core::Polygraph&) { return true; },
      [](std::chrono::milliseconds) {});

  ASSERT_EQ(supervisor.run_cycle(), serve::CycleResult::kPublished);
  EXPECT_EQ(registry.counter("bp_retrain_cycles_total").value(), 1u);
  EXPECT_EQ(registry.counter("bp_retrain_published_total").value(), 1u);
  EXPECT_EQ(registry.counter("bp_retrain_attempts_total").value(), 1u);
  EXPECT_EQ(registry.counter("bp_retrain_failed_cycles_total").value(), 0u);
  EXPECT_DOUBLE_EQ(registry.gauge("bp_retrain_staleness_cycles").value(), 0.0);
  EXPECT_DOUBLE_EQ(
      registry.gauge("bp_retrain_last_published_version").value(), 1.0);

  should_train = false;
  ASSERT_EQ(supervisor.run_cycle(), serve::CycleResult::kNoDrift);
  EXPECT_EQ(registry.counter("bp_retrain_cycles_total").value(), 2u);
  EXPECT_DOUBLE_EQ(registry.gauge("bp_retrain_staleness_cycles").value(), 1.0);
}

TEST(ObsRetrainExport, FailuresAndBreakerVisibleInGauges) {
  MetricsRegistry registry;
  serve::ModelRegistry models;
  serve::RetrainConfig config;
  config.max_attempts = 2;
  config.breaker_threshold = 1;
  config.breaker_cooldown_cycles = 1;
  config.registry = &registry;

  serve::RetrainSupervisor supervisor(
      models, config, [] { return true; },
      [] { return std::optional<core::Polygraph>(); },  // always fails
      {}, [](std::chrono::milliseconds) {});

  ASSERT_EQ(supervisor.run_cycle(), serve::CycleResult::kFailed);
  EXPECT_EQ(registry.counter("bp_retrain_failed_cycles_total").value(), 1u);
  EXPECT_EQ(registry.counter("bp_retrain_attempts_total").value(), 2u);
  EXPECT_DOUBLE_EQ(registry.gauge("bp_retrain_breaker_open").value(), 1.0);
  EXPECT_DOUBLE_EQ(
      registry.gauge("bp_retrain_consecutive_failures").value(), 1.0);
  EXPECT_GT(registry.gauge("bp_retrain_last_backoff_ms").value(), 0.0);

  ASSERT_EQ(supervisor.run_cycle(), serve::CycleResult::kBreakerOpen);
  EXPECT_EQ(registry.counter("bp_retrain_cycles_total").value(), 2u);
  EXPECT_DOUBLE_EQ(registry.gauge("bp_retrain_staleness_cycles").value(), 2.0);
}

// --------------------------- drift export ------------------------------

TEST(ObsDriftExport, CheckExportsCountersAndSkips) {
  MetricsRegistry registry;
  const core::Polygraph model = make_tiny_model();
  const core::DriftDetector detector(model, 0.98, &registry);

  traffic::Dataset data({0, 1});
  for (int i = 0; i < 3; ++i) {
    traffic::SessionRecord record;
    record.claimed = kChrome100;
    record.features = {0, 0};  // cluster 0, matching the table
    data.add(std::move(record));
  }
  const ua::UserAgent unseen{ua::Vendor::kChrome, 200, ua::Os::kWindows10};
  const core::DriftReport report =
      detector.check(data, {kChrome100, unseen},
                     bp::util::Date::from_ymd(2023, 10, 1));

  ASSERT_EQ(report.entries.size(), 1u);
  ASSERT_EQ(report.skipped.size(), 1u);
  EXPECT_EQ(registry.counter("bp_drift_checks_total").value(), 1u);
  EXPECT_EQ(registry.counter("bp_drift_releases_checked_total").value(), 1u);
  // A silently unmonitored release is an operational state of its own:
  // the skip is a counter, not just a field on the bespoke report.
  EXPECT_EQ(registry.counter("bp_drift_releases_skipped_total").value(), 1u);
  EXPECT_EQ(registry.counter("bp_drift_retraining_signals_total").value(), 0u);
  EXPECT_DOUBLE_EQ(registry.gauge("bp_drift_last_min_accuracy").value(), 1.0);
  EXPECT_DOUBLE_EQ(registry.gauge("bp_drift_last_skipped").value(), 1.0);
  EXPECT_DOUBLE_EQ(
      registry.gauge("bp_drift_last_retraining_required").value(), 0.0);
}

TEST(ObsDriftExport, NullRegistryDisablesExport) {
  const core::Polygraph model = make_tiny_model();
  const core::DriftDetector detector(model, 0.98);  // no registry
  traffic::Dataset data({0, 1});
  const core::DriftReport report = detector.check(
      data, {kChrome100}, bp::util::Date::from_ymd(2023, 10, 1));
  EXPECT_EQ(report.entries.size(), 0u);  // no sessions -> skipped
  EXPECT_EQ(report.skipped.size(), 1u);
}

}  // namespace
}  // namespace bp::obs
