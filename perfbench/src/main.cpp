// verdict_bench: the repository's benchmark of the verdict path.
//
//   verdict_bench --workload <wire_popular|wire_unique|engine_bulk>
//                 --seed <n> --seconds <s> --trace <0|1>
//                 [--spans <csv path>] [--inject-mismatch]
//
// One process per run.  It builds every input from the seed, checks
// every verdict it receives against offline Polygraph::score on the
// model version named in the response, and prints as its last stdout
// line one JSON object: {"correct", "attempted", "failed", "metrics"}.
// --trace 0 measures the end-to-end metrics; --trace 1 measures the
// per-layer metrics (layer-alone timings, counters, the ledger and the
// cost of tracing itself) and writes the run's spans to --spans.
// --inject-mismatch corrupts one expected verdict; the run must then
// report failures (used by selfcheck.py).
//
// Workloads (why each exists is in BENCHMARK.json):
//   wire_popular  open-loop POST /score over loopback, u^3-popular
//                 content, two hot swaps; mostly verdict-cache hits
//   wire_unique   the same, every frame's content distinct; every
//                 frame pays the queue hop and the kernel
//   engine_bulk   2 producers into one ScoringEngine, no sockets,
//                 closed by queue backpressure
#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "fixture.h"
#include "layers.h"
#include "net/engine_router.h"
#include "net/score_server.h"
#include "obs/introspect/build_info.h"
#include "serve/scoring_engine.h"
#include "stats.h"
#include "wire_load.h"

#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace perfbench {
namespace {

// Set-up runs this many times per run; setup_s is their median.
constexpr int kSetups = 3;
// Goodput limits: p99 within a twentieth of the paper's ~100 ms budget,
// and answers keeping pace with the offered rate (no growing backlog).
constexpr double kLatencyLimitUs = 5'000.0;
constexpr double kAchievedShare = 0.98;
// Offered rate of each wire workload's fixed-rate phase: busy enough
// that handlers and workers stay warm, and about a quarter of the
// workload's capacity on a 4-hardware-thread Xeon host, where p99 still
// measures the path rather than how full the queues ran.
double fixed_rate(Workload workload) {
  return workload == Workload::kWirePopular ? 40'000.0 : 20'000.0;
}

// A probe whose generator sent its p99 request later than this ran out
// of client capacity, not server capacity; it cannot pass.
constexpr double kGeneratorLateLimitUs = 1'000.0;
// Wire runs alternate slices of this length at the fixed rate with two
// goodput probes of half its length, so a few seconds of contention on
// a shared machine touch a few slices, not one whole phase.
constexpr double kSliceSeconds = 1.0;
// The goodput search stops climbing here: past it the four generator
// threads, not the server, run out first.
constexpr double kGoodputCeilingRps = 200'000.0;
// Latency quantiles are taken per window of this length and the lower
// quartile over a run's windows is reported: stalls from other tenants
// of a shared machine inflate whole windows, and this holds steady until
// three quarters of them are hit, while a slower path moves every
// window.
constexpr double kWindowSeconds = 0.25;

struct Args {
  Workload workload = Workload::kWirePopular;
  std::string workload_name;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool inject_mismatch = false;
  std::string spans_path;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--inject-mismatch") {
      args.inject_mismatch = true;
      continue;
    }
    if (value == nullptr) return std::nullopt;
    ++i;
    char* end = nullptr;
    if (arg == "--workload") {
      args.workload_name = value;
      if (args.workload_name == "wire_popular") {
        args.workload = Workload::kWirePopular;
      } else if (args.workload_name == "wire_unique") {
        args.workload = Workload::kWireUnique;
      } else if (args.workload_name == "engine_bulk") {
        args.workload = Workload::kEngineBulk;
      } else {
        return std::nullopt;
      }
      have_workload = true;
    } else if (arg == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (arg == "--seconds") {
      args.seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && args.seconds > 0.0 &&
                     args.seconds <= 120.0;
    } else if (arg == "--trace") {
      const std::string trace = value;
      args.trace = trace == "1";
      have_trace = trace == "0" || trace == "1";
    } else if (arg == "--spans") {
      args.spans_path = value;
    } else {
      return std::nullopt;
    }
  }
  if (!(have_workload && have_seed && have_seconds && have_trace)) {
    return std::nullopt;
  }
  return args;
}

// Build identity, printed with every result; loud when the numbers
// would not be comparable with an optimized, uninstrumented build.
void stamp_build() {
  const bp::obs::introspect::BuildInfo info = bp::obs::introspect::build_info();
  std::printf("build: git=%s compiler=\"%s\" build_type=%s flags=\"%s\" "
              "sanitizer=%s hardware_threads=%u\n",
              info.git_describe, info.compiler, info.build_type,
              PERFBENCH_CXX_FLAGS, info.sanitizer, info.hardware_threads);
  if (std::strcmp(info.build_type, "Release") != 0 ||
      std::strcmp(info.sanitizer, "none") != 0 ||
      std::strstr(PERFBENCH_CXX_FLAGS, "-fsanitize") != nullptr) {
    std::fprintf(stderr,
                 "WARNING: %s build, sanitizer=%s, flags \"%s\" -- these "
                 "numbers are not comparable with an uninstrumented Release "
                 "build\n",
                 info.build_type, info.sanitizer, PERFBENCH_CXX_FLAGS);
  }
}

std::size_t generator_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw == 0 ? 1 : hw, 1, 4);
}

using Windows = std::vector<std::vector<double>>;

// Lower quartile over `windows` of each window's q-quantile (see
// kWindowSeconds).  A window with too few samples for its tail (a
// trailing sliver) is skipped unless no window has enough.
double window_quantile(const Windows& windows, double q) {
  std::vector<double> per_window;
  for (const auto& window : windows) {
    if (window.size() >= 200) per_window.push_back(quantile(window, q));
  }
  if (per_window.empty()) {
    for (const auto& window : windows) {
      if (!window.empty()) per_window.push_back(quantile(window, q));
    }
  }
  return quantile(std::move(per_window), 0.25);
}

// Groups (time, value) samples, times relative to the phase start, into
// windows of `window_s`.
Windows by_window(const std::vector<std::pair<std::int64_t, double>>& samples,
                  double window_s) {
  Windows windows;
  const auto window_ns = static_cast<std::int64_t>(window_s * 1e9);
  for (const auto& [at, value] : samples) {
    const auto w = static_cast<std::size_t>(std::max<std::int64_t>(at, 0) /
                                            window_ns);
    if (w >= windows.size()) windows.resize(w + 1);
    windows[w].push_back(value);
  }
  return windows;
}

struct Ledger {
  std::vector<std::pair<const char*, double>> layers_us;
  double e2e_us = 0.0;
  const char* e2e_name = "";

  double stacked_us() const {
    double sum = 0.0;
    for (const auto& [name, us] : layers_us) sum += us;
    return sum;
  }
  void print(const std::string& workload) const {
    std::printf("ledger %s (per verdict, each layer timed alone):\n",
                workload.c_str());
    for (const auto& [name, us] : layers_us) {
      std::printf("  %-26s %10.3f us\n", name, us);
    }
    std::printf("  %-26s %10.3f us\n", "stacked", stacked_us());
    std::printf("  %-26s %10.3f us\n", e2e_name, e2e_us);
    std::printf("  %-26s %10.3f us\n", "unexplained", e2e_us - stacked_us());
  }
  void add_metrics(Metrics& m) const {
    m.add("ledger.stacked_us", stacked_us(), "us");
    m.add("ledger.e2e_us", e2e_us, "us");
    m.add("ledger.remainder_us", e2e_us - stacked_us(), "us");
  }
};

void add_layer_metrics(Metrics& m, const LayerTimes& t) {
  m.add("net.parse_ns", t.parse_ns, "ns");
  m.add("net.render_ns", t.render_ns, "ns");
  m.add("net.route_ns", t.route_ns, "ns");
  m.add("serve.cache_key_ns", t.cache_key_ns, "ns");
  m.add("serve.cache_hit_ns", t.cache_hit_ns, "ns");
  m.add("serve.cache_miss_ns", t.cache_miss_ns, "ns");
  m.add("serve.cache_insert_ns", t.cache_insert_ns, "ns");
  m.add("serve.publish_us", t.publish_us, "us");
  m.add("core.score_batch_ns", t.score_batch_ns, "ns");
  m.add("core.score_ns", t.score_ns, "ns");
  m.add("core.risk_ns", t.risk_ns, "ns");
  m.add("core.flagged_ratio", t.flagged_ratio, "ratio");
}

void add_training_metrics(Metrics& m, const Fixture& fx) {
  double scale = 0, filter = 0, pca = 0, kmeans = 0, table = 0;
  for (const auto& summary : fx.models.summary) {
    scale += summary.timings.scale;
    filter += summary.timings.filter;
    pca += summary.timings.pca;
    kmeans += summary.timings.kmeans;
    table += summary.timings.table;
  }
  m.add("traffic.generate_s", fx.models.generate_s + fx.pool_generate_s, "s");
  m.add("ml.scale_s", scale, "s");
  m.add("ml.filter_s", filter, "s");
  m.add("ml.pca_s", pca, "s");
  m.add("ml.kmeans_s", kmeans, "s");
  m.add("core.table_s", table, "s");
}

void add_failure_metrics(Metrics& m, const Tally& t) {
  m.add("failed_ratio",
        t.attempted == 0 ? 0.0
                         : static_cast<double>(t.failed()) /
                               static_cast<double>(t.attempted),
        "ratio");
  m.add("failed.lost", static_cast<double>(t.lost), "count");
  m.add("failed.corrupted", static_cast<double>(t.corrupted), "count");
  m.add("failed.rejected", static_cast<double>(t.rejected), "count");
  m.add("failed.mismatched", static_cast<double>(t.mismatched), "count");
  m.add("verdicts.checked", static_cast<double>(t.ok + t.mismatched), "count");
}

void add_cache_metrics(Metrics& m, const bp::serve::CacheStats& cache,
                       const bp::serve::MetricsSnapshot& engine) {
  m.add("serve.cache_hit_ratio", cache.hit_rate(), "ratio");
  m.add("serve.cache_hits", static_cast<double>(cache.hits), "count");
  m.add("serve.cache_misses", static_cast<double>(cache.misses), "count");
  m.add("serve.cache_stale", static_cast<double>(cache.stale), "count");
  m.add("serve.cache_evictions", static_cast<double>(cache.evictions), "count");
  m.add("serve.batch_mean",
        engine.batches == 0 ? 0.0
                            : static_cast<double>(engine.scored - engine.cached) /
                                  static_cast<double>(engine.batches),
        "count");
}

// Sets up `kSetups` times (once when traced) and keeps the last rig;
// each earlier rig is torn down before the next is built.
template <typename Rig, typename SetUp>
std::unique_ptr<Rig> set_up_repeatedly(const Args& args, SetUp&& set_up,
                                       std::vector<double>& setup_s) {
  std::unique_ptr<Rig> rig;
  for (int i = 0; i < (args.trace ? 1 : kSetups); ++i) {
    rig.reset();
    const std::int64_t start = now_ns();
    rig = set_up(args);
    if (!rig) return nullptr;
    setup_s.push_back(static_cast<double>(now_ns() - start) / 1e9);
  }
  return rig;
}

bool write_spans(const SpanLog& spans, const Args& args) {
  if (!args.spans_path.empty() && !spans.write(args.spans_path)) {
    std::fprintf(stderr, "cannot write spans to %s\n", args.spans_path.c_str());
    return false;
  }
  std::printf("spans: %zu written to %s\n", spans.size(),
              args.spans_path.empty() ? "(nowhere)" : args.spans_path.c_str());
  return true;
}

// Prints the verdict tally and, last, the result line; the exit code.
int report(const Tally& t, const Metrics& m) {
  const bool correct = t.failed() == 0 && t.ok > 0;
  std::printf("verdicts: %llu attempted, %llu checked and equal to offline, "
              "%llu lost, %llu corrupted, %llu rejected, %llu mismatched\n",
              static_cast<unsigned long long>(t.attempted),
              static_cast<unsigned long long>(t.ok),
              static_cast<unsigned long long>(t.lost),
              static_cast<unsigned long long>(t.corrupted),
              static_cast<unsigned long long>(t.rejected),
              static_cast<unsigned long long>(t.mismatched));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(t.attempted),
              static_cast<unsigned long long>(t.failed()), m.json().c_str());
  return correct ? 0 : 1;
}

// ===================================================================
// Wire workloads: an in-process ScoreServer in the deployed
// `fraud_detection_service --score-listen` shape, driven over loopback.

bp::net::ScoreServerConfig deployed_server_config(std::size_t features) {
  bp::net::ScoreServerConfig config;
  config.listener.handler_threads = 4;
  config.router.shards = 2;
  config.router.engine.workers = 2;
  config.router.engine.queue_capacity = 1024;
  config.router.engine.overflow_policy = bp::serve::OverflowPolicy::kReject;
  config.router.engine.cache_capacity = 4096;  // per shard
  config.expected_features = features;
  return config;
}

struct WireRig {
  Fixture fx;
  double fixed_rate = 0;  // requests per second of the fixed-rate phase
  bp::serve::ModelRegistry registry;
  std::optional<bp::net::ScoreServer> server;
  std::size_t next_frame = 0;  // slices continue the frame sequence
  int serving = 0;             // fixture model the registry serves
  Tally tally;                 // every request that counts toward failed
};

// One stretch of open-loop load at one offered rate, on fresh
// connections, and what the metrics need from it.
struct Slice {
  DriveResult drive;
  // Latency (due -> validated answer) of answered requests, per window.
  Windows windows_us;
  double achieved_rps = 0;    // answered within the schedule, per second
                              // until the last of them
  double sessions_per_s = 0;  // answered / (slice start -> last answer)
  double late_us_p99 = 0;     // generator lateness

  double server_cpu_us() const {
    return drive.process_usage.cpu_us - drive.gen_cpu_us;
  }
  double answered() const {
    return static_cast<double>(std::max<std::uint64_t>(drive.tally.ok, 1));
  }
};

// window_quantile over the windows of every slice.
double window_quantile(std::span<const Slice> slices, double q) {
  Windows windows;
  for (const Slice& slice : slices) {
    windows.insert(windows.end(), slice.windows_us.begin(),
                   slice.windows_us.end());
  }
  return window_quantile(windows, q);
}

template <typename F>
double median_over(const std::vector<Slice>& slices, F&& value) {
  std::vector<double> values;
  for (const Slice& slice : slices) values.push_back(value(slice));
  return median(std::move(values));
}

// `swaps_at_s`: offsets into this slice at which the serving model is
// hot-swapped to the other fixture model.
Slice run_slice(WireRig& rig, double rate, double seconds,
                const std::vector<double>& swaps_at_s = {},
                SpanLog* spans = nullptr, std::uint64_t parent_span = 0) {
  Slice out;
  DriveSpec spec;
  spec.rate = rate;
  spec.requests =
      std::max<std::size_t>(1, static_cast<std::size_t>(rate * seconds));
  spec.first_frame = rig.next_frame;
  spec.connections = generator_threads();
  spec.spans = spans;
  spec.parent_span = parent_span;
  for (const double at : swaps_at_s) {
    spec.events.push_back({at, [&rig] {
                             rig.serving ^= 1;
                             rig.registry.publish(rig.fx.models.model[rig.serving]);
                           }});
  }
  rig.next_frame = (rig.next_frame + spec.requests) % rig.fx.frames();
  out.drive = drive(rig.server->port(), rig.fx, rig.registry, spec);

  const auto window_ns =
      static_cast<std::int64_t>(std::min(kWindowSeconds, seconds) * 1e9);
  const auto schedule_ns = static_cast<std::int64_t>(
      static_cast<double>(spec.requests) * 1e9 / rate);
  std::vector<double> late;
  std::size_t on_time = 0;
  std::int64_t last_on_time_ns = 1;
  for (const RequestRecord& r : out.drive.records) {
    if (r.sent_ns >= 0) {
      late.push_back(static_cast<double>(r.sent_ns - r.due_ns) / 1e3);
    }
    if (r.outcome != Outcome::kOk) continue;
    const auto w = static_cast<std::size_t>(r.due_ns / window_ns);
    if (w >= out.windows_us.size()) out.windows_us.resize(w + 1);
    out.windows_us[w].push_back(static_cast<double>(r.recv_ns - r.due_ns) / 1e3);
    // A growing backlog shows as answers arriving after the schedule.
    if (r.recv_ns <= schedule_ns) {
      ++on_time;
      last_on_time_ns = std::max(last_on_time_ns, r.recv_ns);
    }
  }
  // The first window is the slice's lead-in: fresh connections, and a
  // server still recovering from whatever ran before.  It is checked
  // and counted, but not timed.
  if (out.windows_us.size() > 1) out.windows_us.erase(out.windows_us.begin());
  out.late_us_p99 = quantile(std::move(late), 0.99);
  out.achieved_rps = static_cast<double>(on_time) * 1e9 /
                     static_cast<double>(last_on_time_ns);
  out.sessions_per_s = static_cast<double>(out.drive.tally.ok) /
                       std::max(out.drive.seconds, 1e-9);
  return out;
}

// The hot swaps of a fixed-rate phase fall at a third and two thirds of
// its schedule; these are the ones inside slice i, as offsets into it.
std::vector<double> swaps_in_slice(int i, int slices, double slice_s) {
  std::vector<double> swaps;
  for (const double at : {slices * slice_s / 3, 2 * slices * slice_s / 3}) {
    if (at >= i * slice_s && at < (i + 1) * slice_s) {
      swaps.push_back(at - i * slice_s);
    }
  }
  return swaps;
}

// Runs `slices` slices of `slice_s` at the fixed rate, with the phase's
// two hot swaps.  `between(i)` runs after slice i: the goodput probes,
// or the traced slices, interleave there.
template <typename Between>
std::vector<Slice> run_fixed(WireRig& rig, int slices, double slice_s,
                             Between&& between) {
  std::vector<Slice> out;
  for (int i = 0; i < slices; ++i) {
    out.push_back(run_slice(rig, rig.fixed_rate, slice_s,
                            swaps_in_slice(i, slices, slice_s)));
    rig.tally += out.back().drive.tally;
    between(i);
  }
  return out;
}

std::unique_ptr<WireRig> set_up_wire(const Args& args) {
  auto rig = std::make_unique<WireRig>();
  rig->fx = build_fixture(args.workload, args.seed, args.inject_mismatch);
  rig->fixed_rate = fixed_rate(args.workload);
  rig->registry.publish(rig->fx.models.model[rig->serving]);
  rig->server.emplace(rig->registry,
                      deployed_server_config(rig->fx.contents[0].features.size()));
  if (!rig->server->running()) {
    std::fprintf(stderr, "score server failed: %s\n",
                 rig->server->error().c_str());
    return nullptr;
  }
  // Warm-up: connections, handler threads and (for popular content)
  // the verdict caches, at the fixed rate.
  rig->tally += run_slice(*rig, rig->fixed_rate, 8'192 / rig->fixed_rate).drive.tally;
  return rig;
}

// The highest offered rate that meets the latency limit with no
// failures and no growing backlog.  Near that rate a probe on a shared
// machine passes or fails by chance, so the search does not bisect to a
// single verdict: it climbs from the fixed rate by x1.5 (a failing rate
// is probed twice before the climb stops), halves the gap to the first
// failing rate once, then walks a staircase, up 5% after a pass and down
// 5% after a failure, around the rate that passes half the time.  A
// probe the generator could not keep to schedule is repeated.  The
// result is the median achieved rate of the staircase probes, or of the
// passes at the ceiling when nothing below it failed, or the highest
// pass when the probes run out during the climb.
class GoodputSearch {
 public:
  explicit GoodputSearch(double start)
      : rate_(start), ceiling_(kGoodputCeilingRps) {}

  void probe(WireRig& rig, double seconds) {
    const Slice s = run_slice(rig, rate_, seconds);
    const Tally& t = s.drive.tally;
    // 503s are the server saying no, an expected answer past the knee;
    // anything else that failed counts against the run.
    Tally counted = t;
    counted.attempted -= t.rejected;
    counted.rejected = 0;
    rig.tally += counted;
    const double p99 = window_quantile(std::span(&s, 1), 0.99);
    const bool valid = s.late_us_p99 <= kGeneratorLateLimitUs;
    const bool pass = valid && t.failed() == 0 && p99 <= kLatencyLimitUs &&
                      s.achieved_rps >= kAchievedShare * rate_;
    std::printf("  probe: offered %8.0f rps  achieved %8.0f  p99 %9.1f us  "
                "late p99 %7.1f us  failed %llu  %s\n",
                rate_, s.achieved_rps, p99, s.late_us_p99,
                static_cast<unsigned long long>(t.failed()),
                !valid ? "INVALID (generator late)" : pass ? "pass" : "fail");
    if (!valid) return;  // says nothing about the server: probe again
    if (climbing_) {
      if (pass) {
        pass_rate_ = rate_;
        climb_best_ = s.achieved_rps;
        if (rate_ == ceiling_) at_ceiling_.push_back(s.achieved_rps);
        rate_ = std::min(rate_ * 1.5, ceiling_);
      } else if (failed_once_ != rate_) {
        failed_once_ = rate_;  // probe the same rate again
      } else {
        climbing_ = false;
        rate_ = pass_rate_ > 0 ? (pass_rate_ + rate_) / 2 : rate_ / 2;
      }
      return;
    }
    staircase_.push_back(s.achieved_rps);
    rate_ = pass ? std::min(rate_ * 1.05, ceiling_) : rate_ / 1.05;
  }

  double result() const {
    if (!staircase_.empty()) return median(staircase_);
    if (!at_ceiling_.empty()) return median(at_ceiling_);
    return climb_best_;  // the probes ran out while still climbing
  }

 private:
  double rate_;
  const double ceiling_;
  bool climbing_ = true;
  double pass_rate_ = 0.0, failed_once_ = 0.0, climb_best_ = 0.0;
  std::vector<double> at_ceiling_, staircase_;
};

int run_wire_workload(const Args& args) {
  std::vector<double> setup_s;
  const std::unique_ptr<WireRig> rig =
      set_up_repeatedly<WireRig>(args, set_up_wire, setup_s);
  if (!rig) return 1;
  // Half the run at the fixed rate, in slices; the other half probes
  // for goodput (or, traced, repeats the fixed slices with spans on).
  const int slices =
      std::max(1, static_cast<int>(args.seconds / 2 / kSliceSeconds));
  const double slice_s = std::min(kSliceSeconds, args.seconds / 2);
  Metrics m;

  if (!args.trace) {
    std::printf("fixed rate %.0f rps in %d slices of %.2f s, interleaved with "
                "goodput probes (p99 <= %.0f us, no failures, achieved >= "
                "%.2f x offered):\n",
                rig->fixed_rate, slices, slice_s, kLatencyLimitUs, kAchievedShare);
    GoodputSearch search(rig->fixed_rate);
    const std::vector<Slice> fixed = run_fixed(*rig, slices, slice_s, [&](int) {
      search.probe(*rig, slice_s / 2);
      search.probe(*rig, slice_s / 2);
    });
    m.add("p50_us", window_quantile(fixed, 0.50), "us");
    m.add("p99_us", window_quantile(fixed, 0.99), "us");
    m.add("goodput_rps", search.result(), "1/s");
    m.add("sessions_per_s",
          median_over(fixed, [](const Slice& s) { return s.sessions_per_s; }),
          "1/s");
    m.add("cpu_us_per_verdict", median_over(fixed, [](const Slice& s) {
            return s.server_cpu_us() / s.answered();
          }),
          "us");
    m.add("setup_s", median(setup_s), "s");
    m.add("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    SpanLog spans;
    const std::uint64_t root = spans.reserve_ids();
    const std::int64_t root_start = now_ns();
    const LayerTimes layers =
        time_layers(rig->fx, rig->server->router(), spans, root);
    // Untraced and traced slices alternate, so drift on a shared
    // machine lands on both sides of trace.overhead_ratio.
    const std::uint64_t traced_id = spans.reserve_ids();
    const std::int64_t traced_start = now_ns();
    std::vector<Slice> traced;
    const std::vector<Slice> plain = run_fixed(*rig, slices, slice_s, [&](int i) {
      traced.push_back(run_slice(*rig, rig->fixed_rate, slice_s,
                                 swaps_in_slice(i, slices, slice_s), &spans,
                                 traced_id));
      rig->tally += traced.back().drive.tally;
    });
    spans.add({"phase.traced", traced_id, root, traced_start, now_ns(),
               static_cast<std::uint64_t>(traced.size())});
    spans.add({"run", root, 0, root_start, now_ns(), 1});

    std::vector<double> outside, engine;
    for (const Slice& slice : traced) {
      for (const RequestRecord& r : slice.drive.records) {
        if (r.outcome != Outcome::kOk) continue;
        engine.push_back(r.engine_us);
        outside.push_back(static_cast<double>(r.recv_ns - r.sent_ns) / 1e3 -
                          r.engine_us);
      }
    }
    double answered = 0, server_us = 0, user_us = 0, switches = 0, gen_us = 0,
           attempted = 0;
    std::vector<double> late_p99;
    for (const Slice& s : plain) {
      answered += s.answered();
      server_us += s.server_cpu_us();
      user_us += s.server_cpu_us() * s.drive.server_user_share;
      switches += s.drive.process_usage.switches - s.drive.gen_usage.switches;
      gen_us += s.drive.gen_cpu_us;
      attempted += static_cast<double>(s.drive.tally.attempted);
      late_p99.push_back(s.late_us_p99);
    }
    const double plain_p50 = window_quantile(plain, 0.50);
    const bp::net::ScoreServer& server = *rig->server;
    const bp::serve::CacheStats cache = server.router().cache_stats();

    add_layer_metrics(m, layers);
    m.add("net.outside_engine_us_p50", quantile(outside, 0.50), "us");
    m.add("net.outside_engine_us_p99", quantile(outside, 0.99), "us");
    m.add("net.requests", static_cast<double>(server.requests()), "count");
    m.add("net.rejected", static_cast<double>(server.admission_rejected()), "count");
    m.add("net.malformed", static_cast<double>(server.malformed()), "count");
    m.add("net.overloaded", static_cast<double>(server.overloaded()), "count");
    m.add("serve.engine_us_p50", quantile(engine, 0.50), "us");
    m.add("serve.engine_us_p99", quantile(engine, 0.99), "us");
    add_cache_metrics(m, cache, server.router().metrics());
    add_training_metrics(m, rig->fx);
    m.add("proc.user_us_per_verdict", user_us / answered, "us");
    m.add("proc.sys_us_per_verdict", (server_us - user_us) / answered, "us");
    m.add("proc.csw_per_verdict", switches / answered, "count");
    m.add("gen.late_us_p99", median(late_p99), "us");
    m.add("gen.cpu_us_per_req", gen_us / std::max(attempted, 1.0), "us");
    m.add("trace.overhead_ratio",
          plain_p50 > 0 ? window_quantile(traced, 0.50) / plain_p50 : 0.0,
          "ratio");

    // Ledger: what one verdict costs layer by layer, weighted by how
    // often the cache answered, against the untraced end-to-end p50.
    const double hit = cache.hit_rate();
    Ledger ledger;
    ledger.layers_us = {
        {"net.parse", layers.parse_ns / 1e3},
        {"net.route", layers.route_ns / 1e3},
        {"serve.cache_key", layers.cache_key_ns / 1e3},
        {"serve.cache_hit (x hit)", hit * layers.cache_hit_ns / 1e3},
        {"serve.cache_miss (x miss)", (1 - hit) * layers.cache_miss_ns / 1e3},
        {"core.score_batch (x miss)", (1 - hit) * layers.score_batch_ns / 1e3},
        {"serve.cache_insert (x miss)", (1 - hit) * layers.cache_insert_ns / 1e3},
        {"net.render", layers.render_ns / 1e3},
    };
    ledger.e2e_name = "end-to-end p50_us";
    ledger.e2e_us = plain_p50;
    ledger.print(args.workload_name);
    ledger.add_metrics(m);
    add_failure_metrics(m, rig->tally);
    if (!write_spans(spans, args)) return 1;
  }
  rig->server->stop();
  return report(rig->tally, m);
}

// ===================================================================
// engine_bulk: 2 producers submit a cache-cold stream into one
// ScoringEngine; the loop is closed by the bounded queue (kBlock).

constexpr std::size_t kProducers = 2;
constexpr std::uint64_t kLatencySampleEvery = 16;
// Sample slots per worker, allocated and touched at set-up so that the
// resident set does not grow with throughput.
constexpr std::size_t kMaxSamples = 1 << 20;

struct alignas(64) WorkerLedger {
  std::atomic<std::uint64_t> done{0};
  std::atomic<std::uint64_t> corrupted{0};
  std::atomic<std::uint64_t> mismatched{0};
  // Sampled (completion time, submit -> verdict ns, engine-reported us).
  struct Sample {
    std::int64_t at_ns;
    std::int64_t latency_ns;
    std::uint32_t engine_us;
  };
  std::vector<Sample> samples;  // kMaxSamples slots, the first n_samples used
  std::size_t n_samples = 0;
  std::vector<Span> spans;
  std::optional<VersionMap> versions;
};

struct BulkRig {
  Fixture fx;
  bp::serve::ModelRegistry registry;
  // Per producer: requests whose id is their content index.
  std::array<std::vector<bp::serve::ScoreRequest>, kProducers> streams;
  std::vector<std::atomic<std::int64_t>> submitted_ns;  // by content
  std::array<WorkerLedger, 2> workers;
  std::atomic<bool> sampling{false};
  std::atomic<bool> tracing{false};
  std::int64_t phase_t0 = 0;
  std::uint64_t phase_span = 0;
  std::optional<bp::serve::ScoringEngine> engine;  // last: stops first

  void on_response(const bp::serve::ScoreResponse& r) {
    WorkerLedger& w = workers[r.worker % workers.size()];
    const std::size_t c = static_cast<std::size_t>(r.id);
    const int model = r.status == bp::serve::ResponseStatus::kScored
                          ? w.versions->model_of(r.model_version)
                          : -1;
    if (model < 0) {
      w.corrupted.fetch_add(1, std::memory_order_relaxed);
    } else if (!(Verdict{r.detection.flagged, r.detection.risk_factor,
                         static_cast<std::uint32_t>(r.detection.predicted_cluster)} ==
                 fx.expected[model][c])) {
      w.mismatched.fetch_add(1, std::memory_order_relaxed);
    }
    const std::uint64_t n = w.done.fetch_add(1, std::memory_order_relaxed);
    if (n % kLatencySampleEvery == 0 && sampling.load(std::memory_order_acquire) &&
        w.n_samples < w.samples.size()) {
      const std::int64_t now = now_ns();
      const std::int64_t sent = submitted_ns[c].load(std::memory_order_relaxed);
      w.samples[w.n_samples++] = {now - phase_t0, now - sent,
                                  static_cast<std::uint32_t>(r.latency.count())};
      if (tracing.load(std::memory_order_relaxed)) {
        w.spans.push_back({"bulk.verdict", 0, phase_span, sent, now, 1});
      }
    }
  }
};

std::unique_ptr<BulkRig> set_up_bulk(const Args& args) {
  auto rig = std::make_unique<BulkRig>();
  rig->fx = build_fixture(args.workload, args.seed, args.inject_mismatch);
  rig->registry.publish(rig->fx.models.model[0]);
  for (std::size_t c = 0; c < rig->fx.contents.size(); ++c) {
    bp::serve::ScoreRequest request;
    request.id = c;
    request.features = rig->fx.contents[c].features;
    request.claimed = rig->fx.contents[c].claimed;
    rig->streams[c % kProducers].push_back(std::move(request));
  }
  rig->submitted_ns = std::vector<std::atomic<std::int64_t>>(rig->fx.contents.size());
  for (WorkerLedger& w : rig->workers) {
    w.versions.emplace(rig->registry, rig->fx.models);
    w.samples.assign(kMaxSamples, {});
  }
  bp::serve::EngineConfig config;
  config.workers = 2;
  config.max_batch = 64;
  config.overflow_policy = bp::serve::OverflowPolicy::kBlock;
  BulkRig* raw = rig.get();
  rig->engine.emplace(rig->registry, config,
                      [raw](const bp::serve::ScoreResponse& r) { raw->on_response(r); });
  // Warm-up: worker threads, scratch buffers and the allocator.
  for (const auto& stream : rig->streams) {
    for (std::size_t i = 0; i < std::min<std::size_t>(8'192, stream.size()); ++i) {
      rig->engine->submit(stream[i]);
    }
  }
  rig->engine->drain();
  return rig;
}

struct BulkPhase {
  std::uint64_t submitted = 0;
  std::uint64_t done = 0;
  double sessions_per_s = 0;  // median over windows
  double p50_us = 0, p99_us = 0;  // submit -> verdict, median over windows
  double engine_p50_us = 0, engine_p99_us = 0;
  double producer_cpu_us = 0;
  CpuUsage process_usage;
  double user_share = 0;  // of the engine's threads, see stats.h
};

// Spans collected on a hot path carry no id yet; number them here.
void append_with_ids(SpanLog& log, std::vector<Span>& spans) {
  const std::uint64_t first = log.reserve_ids(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) spans[i].id = first + i;
  log.append(spans);
}

BulkPhase run_bulk(BulkRig& rig, double seconds, SpanLog* spans,
                   std::uint64_t parent_span) {
  BulkPhase out;
  for (WorkerLedger& w : rig.workers) {
    w.n_samples = 0;
    w.spans.clear();
    if (spans != nullptr) w.spans.reserve(kMaxSamples);
  }
  rig.phase_span = parent_span;
  rig.tracing.store(spans != nullptr);
  auto total_done = [&] {
    std::uint64_t n = 0;
    for (const WorkerLedger& w : rig.workers) n += w.done.load(std::memory_order_relaxed);
    return n;
  };

  std::atomic<bool> stop{false};
  std::array<std::uint64_t, kProducers> submitted{};
  std::array<double, kProducers> cpu_us{};
  std::array<std::vector<Span>, kProducers> producer_spans;
  const std::uint64_t done_before = total_done();
  const CpuUsage process_start = process_cpu();
  const TaskTicks ticks_start = task_ticks();
  rig.phase_t0 = now_ns();
  rig.sampling.store(true, std::memory_order_release);
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      const double cpu_start = thread_cpu_clock_us();
      const auto& stream = rig.streams[p];
      constexpr std::size_t kBlock = 1024;
      std::int64_t block_start = now_ns();
      std::uint64_t n = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const bp::serve::ScoreRequest& request = stream[n % stream.size()];
        rig.submitted_ns[request.id].store(now_ns(), std::memory_order_relaxed);
        if (rig.engine->submit(request) != bp::serve::SubmitResult::kAdmitted) break;
        if (++n % kBlock == 0 && spans != nullptr) {
          const std::int64_t now = now_ns();
          producer_spans[p].push_back({"bulk.submit", 0, parent_span, block_start, now, kBlock});
          block_start = now;
        }
      }
      submitted[p] = n;
      cpu_us[p] = thread_cpu_clock_us() - cpu_start;
    });
  }
  std::vector<double> window_rates;
  const double window_s = std::min(kWindowSeconds, seconds);
  std::uint64_t last = total_done();
  std::int64_t last_at = now_ns();
  for (int w = 1; w * window_s <= seconds + 1e-9; ++w) {
    std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(
        rig.phase_t0 + static_cast<std::int64_t>(w * window_s * 1e9))));
    const std::uint64_t now_done = total_done();
    const std::int64_t at = now_ns();
    window_rates.push_back(static_cast<double>(now_done - last) /
                           (static_cast<double>(at - last_at) / 1e9));
    last = now_done;
    last_at = at;
  }
  stop.store(true);
  for (std::thread& t : producers) t.join();
  rig.engine->drain();
  rig.sampling.store(false, std::memory_order_release);
  out.process_usage = process_cpu() - process_start;
  out.user_share = user_share(ticks_start, task_ticks());

  for (std::size_t p = 0; p < kProducers; ++p) {
    out.submitted += submitted[p];
    out.producer_cpu_us += cpu_us[p];
    if (spans != nullptr) append_with_ids(*spans, producer_spans[p]);
  }
  out.done = total_done() - done_before;
  out.sessions_per_s = median(window_rates);
  std::vector<std::pair<std::int64_t, double>> latency, engine;
  for (WorkerLedger& w : rig.workers) {
    for (const auto& s : std::span(w.samples).first(w.n_samples)) {
      latency.emplace_back(s.at_ns, static_cast<double>(s.latency_ns) / 1e3);
      engine.emplace_back(s.at_ns, s.engine_us);
    }
    if (spans != nullptr) append_with_ids(*spans, w.spans);
  }
  const Windows latency_windows = by_window(latency, window_s);
  const Windows engine_windows = by_window(engine, window_s);
  out.p50_us = window_quantile(latency_windows, 0.50);
  out.p99_us = window_quantile(latency_windows, 0.99);
  out.engine_p50_us = window_quantile(engine_windows, 0.50);
  out.engine_p99_us = window_quantile(engine_windows, 0.99);
  return out;
}

Tally bulk_tally(const BulkRig& rig, std::uint64_t submitted) {
  Tally t;
  for (const WorkerLedger& w : rig.workers) {
    t.ok += w.done.load();
    t.corrupted += w.corrupted.load();
    t.mismatched += w.mismatched.load();
  }
  t.ok -= t.corrupted + t.mismatched;
  t.attempted = submitted;
  const std::uint64_t answered = t.ok + t.corrupted + t.mismatched;
  t.lost = submitted > answered ? submitted - answered : 0;
  return t;
}

int run_bulk_workload(const Args& args) {
  std::vector<double> setup_s;
  const std::unique_ptr<BulkRig> rig =
      set_up_repeatedly<BulkRig>(args, set_up_bulk, setup_s);
  std::uint64_t submitted = 0;
  for (const auto& w : rig->workers) submitted += w.done.load();  // warm-up
  Metrics m;

  if (!args.trace) {
    const BulkPhase phase = run_bulk(*rig, args.seconds, nullptr, 0);
    submitted += phase.submitted;
    const double done = static_cast<double>(std::max<std::uint64_t>(phase.done, 1));
    std::printf("bulk: %llu sessions in %.1f s, median window %.0f sessions/s\n",
                static_cast<unsigned long long>(phase.done), args.seconds,
                phase.sessions_per_s);
    const Tally t = bulk_tally(*rig, submitted);
    m.add("p50_us", phase.p50_us, "us");
    m.add("p99_us", phase.p99_us, "us");
    // Closed loop: every completed verdict met the correctness limits,
    // so goodput is the completion rate when nothing failed.
    m.add("goodput_rps", t.failed() == 0 ? phase.sessions_per_s : 0.0, "1/s");
    m.add("sessions_per_s", phase.sessions_per_s, "1/s");
    m.add("cpu_us_per_verdict", phase.process_usage.cpu_us / done, "us");
    m.add("setup_s", median(setup_s), "s");
    m.add("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    SpanLog spans;
    const std::uint64_t root = spans.reserve_ids();
    const std::int64_t root_start = now_ns();
    // Route timing needs a router; this one is never submitted to.
    bp::net::RouterConfig router_config;
    router_config.shards = 2;
    router_config.engine.workers = 1;
    bp::net::EngineRouter router(rig->registry, router_config,
                                 [](const bp::serve::ScoreResponse&) {});
    const LayerTimes layers = time_layers(rig->fx, router, spans, root);
    router.stop();
    const double phase_s = args.seconds / 2;
    const BulkPhase plain = run_bulk(*rig, phase_s, nullptr, 0);
    const std::uint64_t traced_id = spans.reserve_ids();
    const std::int64_t traced_start = now_ns();
    const BulkPhase traced = run_bulk(*rig, phase_s, &spans, traced_id);
    spans.add({"phase.traced", traced_id, root, traced_start, now_ns(), traced.done});
    spans.add({"run", root, 0, root_start, now_ns(), 1});
    submitted += plain.submitted + traced.submitted;

    const double done = static_cast<double>(std::max<std::uint64_t>(plain.done, 1));
    const CpuUsage& cpu = plain.process_usage;
    add_layer_metrics(m, layers);
    // No sockets on this path: the net counters stay at zero.
    m.add("net.outside_engine_us_p50", 0.0, "us");
    m.add("net.outside_engine_us_p99", 0.0, "us");
    m.add("net.requests", 0.0, "count");
    m.add("net.rejected", 0.0, "count");
    m.add("net.malformed", 0.0, "count");
    m.add("net.overloaded", 0.0, "count");
    m.add("serve.engine_us_p50", plain.engine_p50_us, "us");
    m.add("serve.engine_us_p99", plain.engine_p99_us, "us");
    // The bulk engine runs without a verdict cache: its counters are 0.
    add_cache_metrics(m, rig->engine->cache_stats(), rig->engine->metrics());
    add_training_metrics(m, rig->fx);
    m.add("proc.user_us_per_verdict", cpu.cpu_us / done * plain.user_share, "us");
    m.add("proc.sys_us_per_verdict", cpu.cpu_us / done * (1 - plain.user_share),
          "us");
    m.add("proc.csw_per_verdict", cpu.switches / done, "count");
    m.add("gen.late_us_p99", 0.0, "us");  // closed loop: no schedule
    m.add("gen.cpu_us_per_req",
          plain.producer_cpu_us /
              static_cast<double>(std::max<std::uint64_t>(plain.submitted, 1)),
          "us");
    m.add("trace.overhead_ratio",
          traced.sessions_per_s > 0 ? plain.sessions_per_s / traced.sessions_per_s : 0.0,
          "ratio");

    // Ledger: the kernel alone against the CPU the whole engine spends
    // per verdict; the remainder is the queue hop, request copies,
    // callbacks and wake-ups.
    Ledger ledger;
    ledger.layers_us = {{"core.score_batch", layers.score_batch_ns / 1e3}};
    ledger.e2e_name = "end-to-end cpu_us_per_verdict";
    ledger.e2e_us = cpu.cpu_us / done;
    ledger.print(args.workload_name);
    ledger.add_metrics(m);
    add_failure_metrics(m, bulk_tally(*rig, submitted));
    if (!write_spans(spans, args)) return 1;
  }
  rig->engine->stop();
  return report(bulk_tally(*rig, submitted), m);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const std::optional<perfbench::Args> args = perfbench::parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: %s --workload <wire_popular|wire_unique|engine_bulk> "
                 "--seed <n> --seconds <s> --trace <0|1> [--spans <path>] "
                 "[--inject-mismatch]\n",
                 argv[0]);
    return 2;
  }
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  perfbench::stamp_build();
  return args->workload == perfbench::Workload::kEngineBulk
             ? perfbench::run_bulk_workload(*args)
             : perfbench::run_wire_workload(*args);
}
