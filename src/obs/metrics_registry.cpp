#include "obs/metrics_registry.h"

#include <cassert>
#include <cstdio>

namespace bp::obs {

namespace {

// Format a gauge/callback value: integral values print without a
// fractional part so counters-exported-as-gauges stay readable.
std::string format_value(double v) {
  char buf[64];
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      v >= -9.2e18 && v <= 9.2e18) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.6g", v);
  }
  return buf;
}

// Prometheus exposition: help text must escape backslash and newline,
// or a multi-line help string corrupts the whole scrape.
std::string escape_help(std::string_view help) {
  std::string out;
  out.reserve(help.size());
  for (char c : help) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

}  // namespace

Histogram::Counts Histogram::bucket_counts() const noexcept {
  Counts out{};
  for (const Stripe& stripe : stripes_) {
    for (std::size_t b = 0; b < hist::kBuckets; ++b) {
      out[b] += stripe.buckets[b].load(std::memory_order_relaxed);
    }
  }
  return out;
}

std::uint64_t Histogram::count() const noexcept {
  std::uint64_t total = 0;
  for (std::uint64_t c : bucket_counts()) total += c;
  return total;
}

std::uint64_t Histogram::sum() const noexcept {
  std::uint64_t total = 0;
  for (const Stripe& stripe : stripes_) {
    total += stripe.sum.load(std::memory_order_relaxed);
  }
  return total;
}

Histogram::Counts Histogram::exemplar_trace_ids() const noexcept {
  Counts out{};
  for (std::size_t b = 0; b < hist::kBuckets; ++b) {
    out[b] = exemplars_[b].load(std::memory_order_relaxed);
  }
  return out;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

Counter& MetricsRegistry::counter(std::string_view name,
                                  std::string_view help) {
  std::lock_guard lock(mutex_);
  auto it = instruments_.find(name);
  if (it != instruments_.end()) {
    if (it->second.kind == Kind::kCounter) return *it->second.counter;
    assert(false && "metric name re-registered as a different kind");
    static Counter scrap;
    return scrap;
  }
  Instrument instrument;
  instrument.kind = Kind::kCounter;
  instrument.help = std::string(help);
  instrument.counter = std::unique_ptr<Counter>(new Counter());
  return *instruments_.emplace(std::string(name), std::move(instrument))
              .first->second.counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name, std::string_view help) {
  std::lock_guard lock(mutex_);
  auto it = instruments_.find(name);
  if (it != instruments_.end()) {
    if (it->second.kind == Kind::kGauge) return *it->second.gauge;
    assert(false && "metric name re-registered as a different kind");
    static Gauge scrap;
    return scrap;
  }
  Instrument instrument;
  instrument.kind = Kind::kGauge;
  instrument.help = std::string(help);
  instrument.gauge = std::unique_ptr<Gauge>(new Gauge());
  return *instruments_.emplace(std::string(name), std::move(instrument))
              .first->second.gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::string_view help) {
  std::lock_guard lock(mutex_);
  auto it = instruments_.find(name);
  if (it != instruments_.end()) {
    if (it->second.kind == Kind::kHistogram) return *it->second.histogram;
    assert(false && "metric name re-registered as a different kind");
    static Histogram scrap;
    return scrap;
  }
  Instrument instrument;
  instrument.kind = Kind::kHistogram;
  instrument.help = std::string(help);
  instrument.histogram = std::unique_ptr<Histogram>(new Histogram());
  return *instruments_.emplace(std::string(name), std::move(instrument))
              .first->second.histogram;
}

void MetricsRegistry::gauge_callback(std::string_view name,
                                     std::function<double()> fn,
                                     std::string_view help) {
  std::lock_guard lock(mutex_);
  Instrument instrument;
  instrument.kind = Kind::kCallback;
  instrument.help = std::string(help);
  instrument.callback = std::move(fn);
  instruments_.insert_or_assign(std::string(name), std::move(instrument));
}

void MetricsRegistry::remove(std::string_view name) {
  std::lock_guard lock(mutex_);
  const auto it = instruments_.find(name);
  if (it != instruments_.end()) instruments_.erase(it);
}

std::optional<double> MetricsRegistry::read_value(std::string_view name) const {
  std::lock_guard lock(mutex_);
  const auto it = instruments_.find(name);
  if (it == instruments_.end()) return std::nullopt;
  const Instrument& instrument = it->second;
  switch (instrument.kind) {
    case Kind::kCounter:
      return static_cast<double>(instrument.counter->value());
    case Kind::kGauge:
      return instrument.gauge->value();
    case Kind::kCallback:
      return instrument.callback();
    case Kind::kHistogram:
      return static_cast<double>(instrument.histogram->count());
  }
  return std::nullopt;
}

std::size_t MetricsRegistry::size() const {
  std::lock_guard lock(mutex_);
  return instruments_.size();
}

// One instrument's values, read under the lock so renders can format
// after releasing it.  Names are copied: remove() may erase an entry as
// soon as the lock is released.
struct MetricsRegistry::Row {
  std::string name, help;
  Kind kind;
  std::uint64_t total = 0;  // a counter's value, or a histogram's sum
  double value = 0.0;       // a gauge's value, or its callback's
  Histogram::Counts buckets{}, exemplars{};
};

// Callbacks run here, under the lock, so once remove() returns no
// in-flight render can still call the removed callback.
std::vector<MetricsRegistry::Row> MetricsRegistry::snapshot() const {
  std::lock_guard lock(mutex_);
  std::vector<Row> rows;
  rows.reserve(instruments_.size());
  for (const auto& [name, instrument] : instruments_) {
    Row& row = rows.emplace_back(Row{name, instrument.help, instrument.kind});
    if (instrument.counter) row.total = instrument.counter->value();
    if (instrument.gauge) row.value = instrument.gauge->value();
    if (instrument.callback) row.value = instrument.callback();
    if (instrument.histogram) {
      row.buckets = instrument.histogram->bucket_counts();
      row.exemplars = instrument.histogram->exemplar_trace_ids();
      row.total = instrument.histogram->sum();
    }
  }
  return rows;
}

std::string MetricsRegistry::render_prometheus() const {
  const std::vector<Row> rows = snapshot();
  std::string out;
  out.reserve(rows.size() * 96);
  for (const Row& row : rows) {
    const std::string& name = row.name;
    if (!row.help.empty()) {
      out += "# HELP " + name + " " + escape_help(row.help) + "\n";
    }
    switch (row.kind) {
      case Kind::kCounter:
        out += "# TYPE " + name + " counter\n";
        out += name + " " + std::to_string(row.total) + "\n";
        break;
      case Kind::kGauge:
      case Kind::kCallback:
        out += "# TYPE " + name + " gauge\n";
        out += name + " " + format_value(row.value) + "\n";
        break;
      case Kind::kHistogram: {
        out += "# TYPE " + name + " histogram\n";
        std::uint64_t cumulative = 0;
        for (std::size_t b = 0; b < hist::kBuckets; ++b) {
          cumulative += row.buckets[b];
          const std::string le = b + 1 < hist::kBuckets
                                     ? std::to_string(hist::upper(b))
                                     : "+Inf";
          out += name + "_bucket{le=\"" + le + "\"} " +
                 std::to_string(cumulative) + "\n";
        }
        out += name + "_sum " + std::to_string(row.total) + "\n";
        out += name + "_count " + std::to_string(cumulative) + "\n";
        break;
      }
    }
  }
  return out;
}

std::string MetricsRegistry::render_json() const {
  const std::vector<Row> rows = snapshot();
  std::string counters, gauges, histograms;
  for (const Row& row : rows) {
    const std::string& name = row.name;
    switch (row.kind) {
      case Kind::kCounter:
        if (!counters.empty()) counters += ", ";
        counters += "\"" + name + "\": " + std::to_string(row.total);
        break;
      case Kind::kGauge:
      case Kind::kCallback:
        if (!gauges.empty()) gauges += ", ";
        gauges += "\"" + name + "\": " + format_value(row.value);
        break;
      case Kind::kHistogram: {
        if (!histograms.empty()) histograms += ", ";
        std::string bounds, counts;
        std::uint64_t count = 0;
        for (std::size_t b = 0; b + 1 < hist::kBuckets; ++b) {
          if (!bounds.empty()) bounds += ", ";
          bounds += std::to_string(hist::upper(b));
        }
        for (std::uint64_t c : row.buckets) {
          if (!counts.empty()) counts += ", ";
          counts += std::to_string(c);
          count += c;
        }
        histograms += "\"" + name + "\": {\"bounds\": [" + bounds +
                      "], \"counts\": [" + counts +
                      "], \"sum\": " + std::to_string(row.total) +
                      ", \"count\": " + std::to_string(count);
        // Exemplars are emitted only when at least one bucket has one,
        // so histograms without tracing keep their exact prior shape.
        bool any_exemplar = false;
        for (std::uint64_t id : row.exemplars) any_exemplar |= id != 0;
        if (any_exemplar) {
          std::string exemplars;
          for (std::uint64_t id : row.exemplars) {
            if (!exemplars.empty()) exemplars += ", ";
            exemplars += std::to_string(id);
          }
          histograms += ", \"exemplars\": [" + exemplars + "]";
        }
        histograms += "}";
        break;
      }
    }
  }
  return "{\"counters\": {" + counters + "}, \"gauges\": {" + gauges +
         "}, \"histograms\": {" + histograms + "}}";
}

}  // namespace bp::obs
