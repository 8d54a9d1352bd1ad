// Measurement helpers shared by the benchmark's workloads: clocks,
// quantiles, process/thread CPU accounting, the in-memory span log and
// the metric list printed as the result line.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

// CPU time (user + system) and context switches, from getrusage.
struct CpuUsage {
  double cpu_us = 0.0;
  double switches = 0.0;  // voluntary + involuntary

  CpuUsage& operator+=(const CpuUsage& other) noexcept;
  CpuUsage operator-(const CpuUsage& other) const noexcept;
};
CpuUsage process_cpu();  // RUSAGE_SELF: every thread of the process
CpuUsage thread_cpu();   // RUSAGE_THREAD: the calling thread only
double thread_cpu_clock_us();  // CLOCK_THREAD_CPUTIME_ID of the caller

// Clock ticks each live thread of the process has spent in user and in
// kernel mode (/proc/self/task/*/stat), keyed by thread id.
struct TaskTicks {
  std::vector<std::array<long long, 3>> tasks;  // {tid, utime, stime}
};
TaskTicks task_ticks();
// The user share of the ticks that threads alive at both snapshots
// spent between them.  The kernel splits CPU time into user and system
// from tick samples, so the split is taken from the threads that ran
// throughout (the server's) and applied to a precisely clocked total.
double user_share(const TaskTicks& before, const TaskTicks& after);

// Peak resident set of the process so far, in MiB.
double peak_rss_mb();

// One timed interval recorded by the benchmark around a call into a
// layer (or around one request on the wire).  `count` is the number of
// layer calls the interval covers.
struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t count = 1;
};

// Spans kept in memory for the whole run and written out once at exit.
// Threads collect spans locally and hand them over with append().
class SpanLog {
 public:
  // First of `n` consecutive span ids no other caller receives.
  std::uint64_t reserve_ids(std::uint64_t n = 1);
  void add(const Span& span);
  void append(const std::vector<Span>& spans);
  // CSV: name,id,parent,start_ns,end_ns,count.  False on I/O failure.
  bool write(const std::string& path) const;
  std::size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
};

// The result's metric list, printed in insertion order.
class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  // `{"name": {"value": v, "unit": "u"}, ...}`
  std::string json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

}  // namespace perfbench
