#include "stats.h"

#include <dirent.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::clamp(q, 0.0, 1.0) *
                      static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

CpuUsage& CpuUsage::operator+=(const CpuUsage& other) noexcept {
  cpu_us += other.cpu_us;
  switches += other.switches;
  return *this;
}

CpuUsage CpuUsage::operator-(const CpuUsage& other) const noexcept {
  return {cpu_us - other.cpu_us, switches - other.switches};
}

namespace {

double timeval_us(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) * 1e6 + static_cast<double>(tv.tv_usec);
}

CpuUsage usage(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return {timeval_us(ru.ru_utime) + timeval_us(ru.ru_stime),
          static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw)};
}

}  // namespace

CpuUsage process_cpu() { return usage(RUSAGE_SELF); }
CpuUsage thread_cpu() { return usage(RUSAGE_THREAD); }

double thread_cpu_clock_us() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) / 1e3;
}

TaskTicks task_ticks() {
  TaskTicks out;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return out;
  while (const dirent* entry = readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    const std::string path =
        std::string("/proc/self/task/") + entry->d_name + "/stat";
    std::FILE* file = std::fopen(path.c_str(), "r");
    if (file == nullptr) continue;  // the thread exited meanwhile
    char line[1024];
    const bool read = std::fgets(line, sizeof(line), file) != nullptr;
    std::fclose(file);
    // Fields after the parenthesised name: state is field 3, utime 14,
    // stime 15.
    const char* rest = read ? std::strrchr(line, ')') : nullptr;
    long long utime = 0, stime = 0;
    if (rest != nullptr &&
        std::sscanf(rest + 2, "%*c %*d %*d %*d %*d %*d %*u %*u %*u %*u %*u "
                              "%lld %lld",
                    &utime, &stime) == 2) {
      out.tasks.push_back({std::atoll(entry->d_name), utime, stime});
    }
  }
  closedir(dir);
  std::sort(out.tasks.begin(), out.tasks.end());
  return out;
}

double user_share(const TaskTicks& before, const TaskTicks& after) {
  long long user = 0, total = 0;
  for (const auto& task : after.tasks) {
    const auto it = std::lower_bound(
        before.tasks.begin(), before.tasks.end(), task,
        [](const auto& a, const auto& b) { return a[0] < b[0]; });
    if (it == before.tasks.end() || (*it)[0] != task[0]) continue;
    user += task[1] - (*it)[1];
    total += task[1] - (*it)[1] + task[2] - (*it)[2];
  }
  return total > 0 ? static_cast<double>(user) / static_cast<double>(total)
                   : 0.0;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t SpanLog::reserve_ids(std::uint64_t n) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t first = next_id_;
  next_id_ += n;
  return first;
}

void SpanLog::add(const Span& span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

void SpanLog::append(const std::vector<Span>& spans) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.insert(spans_.end(), spans.begin(), spans.end());
}

std::size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

bool SpanLog::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fputs("name,id,parent,start_ns,end_ns,count\n", file);
  for (const Span& span : spans_) {
    std::fprintf(file, "%s,%llu,%llu,%lld,%lld,%llu\n", span.name,
                 static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent),
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns),
                 static_cast<unsigned long long>(span.count));
  }
  return std::fclose(file) == 0;
}

void Metrics::add(const std::string& name, double value,
                  const std::string& unit) {
  entries_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
}

std::string Metrics::json() const {
  std::string out = "{";
  char number[64];
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    std::snprintf(number, sizeof(number), "%.17g", entries_[i].value);
    if (i != 0) out += ", ";
    out += "\"" + entries_[i].name + "\": {\"value\": " + number +
           ", \"unit\": \"" + entries_[i].unit + "\"}";
  }
  return out + "}";
}

}  // namespace perfbench
