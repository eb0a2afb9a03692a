#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "bench.hpp"

namespace hdbench {

namespace {

/// Trace timestamps count from process start so the timeline begins at 0.
const Clock::time_point kTraceBase = Clock::now();

std::uint64_t ns_since_base(Clock::time_point t) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t - kTraceBase)
          .count());
}

}  // namespace

void WorkloadResult::add_median(const std::string& name,
                                const std::vector<double>& samples) {
  const Summary summary = summarize(samples);
  add(name, summary.median);
  repetitions[name] = summary;
}

void WorkloadResult::add_quantile(const std::string& name,
                                  const std::vector<double>& samples,
                                  double q) {
  add(name, quantile(samples, q));
  repetitions[name] = summarize(samples);
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

Summary summarize(const std::vector<double>& samples) {
  return Summary{samples.size(), quantile(samples, 0.5),
                 quantile(samples, 0.25), quantile(samples, 0.75)};
}

double peak_rss_mib() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- SpanLog --------------------------------------------------------------

SpanLog::Stat& SpanLog::slot(const char* name) {
  // Pointer equality first: it is what literals usually share, and this
  // runs between spans, where its cost is unattributed replay time.
  for (auto& s : stats_) {
    if (s.name == name) return s;
  }
  for (auto& s : stats_) {
    if (std::strcmp(s.name, name) == 0) return s;
  }
  stats_.push_back(Stat{name, 0, 0.0, 0.0});
  return stats_.back();
}

const SpanLog::Stat& SpanLog::stat(const char* name) const {
  static const Stat kNone{};
  for (const auto& s : stats_) {
    if (std::strcmp(s.name, name) == 0) return s;
  }
  return kNone;
}

void SpanLog::open(const char* name) {
  stack_.push_back(Open{name, Clock::now(), 0.0});
}

void SpanLog::close_as(const char* name, Clock::time_point end) {
  const Open span = stack_.back();
  stack_.pop_back();
  const double dur = std::chrono::duration<double>(end - span.start).count();
  Stat& s = slot(name);
  ++s.calls;
  s.total_s += dur;
  s.self_s += dur - span.child_s;
  if (!stack_.empty()) stack_.back().child_s += dur;
  if (events_.size() < event_cap_) {
    const std::uint64_t start_ns = ns_since_base(span.start);
    events_.push_back(hdtest::obs::TraceEvent{
        name, start_ns, ns_since_base(end) - start_ns, lane_});
  }
}

void SpanLog::record(const char* name, Clock::time_point start,
                     Clock::time_point end) {
  stack_.push_back(Open{name, start, 0.0});
  close_as(name, end);
}

void SpanLog::merge(const SpanLog& other) {
  for (const auto& s : other.stats_) {
    Stat& mine = slot(s.name);
    mine.calls += s.calls;
    mine.total_s += s.total_s;
    mine.self_s += s.self_s;
  }
  events_.insert(events_.end(), other.events_.begin(), other.events_.end());
}

std::string export_trace(const SpanLog& log, double wall_s,
                         const std::string& out_dir, const std::string& stem) {
  std::filesystem::create_directories(out_dir);
  {
    std::ofstream json(out_dir + "/" + stem + ".trace.json");
    json << hdtest::obs::render_chrome_trace(log.events());
  }
  std::string table = "span                 calls        self_s     share\n";
  char line[160];
  for (const auto& s : log.stats()) {
    std::snprintf(line, sizeof line, "%-20s %10llu %13.6f %8.2f%%\n", s.name,
                  static_cast<unsigned long long>(s.calls), s.self_s,
                  wall_s > 0.0 ? 100.0 * s.self_s / wall_s : 0.0);
    table += line;
  }
  std::snprintf(line, sizeof line, "%-20s %10s %13.6f\n", "wall", "",
                wall_s);
  table += line;
  std::ofstream txt(out_dir + "/" + stem + ".layers.txt");
  txt << table;
  return table;
}

}  // namespace hdbench
