#include "obs/registry.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "hdc/instrument.hpp"

namespace hdtest::obs {

namespace {

std::atomic<bool>& enabled_storage() noexcept {
  static std::atomic<bool> flag{false};
  return flag;
}

/// RFC 8259 string escaping: quotes, backslashes and control characters.
void append_escaped(std::string& out, std::string_view text) {
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void append_json_key(std::string& out, std::string_view key) {
  out += '"';
  append_escaped(out, key);
  out += "\":";
}

}  // namespace

bool enabled() noexcept {
  return enabled_storage().load(std::memory_order_relaxed);
}

void set_enabled(bool on) noexcept {
  enabled_storage().store(on, std::memory_order_relaxed);
}

std::uint64_t HistogramSample::events() const noexcept {
  std::uint64_t acc = 0;
  for (const auto v : buckets) acc += v;
  return acc;
}

std::uint64_t HistogramSample::quantile_upper_bound(double q) const noexcept {
  const std::uint64_t n = events();
  if (n == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // 1-based rank of the quantile observation in sorted order.
  auto rank =
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n)));
  if (rank < 1) rank = 1;
  if (rank > n) rank = n;
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
    cum += buckets[b];
    if (cum >= rank) return Histogram::bucket_upper_bound(b);
  }
  return Histogram::bucket_upper_bound(Histogram::kBuckets - 1);
}

std::uint64_t Snapshot::counter_value(std::string_view name) const noexcept {
  for (const auto& s : counters) {
    if (s.name == name) return s.value;
  }
  return 0;
}

Registry& Registry::global() {
  static Registry& instance = []() -> Registry& {
    static Registry reg;
    auto& cells = hdc::instrument::counters();
    reg.bind_external("hdc_am_row_walks_total", &cells.am_row_walks);
    reg.bind_external("hdc_packed_am_rebuilds_total",
                      &cells.packed_am_rebuilds);
    reg.bind_external("hdc_packed_codebook_builds_total",
                      &cells.packed_codebook_builds);
    reg.bind_external("hdc_codebook_row_rematerializations_total",
                      &cells.codebook_row_rematerializations);
    return reg;
  }();
  return instance;
}

Counter& Registry::counter(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return *slot;
}

void Registry::bind_external(const std::string& name,
                             const std::atomic<std::uint64_t>* cell) {
  const std::lock_guard<std::mutex> lock(mutex_);
  external_[name] = cell;
}

Snapshot Registry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  Snapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, cell] : counters_) {
    snap.counters.push_back({name, cell->value()});
  }
  for (const auto& [name, cell] : external_) {
    snap.counters.push_back({name, cell->load(std::memory_order_relaxed)});
  }
  // Two sorted ranges interleave: restore global name order so exposition
  // output is stable and base-name grouping holds.
  std::sort(snap.counters.begin(), snap.counters.end(),
            [](const Sample& a, const Sample& b) { return a.name < b.name; });
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, cell] : gauges_) {
    snap.gauges.push_back({name, cell->value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, cell] : histograms_) {
    HistogramSample h;
    h.name = name;
    for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
      h.buckets[b] = cell->bucket(b);
    }
    h.sum = cell->sum();
    snap.histograms.push_back(std::move(h));
  }
  return snap;
}

std::string render_prometheus(const Snapshot& snap) {
  std::string out;
  std::string last_base;
  const auto type_line = [&](const std::string& name, const char* kind) {
    const std::string base = name.substr(0, name.find('{'));
    if (base == last_base) return;
    last_base = base;
    out += "# TYPE ";
    out += base;
    out += ' ';
    out += kind;
    out += '\n';
  };
  for (const auto& s : snap.counters) {
    type_line(s.name, "counter");
    out += s.name;
    out += ' ';
    out += std::to_string(s.value);
    out += '\n';
  }
  for (const auto& s : snap.gauges) {
    type_line(s.name, "gauge");
    out += s.name;
    out += ' ';
    out += std::to_string(s.value);
    out += '\n';
  }
  for (const auto& h : snap.histograms) {
    type_line(h.name, "histogram");
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
      if (h.buckets[b] == 0) continue;  // sparse exposition: occupied bounds
      cum += h.buckets[b];
      out += h.name;
      out += "_bucket{le=\"";
      out += std::to_string(Histogram::bucket_upper_bound(b));
      out += "\"} ";
      out += std::to_string(cum);
      out += '\n';
    }
    out += h.name;
    out += "_bucket{le=\"+Inf\"} ";
    out += std::to_string(h.events());
    out += '\n';
    out += h.name;
    out += "_sum ";
    out += std::to_string(h.sum);
    out += '\n';
    out += h.name;
    out += "_count ";
    out += std::to_string(h.events());
    out += '\n';
  }
  return out;
}

std::string render_json(const Snapshot& snap) {
  std::string out = "{";
  append_json_key(out, "counters");
  out += '{';
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    if (i != 0) out += ',';
    append_json_key(out, snap.counters[i].name);
    out += std::to_string(snap.counters[i].value);
  }
  out += "},";
  append_json_key(out, "gauges");
  out += '{';
  for (std::size_t i = 0; i < snap.gauges.size(); ++i) {
    if (i != 0) out += ',';
    append_json_key(out, snap.gauges[i].name);
    out += std::to_string(snap.gauges[i].value);
  }
  out += "},";
  append_json_key(out, "histograms");
  out += '{';
  for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
    const auto& h = snap.histograms[i];
    if (i != 0) out += ',';
    append_json_key(out, h.name);
    out += '{';
    append_json_key(out, "events");
    out += std::to_string(h.events());
    out += ',';
    append_json_key(out, "sum");
    out += std::to_string(h.sum);
    out += ',';
    append_json_key(out, "p50");
    out += std::to_string(h.quantile_upper_bound(0.50));
    out += ',';
    append_json_key(out, "p90");
    out += std::to_string(h.quantile_upper_bound(0.90));
    out += ',';
    append_json_key(out, "p99");
    out += std::to_string(h.quantile_upper_bound(0.99));
    out += ',';
    append_json_key(out, "buckets");
    out += '[';
    for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
      if (b != 0) out += ',';
      out += std::to_string(h.buckets[b]);
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

bool write_text_file(const std::string& path, std::string_view text) noexcept {
  // Write a sibling temp file and rename it over the target. A rename within
  // one directory is atomic, so a reader racing a rewrite (a textfile
  // scraper, a poll loop) sees the old file or the new one, never an empty
  // or short one.
  std::string tmp;
  try {
    tmp = path + ".tmp";
  } catch (...) {
    return false;
  }
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) return false;
  const std::size_t wrote = std::fwrite(text.data(), 1, text.size(), file);
  const int rc = std::fclose(file);
  if (wrote != text.size() || rc != 0 ||
      std::rename(tmp.c_str(), path.c_str()) != 0) {
    (void)std::remove(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace hdtest::obs
