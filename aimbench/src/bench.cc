#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "aim/workload/benchmark_schema.h"
#include "aim/workload/rules_generator.h"

namespace aimbench {

double Samples::Quantile(double q) const {
  if (v_.empty()) return 0;
  if (!sorted_) {
    std::sort(v_.begin(), v_.end());
    sorted_ = true;
  }
  const double rank = std::ceil(q * static_cast<double>(v_.size()));
  const std::size_t idx = static_cast<std::size_t>(
      std::clamp(rank - 1.0, 0.0, static_cast<double>(v_.size() - 1)));
  return v_[idx];
}

double Samples::Mean() const {
  return v_.empty() ? 0
                    : std::accumulate(v_.begin(), v_.end(), 0.0) /
                          static_cast<double>(v_.size());
}

Samples Series::All() const {
  Samples s;
  for (double v : v_) s.Add(v);
  return s;
}

std::vector<std::vector<double>> Series::Slices(std::int64_t start_ns,
                                                std::int64_t end_ns,
                                                std::int64_t slice_ns) const {
  const std::int64_t n = std::max<std::int64_t>(
      1, (end_ns - start_ns) / slice_ns);  // whole slices only
  std::vector<std::vector<double>> slices(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < v_.size(); ++i) {
    if (t_[i] < start_ns) continue;
    const std::int64_t k = (t_[i] - start_ns) / slice_ns;
    if (k < n) slices[static_cast<std::size_t>(k)].push_back(v_[i]);
  }
  return slices;
}

std::vector<double> Series::SliceQuantiles(double q, std::int64_t start_ns,
                                           std::int64_t end_ns,
                                           std::int64_t slice_ns,
                                           std::size_t min_n) const {
  std::vector<double> per_slice;
  for (const std::vector<double>& slice :
       Slices(start_ns, end_ns, slice_ns)) {
    if (slice.size() < min_n) continue;
    Samples s;
    for (double v : slice) s.Add(v);
    per_slice.push_back(s.Quantile(q));
  }
  return per_slice;
}

std::vector<double> Series::SliceRates(std::int64_t start_ns,
                                       std::int64_t end_ns,
                                       std::int64_t slice_ns) const {
  std::vector<double> rates;
  for (const std::vector<double>& slice :
       Slices(start_ns, end_ns, slice_ns)) {
    rates.push_back(std::accumulate(slice.begin(), slice.end(), 0.0) /
                    (static_cast<double>(slice_ns) / 1e9));
  }
  return rates;
}

void Tracer::Record(const char* name, std::int64_t start_ns,
                    std::int64_t dur_ns, std::uint64_t id) {
  if (!enabled_) return;
  Aggregate& a = agg_[name];
  ++a.count;
  a.total_ns += static_cast<double>(dur_ns);
  if (spans_.size() < kMaxSpans) {
    spans_.push_back({name, start_ns, dur_ns, id});
  } else {
    ++dropped_;
  }
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"op\": %llu}}%s\n",
                 s.name, static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.dur_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 i + 1 == spans_.size() ? "" : ",");
  }
  std::fprintf(f, "], \"dropped_spans\": %zu}\n", dropped_);
  return std::fclose(f) == 0;
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit, std::uint64_t samples) {
  metrics_.push_back({name, value, unit, samples});
}

void Report::Print(const char* title) const {
  std::printf("--- %s ---\n", title);
  for (const Metric& m : metrics_) {
    if (m.samples > 0) {
      std::printf("  %-36s %14.4f %-10s (n=%llu)\n", m.name.c_str(), m.value,
                  m.unit.c_str(), static_cast<unsigned long long>(m.samples));
    } else {
      std::printf("  %-36s %14.4f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
}

std::string Report::Json() const {
  std::string out = "{";
  char buf[128];
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    out += (i == 0 ? "\"" : ", \"") + JsonEscape(m.name) +
           "\": {\"value\": " + buf + ", \"unit\": \"" + JsonEscape(m.unit) +
           "\"";
    if (m.samples > 0) out += ", \"samples\": " + std::to_string(m.samples);
    out += "}";
  }
  return out + "}";
}

World MakeWorld() {
  World w;
  w.schema = aim::MakeBenchmarkSchema();
  w.dims = aim::MakeBenchmarkDims();
  aim::RulesGeneratorOptions ropts;
  ropts.num_rules = 300;
  w.rules = aim::MakeBenchmarkRules(*w.schema, ropts);
  return w;
}

aim::StorageNode::Options NodeOptions(const std::string& durable_dir) {
  aim::StorageNode::Options o;
  o.num_partitions = 2;
  o.num_esp_threads = 1;
  o.durability.dir = durable_dir;
  // Flush policy of the durable node: an fsync (and the acks it covers)
  // when the ESP thread runs out of queued events, or after 100 ms of
  // continuous appends. With one fsync per ESP wakeup instead, the shared
  // disk's fsync latency set durable ingest (4.2k-14.1k events/s between
  // runs).
  o.durability.group_commit_micros = 100'000;
  return o;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

}  // namespace aimbench
