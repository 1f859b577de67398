// Shared pieces of the aimbench binary: arguments, exact-sample statistics,
// the in-memory span tracer, the metric report and the benchmark "world"
// (schema, dimension tables, rules) every workload builds in its set-up.

#ifndef AIMBENCH_BENCH_H_
#define AIMBENCH_BENCH_H_

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "aim/common/clock.h"
#include "aim/esp/rule.h"
#include "aim/schema/schema.h"
#include "aim/server/storage_node.h"
#include "aim/workload/dimension_data.h"

namespace aimbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";
  std::string tmp_dir = ".bench_tmp";
  std::string git_sha = "unknown";
  std::string src_digest = "unknown";
  // Perturbs one expected value of an output check, which must then fail
  // and the run exit non-zero: kCalls one entity's expected call count
  // (every workload), kOracle the oracle's answers (mixed, analytics), kRows
  // one acknowledged pre-crash row (recovery).
  enum class Inject { kNone, kCalls, kOracle, kRows };
  Inject inject = Inject::kNone;
};

/// Exact samples. Quantiles are nearest-rank over the sorted samples, never
/// histogram bucket edges.
class Samples {
 public:
  void Add(double v) {
    v_.push_back(v);
    sorted_ = false;
  }
  std::size_t size() const { return v_.size(); }
  double Quantile(double q) const;
  double Mean() const;

 private:
  mutable std::vector<double> v_;
  mutable bool sorted_ = true;
};

/// Timestamped samples of a timed window. Gated metrics are quantiles over
/// fixed time slices of a per-slice statistic, so a transient stall of the
/// shared host moves a few slices, not the run's figure.
class Series {
 public:
  void Add(std::int64_t t_ns, double v) {
    t_.push_back(t_ns);
    v_.push_back(v);
  }
  std::size_t size() const { return v_.size(); }
  /// Every sample, for exact quantiles over the whole window.
  Samples All() const;
  /// The q-quantile of each slice [start + k*slice, start + (k+1)*slice)
  /// that lies inside [start, end), in time order; slices with fewer than
  /// `min_n` samples are left out.
  std::vector<double> SliceQuantiles(double q, std::int64_t start_ns,
                                     std::int64_t end_ns,
                                     std::int64_t slice_ns,
                                     std::size_t min_n) const;
  /// (Sum of values in the slice) / slice length in seconds, for the same
  /// slices.
  std::vector<double> SliceRates(std::int64_t start_ns, std::int64_t end_ns,
                                 std::int64_t slice_ns) const;

 private:
  std::vector<std::vector<double>> Slices(std::int64_t start_ns,
                                          std::int64_t end_ns,
                                          std::int64_t slice_ns) const;
  std::vector<std::int64_t> t_;
  std::vector<double> v_;
};

/// Spans recorded from the benchmark's own code around calls into a module.
/// Kept in memory (bounded), aggregated per name, written out at the end as
/// a Chrome trace-event file. Disabled tracers record nothing.
class Tracer {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t dur_ns;
    std::uint64_t id;  // operation the span belongs to (0 = none)
  };
  struct Aggregate {
    std::uint64_t count = 0;
    double total_ns = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(kMaxSpans);
  }
  std::int64_t Begin() const { return enabled_ ? aim::MonotonicNanos() : 0; }
  void End(const char* name, std::int64_t start_ns, std::uint64_t id = 0) {
    if (!enabled_) return;
    Record(name, start_ns, aim::MonotonicNanos() - start_ns, id);
  }
  void Record(const char* name, std::int64_t start_ns, std::int64_t dur_ns,
              std::uint64_t id = 0);

  const std::map<std::string, Aggregate>& aggregates() const { return agg_; }
  bool WriteChromeTrace(const std::string& path) const;

 private:
  static constexpr std::size_t kMaxSpans = 1u << 20;
  bool enabled_;
  std::vector<Span> spans_;
  std::map<std::string, Aggregate> agg_;
  std::size_t dropped_ = 0;
};

/// Times one call into a module, from construction to destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, const char* name, std::uint64_t id = 0)
      : t_(t), name_(name), id_(id), start_(t->Begin()) {}
  ~ScopedSpan() { t_->End(name_, start_, id_); }

 private:
  Tracer* t_;
  const char* name_;
  std::uint64_t id_;
  std::int64_t start_;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::uint64_t samples = 0;  // 0 = a single measurement or a ratio
};

/// Named metrics of one run, in insertion order.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           std::uint64_t samples = 0);
  const std::vector<Metric>& metrics() const { return metrics_; }
  void Print(const char* title) const;
  std::string Json() const;

 private:
  std::vector<Metric> metrics_;
};

/// Schema (546 indicators, 10816-byte rows), dimension tables and the 300
/// benchmark rules.
struct World {
  std::unique_ptr<aim::Schema> schema;
  aim::BenchmarkDims dims;
  std::vector<aim::Rule> rules;
};
World MakeWorld();

/// The node configuration of every workload: 2 partitions, 1 ESP thread,
/// every other option at its default but the durable node's group-commit
/// interval (100 ms).
aim::StorageNode::Options NodeOptions(const std::string& durable_dir);

/// Median over a few values (set-up repetitions, recoveries).
double Median(std::vector<double> v);

/// Peak resident set of this process, in MB (ru_maxrss).
double PeakRssMb();

/// Monotonic seconds since an arbitrary origin.
inline double NowSeconds() {
  return static_cast<double>(aim::MonotonicNanos()) / 1e9;
}

std::string JsonEscape(const std::string& s);

}  // namespace aimbench

#endif  // AIMBENCH_BENCH_H_
