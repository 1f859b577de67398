// The three workloads: `mixed`, `analytics` and `recovery` (README.md says
// why each exists and what it measures).

#ifndef AIMBENCH_WORKLOADS_H_
#define AIMBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"

namespace aimbench {

struct RunOutput {
  bool correct = false;
  std::string why;  // first failed check
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Report end_to_end;  // the gated metrics (every workload, every run)
  Report kpis;        // the workload's Table-4 readings, for reference
  Report layers;      // traced runs only
  std::vector<std::pair<std::string, std::string>> header;  // run facts
  // Per-slice figures behind the gated rates and latencies, in time order.
  std::vector<std::pair<std::string, std::vector<double>>> slices;
};

/// Runs `args.workload`; returns false for an unknown workload name.
bool RunWorkload(const Args& args, Tracer* tracer, RunOutput* out);

}  // namespace aimbench

#endif  // AIMBENCH_WORKLOADS_H_
