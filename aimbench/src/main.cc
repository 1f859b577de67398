// aimbench — the AIM end-to-end benchmark binary (see README.md).
//
//   aimbench --workload mixed|analytics|recovery --seed N --seconds S
//            --trace 0|1 [--out-dir DIR] [--tmp-dir DIR] [--git-sha SHA]
//            [--src-digest D] [--inject-mismatch none|calls|oracle|rows]
//
// Prints the run header, the workload's Table-4 readings and its metrics,
// writes the run's JSON (and, traced, a Chrome trace plus a per-layer
// table) under --out-dir, and ends with one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer ones
// (--trace 1). Exits 1 when an output check fails.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench.h"
#include "workloads.h"

using namespace aimbench;

namespace {

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(v);
    } else if (k == "--trace") {
      a->trace = std::atoi(v) != 0;
    } else if (k == "--out-dir") {
      a->out_dir = v;
    } else if (k == "--tmp-dir") {
      a->tmp_dir = v;
    } else if (k == "--git-sha") {
      a->git_sha = v;
    } else if (k == "--src-digest") {
      a->src_digest = v;
    } else if (k == "--inject-mismatch") {
      const std::string m = v;
      if (m == "none") {
        a->inject = Args::Inject::kNone;
      } else if (m == "calls") {
        a->inject = Args::Inject::kCalls;
      } else if (m == "oracle") {
        a->inject = Args::Inject::kOracle;
      } else if (m == "rows") {
        a->inject = Args::Inject::kRows;
      } else {
        std::fprintf(stderr, "unknown --inject-mismatch %s\n", v);
        return false;
      }
    } else {
      std::fprintf(stderr, "unknown flag %s\n", k.c_str());
      return false;
    }
  }
  // Each perturbation targets a check only some workloads make.
  const bool recovery = a->workload == "recovery";
  if ((a->inject == Args::Inject::kOracle && recovery) ||
      (a->inject == Args::Inject::kRows && !recovery)) {
    std::fprintf(stderr, "--inject-mismatch does not apply to %s\n",
                 a->workload.c_str());
    return false;
  }
  return !a->workload.empty() && a->seconds > 0;
}

std::string RunJson(const Args& args, const RunOutput& out) {
  std::string j = "{\n  \"header\": {";
  for (std::size_t i = 0; i < out.header.size(); ++i) {
    j += (i == 0 ? "\"" : ", \"") + JsonEscape(out.header[i].first) +
         "\": \"" + JsonEscape(out.header[i].second) + "\"";
  }
  j += "},\n  \"correct\": " + std::string(out.correct ? "true" : "false");
  j += ",\n  \"why\": \"" + JsonEscape(out.why) + "\"";
  j += ",\n  \"attempted\": " + std::to_string(out.attempted);
  j += ",\n  \"failed\": " + std::to_string(out.failed);
  j += ",\n  \"end_to_end\": " + out.end_to_end.Json();
  j += ",\n  \"kpis\": " + out.kpis.Json();
  j += ",\n  \"slices\": {";
  for (std::size_t i = 0; i < out.slices.size(); ++i) {
    j += (i == 0 ? "\"" : ", \"") + JsonEscape(out.slices[i].first) + "\": [";
    for (std::size_t v = 0; v < out.slices[i].second.size(); ++v) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%s%.9g", v == 0 ? "" : ", ",
                    out.slices[i].second[v]);
      j += buf;
    }
    j += "]";
  }
  j += "}";
  j += ",\n  \"per_layer\": " + out.layers.Json() + "\n}\n";
  return j;
}

void WriteFile(const std::string& path, const std::string& text) {
  if (FILE* f = std::fopen(path.c_str(), "w")) {
    std::fputs(text.c_str(), f);
    std::fclose(f);
  }
}

std::string LayerTable(const RunOutput& out, const Tracer& tracer) {
  std::string t = "# per-layer metrics\n";
  char buf[256];
  for (const Metric& m : out.layers.metrics()) {
    std::snprintf(buf, sizeof(buf), "%-36s %14.4f %-8s n=%llu\n",
                  m.name.c_str(), m.value, m.unit.c_str(),
                  static_cast<unsigned long long>(m.samples));
    t += buf;
  }
  t += "\n# spans (calls into a module from the benchmark's code)\n";
  for (const auto& [name, agg] : tracer.aggregates()) {
    std::snprintf(buf, sizeof(buf), "%-44s calls %9llu  total %10.3f ms  "
                  "mean %10.3f us\n",
                  name.c_str(), static_cast<unsigned long long>(agg.count),
                  agg.total_ns / 1e6,
                  agg.total_ns / 1e3 / static_cast<double>(agg.count));
    t += buf;
  }
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: aimbench --workload mixed|analytics|recovery "
                 "--seed N --seconds S --trace 0|1\n");
    return 2;
  }
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  args.tmp_dir += "/" + std::to_string(::getpid());
  std::filesystem::create_directories(args.out_dir);
  std::filesystem::create_directories(args.tmp_dir);

  Tracer tracer(args.trace);
  RunOutput out;
  if (!RunWorkload(args, &tracer, &out)) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    std::filesystem::remove_all(args.tmp_dir);
    return 2;
  }
  std::filesystem::remove_all(args.tmp_dir);

  std::printf("=== aimbench %s ===\n", args.workload.c_str());
  for (const auto& [k, v] : out.header) {
    std::printf("  %-24s %s\n", k.c_str(), v.c_str());
  }
  out.kpis.Print("Table-4 readings (reference; p99/max ungated)");
  out.end_to_end.Print("end-to-end metrics");
  if (args.trace) out.layers.Print("per-layer metrics (traced run)");
  std::printf("correct: %s%s%s\n", out.correct ? "true" : "false",
              out.why.empty() ? "" : " — ", out.why.c_str());

  const std::string stem = args.out_dir + "/" + args.workload + "_seed" +
                           std::to_string(args.seed) +
                           (args.trace ? "_trace" : "");
  WriteFile(stem + ".json", RunJson(args, out));
  if (args.trace) {
    tracer.WriteChromeTrace(stem + ".chrome_trace.json");
    WriteFile(stem + ".layers.txt", LayerTable(out, tracer));
  }

  const Report& final_metrics = args.trace ? out.layers : out.end_to_end;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              final_metrics.Json().c_str());
  return out.correct ? 0 : 1;
}
