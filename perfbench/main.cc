// phoebe_bench: Phoebe's end-to-end benchmark. One workload per process.
//
//   phoebe_bench --workload NAME --seed N --seconds S --trace 0|1
//                [--out DIR] [--smoke]
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 runs
// the workload again with the metrics registry attached and a span replay of
// each layer, and reports the per-layer metrics instead. The last line of
// stdout is {"correct", "attempted", "failed", "metrics"}; the full report
// (checks, diagnostics) goes to DIR/<workload>.json and stderr, spans of the
// traced run to DIR/<workload>.trace.jsonl. The exit code is nonzero when a
// check fails.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "bench.h"

namespace phoebe::perfbench {
namespace {

struct Workload {
  const char* name;
  void (*run)(const Options&, Report*);
  /// Layer groups the traced run exercises (see kLayerMetrics).
  std::vector<std::string> groups;
};

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> w = {
      {"fleet-recurring", RunFleetRecurring, {"decide", "codec", "setup", "trace", "fleet"}},
      {"fleet-cold", RunFleetCold, {"decide", "codec", "setup", "trace", "fleet"}},
      {"serve-closed", RunServeClosed, {"decide", "codec", "setup", "trace", "serve"}},
      {"serve-concurrent", RunServeConcurrent, {"decide", "codec", "setup", "trace", "serve"}},
      {"lifecycle", RunLifecycle,
       {"decide", "codec", "setup", "trace", "fleet", "lifecycle"}},
  };
  return w;
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "phoebe_bench: %s\nusage: phoebe_bench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--out DIR] [--smoke]\nworkloads:",
               msg);
  for (const Workload& w : Workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

int Run(int argc, char** argv) {
  Options o;
  o.out_dir = "phoebe_bench_out";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      o.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = v;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(v, &end);
      if (!(o.seconds > 0.0)) return Usage("--seconds must be positive");
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        return Usage("--trace takes 0 or 1");
      }
      o.trace = v[0] == '1';
    } else if (flag == "--out") {
      o.out_dir = v;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') return Usage(("bad value for " + flag).c_str());
  }
  const Workload* workload = nullptr;
  for (const Workload& w : Workloads()) {
    if (o.workload == w.name) workload = &w;
  }
  if (workload == nullptr) return Usage(("unknown workload '" + o.workload + "'").c_str());
  std::filesystem::create_directories(o.out_dir);

  Report report;
  workload->run(o, &report);
  if (o.trace) {
    report.Finish(kLayerMetrics, workload->groups);
  } else {
    report.Finish(kEndToEnd, {"e2e"});
  }
  report.Check("ops.attempted", report.attempted >= 1);
  report.Check("ops.none_failed", report.failed == 0);

  const std::string detail = report.DetailJson(o);
  std::ofstream(o.out_dir + "/" + o.workload + (o.trace ? ".trace" : "") + ".json")
      << detail << '\n';
  std::fprintf(stderr, "%s\n", detail.c_str());
  std::printf("%s\n", report.ResultLine().c_str());
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace phoebe::perfbench

int main(int argc, char** argv) { return phoebe::perfbench::Run(argc, argv); }
