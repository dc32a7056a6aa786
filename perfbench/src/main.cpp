/// artsci_perfbench — one workload of the end-to-end benchmark per process.
///
///   artsci_perfbench --workload <intransit_train|intransit_sim|serve_mixed>
///                    --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
///
/// Prints a summary, then as its last stdout line the result object
/// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
/// untraced, the per-layer metrics traced. The full record (environment,
/// ungated numbers, failed checks) goes to <dir>/result-<workload>.json.
/// Exits 1 when an output check fails, 2 on bad arguments.
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>
#include <sys/stat.h>
#include <utility>
#include <vector>

#include "workloads.hpp"

namespace perfbench {
namespace {

/// Every per-layer metric with its unit (BENCHMARK.json lists the same).
const std::vector<std::pair<std::string, std::string>>& perLayerTable() {
  static const std::vector<std::pair<std::string, std::string>> table = {
      {"pic.busy_s", "s"},
      {"pic.updates_per_s", "1/s"},
      {"radiation.busy_s", "s"},
      {"core.transform_s", "s"},
      {"openpmd.write_s", "s"},
      {"stream.publish_s", "s"},
      {"stream.stall_s", "s"},
      {"core.producer_stall_frac", "fraction"},
      {"stream.bytes", "bytes"},
      {"stream.steps", "count"},
      {"openpmd.read_s", "s"},
      {"core.consumer_idle_frac", "fraction"},
      {"replay.push_s", "s"},
      {"replay.pushes", "count"},
      {"core.train_s", "s"},
      {"core.train_iters", "count"},
      {"core.train_iter_ms", "ms"},
      {"core.train_solo_iter_ms", "ms"},
      {"core.train_colocation_slowdown", "ratio"},
      {"ml.comm_s", "s"},
      {"ml.arena_heap_allocs", "count"},
      {"core.fresh_ms_p50", "ms"},
      {"core.fresh_ms_p90", "ms"},
      {"serve.predict_ms", "ms"},
      {"serve.invert_ms", "ms"},
      {"serve.server_ms", "ms"},
      {"serve.wire_ms", "ms"},
      {"serve.batch_mean_predict", "count"},
      {"serve.batch_mean_invert", "count"},
      {"serve.engine_swaps", "count"},
      {"serve.publishes", "count"},
      {"serve.shed", "count"},
      {"serve.deadline_timeouts", "count"},
      {"serve.rejected", "count"},
      {"bench.trace_overhead", "ratio"},
      {"bench.trace_matches", "bool"},
      {"bench.span_coverage_producer", "fraction"},
      {"bench.span_coverage_consumer", "fraction"},
  };
  return table;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "artsci_perfbench: %s\nusage: artsci_perfbench --workload "
               "<intransit_train|intransit_sim|serve_mixed> --seed <n> "
               "--seconds <s> --trace <0|1> [--out <dir>]\n",
               why);
  return 2;
}

}  // namespace

void layerMetric(Report& report, const std::string& name, double value) {
  for (const auto& [n, unit] : perLayerTable()) {
    if (n != name) continue;
    report.metric(name, value, unit);
    return;
  }
  report.check(false, "unknown per-layer metric " + name);
}

std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions opts;
  bool haveWorkload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + key).c_str());
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        opts.workload = value;
        haveWorkload = true;
      } else if (key == "--seed") {
        opts.seed = std::stoull(value);
      } else if (key == "--seconds") {
        opts.seconds = std::stod(value);
      } else if (key == "--trace") {
        opts.traced = std::stoi(value) != 0;
      } else if (key == "--out") {
        opts.outDir = value;
      } else {
        return usage(("unknown option " + key).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + key).c_str());
    }
  }
  if (!haveWorkload) return usage("--workload is required");
  if (!(opts.seconds > 0)) return usage("--seconds must be positive");
  ::mkdir(opts.outDir.c_str(), 0755);

  Report report;
  recordEnvironment(report, opts);
  try {
    if (opts.workload == "intransit_train" || opts.workload == "intransit_sim")
      runInTransit(opts, report);
    else if (opts.workload == "serve_mixed")
      runServeMixed(opts, report);
    else
      return usage(("unknown workload " + opts.workload).c_str());
  } catch (const std::exception& e) {
    report.check(false, std::string("workload threw: ") + e.what());
  }
  if (opts.traced) {
    // Layers this workload does not run read 0.
    for (const auto& [name, unit] : perLayerTable())
      if (!report.hasMetric(name)) report.metric(name, 0.0, unit);
  }

  report.printSummary();
  const std::string path = opts.outDir + "/result-" + opts.workload +
                           (opts.traced ? "-traced" : "") + ".json";
  std::ofstream(path) << report.fullJson() << "\n";
  std::printf("%s\n", report.resultJson().c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
