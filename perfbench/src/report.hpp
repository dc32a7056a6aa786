/// \file report.hpp
/// Result sheet of one benchmark run: named metrics with units, output
/// checks, request accounting, the pinned environment, and the one-line
/// JSON result object printed as the last line of stdout.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Options shared by every workload (parsed by main.cpp).
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
  std::string outDir = ".bench_out";  ///< spans / results / serve model file
};

class Report {
 public:
  /// A metric of the result object (end-to-end or per-layer).
  void metric(const std::string& name, double value, const std::string& unit);
  /// An ungated number: printed and kept in the results file only.
  void info(const std::string& name, double value);
  /// An output check. A failed check makes the run incorrect, prints why,
  /// and makes the process exit non-zero.
  void check(bool ok, const std::string& what);
  void setEnv(const std::string& key, const std::string& value);
  bool hasMetric(const std::string& name) const {
    return metrics_.count(name) > 0;
  }

  long attempted = 0;
  long failed = 0;

  bool correct() const { return checksFailed_ == 0; }
  /// The result object: correct, attempted, failed, metrics.
  std::string resultJson() const;
  /// Everything, for the results file and the human-readable summary.
  std::string fullJson() const;
  void printSummary() const;

 private:
  struct Metric {
    double value;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::map<std::string, double> info_;
  std::map<std::string, std::string> env_;
  std::vector<std::string> failures_;
  long checksPassed_ = 0;
  long checksFailed_ = 0;
};

/// Linear-interpolated percentile (q in [0, 1]); 0 for an empty sample.
double percentile(std::vector<double> xs, double q);
inline double median(std::vector<double> xs) {
  return percentile(std::move(xs), 0.5);
}
/// Percentile q of fn(begin, end) over `windows` consecutive slices of
/// [0, n) whose sizes differ by at most one. A burst of host noise that
/// slows a few slices moves it less than it moves a whole-run figure.
template <class Fn>
double quantileOverWindows(long n, long windows, double q, Fn fn) {
  if (n < windows) return fn(0L, n);
  std::vector<double> values;
  for (long w = 0; w < windows; ++w)
    values.push_back(fn(w * n / windows, (w + 1) * n / windows));
  return percentile(std::move(values), q);
}

/// Where the timed figures are read among their slices: the 90th
/// percentile of slice rates, the 10th percentile of slice latencies. A
/// shared 4-core x86 VM drifts by a quarter in speed within seconds and
/// stalls for milliseconds at a time; like min-of-rounds timing, the best
/// tenth of the slices sees the program with the least of that noise. A
/// change that slows the program slows every slice and still shows.
inline constexpr double kBestTenth = 0.1;

/// Number of samples strictly above `threshold`.
long countAbove(const std::vector<double>& xs, double threshold);

/// Process user+system CPU seconds so far (getrusage).
double processCpuSeconds();
/// Process peak resident set size in MB (2^20 bytes).
double peakRssMb();

/// Failure share with the rule-of-succession estimate (failed + 1) /
/// (attempted + 2). A clean run reads as a small share that is never 0,
/// and one failed operation doubles it.
double errorShare(long attempted, long failed);

/// Host description recorded with every result: cores, ISA flags, the
/// OpenMP team size in effect.
void recordEnvironment(Report& report, const RunOptions& opts);

}  // namespace perfbench
