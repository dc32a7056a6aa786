#include "report.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <thread>

#ifdef _OPENMP
#include <omp.h>
#endif

namespace perfbench {
namespace {

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out + "\"";
}

}  // namespace

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  check(std::isfinite(value), "metric " + name + " is finite");
  metrics_[name] = {std::isfinite(value) ? value : 0.0, unit};
}

void Report::info(const std::string& name, double value) {
  info_[name] = std::isfinite(value) ? value : 0.0;
}

void Report::check(bool ok, const std::string& what) {
  if (ok) {
    ++checksPassed_;
    return;
  }
  ++checksFailed_;
  failures_.push_back(what);
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
}

void Report::setEnv(const std::string& key, const std::string& value) {
  env_[key] = value;
}

std::string Report::resultJson() const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    os << (first ? "" : ", ") << quoted(name) << ": {\"value\": "
       << number(m.value) << ", \"unit\": " << quoted(m.unit) << "}";
    first = false;
  }
  os << "}}";
  return os.str();
}

std::string Report::fullJson() const {
  std::ostringstream os;
  os << "{\"env\": {";
  bool first = true;
  for (const auto& [k, v] : env_) {
    os << (first ? "" : ", ") << quoted(k) << ": " << quoted(v);
    first = false;
  }
  os << "}, \"info\": {";
  first = true;
  for (const auto& [k, v] : info_) {
    os << (first ? "" : ", ") << quoted(k) << ": " << number(v);
    first = false;
  }
  os << "}, \"checks_passed\": " << checksPassed_ << ", \"checks_failed\": [";
  first = true;
  for (const auto& f : failures_) {
    os << (first ? "" : ", ") << quoted(f);
    first = false;
  }
  os << "], \"result\": " << resultJson() << "}";
  return os.str();
}

void Report::printSummary() const {
  std::printf("env:");
  for (const auto& [k, v] : env_) std::printf(" %s=%s", k.c_str(), v.c_str());
  std::printf("\n");
  for (const auto& [name, m] : metrics_)
    std::printf("  %-34s %16.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  for (const auto& [name, v] : info_)
    std::printf("  %-34s %16.6g (ungated)\n", name.c_str(), v);
  std::printf("checks: %ld passed, %ld failed; attempted %ld, failed %ld\n",
              checksPassed_, checksFailed_, attempted, failed);
}

double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

long countAbove(const std::vector<double>& xs, double threshold) {
  return static_cast<long>(std::count_if(
      xs.begin(), xs.end(), [&](double x) { return x > threshold; }));
}

double processCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double errorShare(long attempted, long failed) {
  return (static_cast<double>(failed) + 1.0) /
         (static_cast<double>(attempted) + 2.0);
}

void recordEnvironment(Report& report, const RunOptions& opts) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int allowed = sched_getaffinity(0, sizeof set, &set) == 0
                          ? CPU_COUNT(&set)
                          : static_cast<int>(std::thread::hardware_concurrency());
  report.setEnv("host_cores", std::to_string(allowed));
  report.setEnv("host_hw_threads",
                std::to_string(std::thread::hardware_concurrency()));
#ifdef _OPENMP
  report.setEnv("omp_team", std::to_string(omp_get_max_threads()));
#else
  report.setEnv("omp_team", "0 (built without OpenMP)");
#endif
  std::string isa;
  const auto flag = [&](bool has, const char* name) {
    if (!has) return;
    if (!isa.empty()) isa += ",";
    isa += name;
  };
  __builtin_cpu_init();
  flag(__builtin_cpu_supports("sse4.2"), "sse4.2");
  flag(__builtin_cpu_supports("avx"), "avx");
  flag(__builtin_cpu_supports("avx2"), "avx2");
  flag(__builtin_cpu_supports("fma"), "fma");
  flag(__builtin_cpu_supports("avx512f"), "avx512f");
  report.setEnv("isa", isa.empty() ? "baseline" : isa);
  report.setEnv("workload", opts.workload);
  report.setEnv("seed", std::to_string(opts.seed));
  report.setEnv("seconds", number(opts.seconds));
  report.setEnv("traced", opts.traced ? "1" : "0");
}

}  // namespace perfbench
