/// \file workloads.hpp
/// The benchmark's workloads. Each fills a Report with its metrics and
/// output checks: with opts.traced false the end-to-end metrics, with
/// opts.traced true the per-layer metrics of the traced run.
#pragma once

#include <cstdint>
#include <string>

#include "report.hpp"

namespace perfbench {

/// `intransit_train` / `intransit_sim`: core::runPipeline end to end.
void runInTransit(const RunOptions& opts, Report& report);

/// `serve_mixed`: serve::NetServer over TCP with a mixed request stream.
void runServeMixed(const RunOptions& opts, Report& report);

/// Record per-layer metric `name` with the unit of the per-layer table
/// (main.cpp). A traced run reports every per-layer metric; main.cpp
/// fills the layers a workload does not run with 0.
void layerMetric(Report& report, const std::string& name, double value);

/// Seed for one consumer of the workload seed (splitmix64 of both), so
/// producer, trainer and request pools draw from unrelated streams.
std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t stream);

}  // namespace perfbench
