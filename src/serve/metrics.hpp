/// \file metrics.hpp
/// Per-endpoint serving metrics: request accounting (submitted / completed
/// / rejected), batch-formation efficiency, and tail latency via
/// stats::LatencySummary over a sliding window of recent requests.
///
/// Counts live in a per-instance obs::Registry ("serve.predict.submitted",
/// "serve.invert.rejected", ..., "serve.engine_swaps",
/// "serve.worker_restarts", histograms "serve.<endpoint>.latency_us") —
/// the record path is the registry's lock-free sharded counters, so
/// workers never contend with a report() in flight. Queue depth is not a
/// registry gauge: each server reads it from its own batcher in
/// report(), and NetServer::metrics() sums it over shards. The registry
/// is instance-owned, not global: benches build several servers in
/// sequence and each server's report must start from zero. Only the
/// exact-percentile latency window keeps a mutex (a ring of raw samples
/// has no lock-free aggregation).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "obs/metrics.hpp"
#include "serve/batcher.hpp"

namespace artsci::serve {

class ServeMetrics {
 public:
  /// `latencyWindow` bounds the per-endpoint latency sample (ring buffer):
  /// percentiles describe the most recent window, and a long-running
  /// server's metrics stay O(window) in memory.
  explicit ServeMetrics(std::size_t latencyWindow = 1 << 16);

  void recordSubmitted(Endpoint e);
  void recordRejected(Endpoint e);
  /// Admission control dropped the request (queue at capacity, or the
  /// deadline was already expired on arrival) — never entered the queue.
  void recordShed(Endpoint e);
  /// The request's deadline expired while it sat in the queue; it was
  /// swept out before batching and its promise failed.
  void recordDeadlineTimeout(Endpoint e);
  /// One executed micro-batch: its size and the submit-to-completion
  /// latency (microseconds) of each member.
  void recordBatch(Endpoint e, std::size_t batchSize,
                   const std::vector<double>& latenciesMicros);
  /// A worker (re)built its execution engine against a new snapshot
  /// (counts the initial build too).
  void recordEngineSwap();
  /// A worker crashed mid-batch and restarted in place.
  void recordWorkerRestart();

  struct EndpointStats {
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t rejected = 0;
    std::uint64_t shed = 0;              ///< dropped by admission control
    std::uint64_t deadlineTimeouts = 0;  ///< expired while queued
    std::uint64_t batches = 0;
    double meanBatchSize = 0;  ///< completed / batches
    stats::LatencySummary latencyMicros;  ///< over the sliding window
  };

  struct Report {
    EndpointStats predict;
    EndpointStats invert;
    std::uint64_t engineSwaps = 0;
    std::uint64_t workerRestarts = 0;
    std::size_t queueDepth = 0;  ///< filled in by the server
  };

  Report report() const;

  /// The backing registry (JSON export, step reports). Counters are
  /// cumulative totals; the latency histograms are the coarse power-of-2
  /// registry view — exact window percentiles come from report().
  const obs::Registry& registry() const { return *registry_; }
  /// Mutable registry access so co-located subsystems (the TCP front end's
  /// connection/frame counters) share one metrics namespace and JSON dump.
  obs::Registry& registry() { return *registry_; }

  /// Registry snapshot as JSON — every serve.* counter ("serve.predict.
  /// shed", "serve.invert.deadline_timeouts", ...) and histogram, plus the
  /// net.* metrics a NetServer registers in the same registry.
  std::string toJson() const { return registry_->toJson(); }

 private:
  struct PerEndpoint {
    obs::Counter* submitted = nullptr;
    obs::Counter* completed = nullptr;
    obs::Counter* rejected = nullptr;
    obs::Counter* shed = nullptr;
    obs::Counter* deadlineTimeouts = nullptr;
    obs::Counter* batches = nullptr;
    obs::Histogram* latencyUs = nullptr;
    std::vector<double> window;  ///< latency ring buffer (mutex_)
    std::size_t next = 0;
  };

  void bind(PerEndpoint& p, const std::string& prefix);
  PerEndpoint& slot(Endpoint e) {
    return e == Endpoint::kPredictSpectrum ? predict_ : invert_;
  }
  EndpointStats summarize(const PerEndpoint& p) const;

  std::unique_ptr<obs::Registry> registry_;
  obs::Counter* engineSwaps_ = nullptr;
  obs::Counter* workerRestarts_ = nullptr;
  mutable std::mutex mutex_;  ///< guards the latency windows only
  std::size_t window_;
  PerEndpoint predict_, invert_;
};

}  // namespace artsci::serve
