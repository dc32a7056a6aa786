/// \file server.hpp
/// The asynchronous surrogate-inference service. Clients submit single
/// requests and get std::future results; a MicroBatcher coalesces queued
/// requests into dynamic micro-batches that worker threads (a ThreadPool)
/// execute against the current ModelRegistry snapshot — read once per
/// batch, so every response is computed entirely by exactly one snapshot
/// even while a trainer hot-swaps weights under load.
#pragma once

#include <atomic>
#include <future>
#include <memory>
#include <vector>

#include "common/thread_pool.hpp"
#include "serve/batcher.hpp"
#include "serve/engine.hpp"
#include "serve/metrics.hpp"
#include "serve/registry.hpp"

namespace artsci::serve {

/// Admission control dropped the request before it entered the queue
/// (queue at capacity, or the deadline was already expired on submit).
class ShedError : public RuntimeError {
 public:
  using RuntimeError::RuntimeError;
};

/// The request's deadline expired while it waited in the queue; it was
/// swept out before batching and never executed.
class DeadlineError : public RuntimeError {
 public:
  using RuntimeError::RuntimeError;
};

/// The server is shutting down (or already shut down); the request was
/// not executed.
class ShutdownError : public RuntimeError {
 public:
  using RuntimeError::RuntimeError;
};

struct ServerConfig {
  BatchPolicy policy;
  std::size_t workers = 1;   ///< inference worker threads
  std::uint64_t seed = 0xced5ULL;  ///< base seed for posterior-draw RNGs
  /// Pin worker w to CPU slot (pinCoreBase + w) of the process's allowed
  /// set (common/thread_pool.hpp::pinThisThreadToCpuSlot). -1 = no pinning.
  /// The TCP front end (net_server.hpp) uses this to give each shard's
  /// worker its own core.
  int pinCoreBase = -1;
  /// Record into this ServeMetrics instead of a private one — the sharded
  /// front end aggregates all workers into a single metrics namespace.
  /// The registry record path is lock-free, so sharing does not contend.
  std::shared_ptr<ServeMetrics> metrics;
};

class InferenceServer {
 public:
  /// The registry may be empty at construction; requests submitted before
  /// the first publish fail with "no model published".
  InferenceServer(ServerConfig cfg, std::shared_ptr<ModelRegistry> registry);
  ~InferenceServer();  ///< drains gracefully if shutdown() was not called

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Forward surrogate: cloud flattened [points x 6] -> spectrum future.
  /// `deadlineMicros` > 0 arms deadline-based load shedding: a request
  /// still queued that long after submit fails with DeadlineError instead
  /// of being batched (0 = no deadline; the future always resolves either
  /// way — sheds and timeouts surface as exceptions, never silence).
  std::future<InferenceResult> predictSpectrum(std::vector<ml::Real> cloud,
                                               std::uint64_t deadlineMicros = 0);

  /// Inverse problem: spectrum [spectrumDim] -> one posterior point-cloud
  /// draw (fresh N ~ N(0,1) per request, worker-local RNG). Deadline
  /// semantics as predictSpectrum.
  std::future<InferenceResult> invertSpectrum(std::vector<ml::Real> spectrum,
                                              std::uint64_t deadlineMicros = 0);

  enum class ShutdownMode {
    kDrain,   ///< stop accepting, execute everything already queued
    kReject,  ///< stop accepting, fail everything still queued
  };

  /// Idempotent; returns once all workers have exited and (kReject) every
  /// pending promise has been failed. Futures already handed out always
  /// resolve — with a value or an exception, never dangling.
  void shutdown(ShutdownMode mode = ShutdownMode::kDrain);

  /// Outstanding load: requests still queued plus requests in a batch a
  /// worker is currently executing. Counting in-flight work matters for
  /// least-loaded dispatch — a shard digesting a long batch has an empty
  /// queue but is NOT idle, and routing by queue alone would pile short
  /// requests behind it. Lock-bounded O(1); the sharded front end polls
  /// this per dispatch to route each request to the shallowest shard.
  std::size_t queueDepth() const {
    return batcher_.depth() + inFlight_.load(std::memory_order_relaxed);
  }

  /// False once a worker crashed (FAULT_POINT("serve.worker_batch") peer
  /// death). An unhealthy server keeps its exactly-one-reply contract —
  /// the crashed worker's batch is failed with typed errors, later
  /// submits are rejected — but executes nothing new; the sharded front
  /// end routes around it and its supervisor replaces it.
  bool healthy() const { return healthy_.load(std::memory_order_acquire); }

  /// Metrics snapshot (includes current queue depth).
  ServeMetrics::Report metrics() const;
  /// The (possibly shared) metrics sink this server records into.
  const std::shared_ptr<ServeMetrics>& metricsSink() const { return metrics_; }

  const ServerConfig& config() const { return cfg_; }

 private:
  std::future<InferenceResult> submit(Endpoint endpoint,
                                      std::vector<ml::Real> input,
                                      std::uint64_t deadlineMicros);
  void workerLoop(std::size_t workerIndex);
  void runPredictBatch(std::vector<PendingRequest>& batch,
                       const ModelSnapshot& snap, InferenceEngine& engine);
  void runInvertBatch(std::vector<PendingRequest>& batch,
                      const ModelSnapshot& snap, Rng& rng);
  void finishBatch(std::vector<PendingRequest>& batch,
                   std::vector<std::vector<ml::Real>> values,
                   const ModelSnapshot& snap,
                   std::chrono::steady_clock::time_point started);

  ServerConfig cfg_;
  std::shared_ptr<ModelRegistry> registry_;
  MicroBatcher batcher_;
  std::shared_ptr<ServeMetrics> metrics_;
  std::atomic<bool> accepting_{true};
  std::atomic<bool> shutdownDone_{false};
  std::atomic<bool> healthy_{true};
  /// Requests popped from the queue whose batch is still executing.
  std::atomic<std::size_t> inFlight_{0};
  // Declared last: destroyed first, after shutdown() joined the loops.
  ThreadPool pool_;
  std::vector<std::future<void>> workerDone_;
};

}  // namespace artsci::serve
