/// \file server.hpp
/// The asynchronous surrogate-inference service. Clients submit single
/// requests and get std::future results; a MicroBatcher coalesces queued
/// requests into dynamic micro-batches that one worker thread executes
/// against the current ModelRegistry snapshot — read once per batch, so
/// every response is computed entirely by exactly one snapshot even while
/// a trainer hot-swaps weights under load. A worker that crashes mid-batch
/// (FAULT_POINT("serve.worker_batch")) fails that batch and restarts in
/// place; the queue behind it is served.
#pragma once

#include <atomic>
#include <future>
#include <memory>
#include <thread>
#include <vector>

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
  std::uint64_t seed = 0xced5ULL;  ///< base seed for posterior-draw RNGs
  /// Record into this ServeMetrics instead of a private one — the sharded
  /// front end aggregates all shards into a single metrics namespace.
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

  /// Stop accepting (later submits fail with ShutdownError), execute
  /// everything already queued, and join the worker. Idempotent. Futures
  /// already handed out always resolve — with a value or an exception,
  /// never dangling.
  void shutdown();

  /// Outstanding load: requests still queued plus requests in a batch the
  /// worker is currently executing. Counting in-flight work matters for
  /// least-loaded dispatch — a shard digesting a long batch has an empty
  /// queue but is NOT idle, and routing by queue alone would pile short
  /// requests behind it. Lock-bounded O(1); the sharded front end polls
  /// this per dispatch to route each request to the shallowest shard.
  std::size_t queueDepth() const {
    return batcher_.depth() + inFlight_.load(std::memory_order_relaxed);
  }

  /// Metrics snapshot (includes current queue depth).
  ServeMetrics::Report metrics() const;

 private:
  std::future<InferenceResult> submit(Endpoint endpoint,
                                      std::vector<ml::Real> input,
                                      std::uint64_t deadlineMicros);
  void workerLoop();
  void runPredictBatch(std::vector<PendingRequest>& batch,
                       const ModelSnapshot& snap, InferenceEngine& engine);
  void runInvertBatch(std::vector<PendingRequest>& batch,
                      const ModelSnapshot& snap, Rng& rng);
  /// Fail every request of a batch that did not complete (one typed
  /// error reply each), after taking the batch off queueDepth().
  void failBatch(std::vector<PendingRequest>& batch,
                 const std::exception_ptr& err);
  void finishBatch(std::vector<PendingRequest>& batch,
                   std::vector<std::vector<ml::Real>> values,
                   const ModelSnapshot& snap,
                   std::chrono::steady_clock::time_point started);

  ServerConfig cfg_;
  std::shared_ptr<ModelRegistry> registry_;
  MicroBatcher batcher_;
  std::shared_ptr<ServeMetrics> metrics_;
  std::atomic<bool> shutdownDone_{false};
  /// Requests popped from the queue whose batch is still executing.
  std::atomic<std::size_t> inFlight_{0};
  std::thread worker_;  ///< last: its loop uses every member above
};

}  // namespace artsci::serve
