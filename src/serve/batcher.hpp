/// \file batcher.hpp
/// Dynamic micro-batching for the inference service: single requests are
/// queued and coalesced into batches — the inference-time sibling of the
/// DDP batch formation in ml/ddp.cpp. Batching is work-conserving: a
/// worker that asks for work gets the head-of-line request plus every
/// compatible request queued behind it, up to max-batch, at once, and
/// waits only while the queue is empty. Batches grow with load by
/// themselves — requests pile up while the worker executes the previous
/// batch — so saturation runs at full batch size, and at light load no
/// request sits in the queue while its worker is idle.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <vector>

#include "ml/tensor.hpp"

namespace artsci::serve {

/// The two service endpoints: forward surrogate (cloud -> spectrum) and
/// inverse problem (spectrum -> posterior point-cloud draw).
enum class Endpoint { kPredictSpectrum, kInvertSpectrum };

/// What a client's future resolves to.
struct InferenceResult {
  /// PredictSpectrum: the spectrum [spectrumDim]. InvertSpectrum: one
  /// posterior point-cloud draw, flattened [points x 6].
  std::vector<ml::Real> values;
  /// Version of the registry snapshot that computed this response; every
  /// response is computed entirely by exactly one snapshot.
  std::uint64_t snapshotVersion = 0;
  /// Size of the micro-batch this request was coalesced into.
  long batchSize = 0;
  /// Time spent queued before its batch started executing.
  double queueMicros = 0;
};

struct BatchPolicy {
  long maxBatch = 32;                ///< at most this many requests per batch
  std::size_t maxQueueDepth = 4096;  ///< enqueue beyond this is rejected
};

/// A queued request. Only same-kind requests can share a batch: the batch
/// key is (endpoint, input element count), so clouds of equal size stack
/// into one [B, N, 6] tensor and spectra into one [B, S].
struct PendingRequest {
  Endpoint endpoint = Endpoint::kPredictSpectrum;
  std::vector<ml::Real> input;
  std::promise<InferenceResult> promise;
  std::chrono::steady_clock::time_point enqueuedAt{};
  /// Client deadline: a request still queued past this instant is swept
  /// out by nextBatch() instead of being batched (max() = no deadline).
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
};

/// Thread-safe FIFO queue with batch-forming pop: any thread may enqueue,
/// one worker pops. Each formed batch preserves the arrival order of its
/// members, and the head-of-line request is always served in the earliest
/// batch (FIFO fairness — a burst on one endpoint cannot starve the other
/// indefinitely, because the queue head defines which batch forms next).
class MicroBatcher {
 public:
  explicit MicroBatcher(BatchPolicy policy);

  /// Queue a request (stamps enqueuedAt). Returns false — leaving `r`
  /// intact so the caller can fail its promise — when the queue is at
  /// maxQueueDepth or the batcher is stopped.
  bool enqueue(PendingRequest& r);

  /// Block until a request is queued, then return the head-of-line
  /// request and every queued request compatible with it (up to
  /// maxBatch), in FIFO order. An empty vector means "stopped and nothing
  /// left to serve": the calling worker should exit.
  ///
  /// Deadline-expired requests are swept out of the queue *before* batch
  /// formation and handed back via `expired` (FIFO order) so the caller
  /// can fail their promises — never executed, never silently dropped.
  /// Passing nullptr asserts that no queued request carries a deadline.
  std::vector<PendingRequest> nextBatch(
      std::vector<PendingRequest>* expired = nullptr);

  /// Stop accepting work: enqueue() fails from now on, and nextBatch()
  /// keeps handing out batches until the queue is empty, then returns
  /// empty (graceful drain — nothing queued is left behind).
  void stop();

  /// Current queue depth (requests not yet batched out).
  std::size_t depth() const;
  /// True once stop() was called.
  bool stopped() const;

 private:
  BatchPolicy policy_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<PendingRequest> queue_;
  bool stopping_ = false;
};

}  // namespace artsci::serve
