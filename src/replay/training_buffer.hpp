/// \file training_buffer.hpp
/// The continual-learning training buffer of §IV-C: experience replay
/// [Chaudhry et al. 2019] adapted to in-transit streaming.
///
/// Two internal buffers:
///  * now-buffer — the N_now = 10 latest streamed samples; new arrivals
///    prepend, displaced samples move into the EP buffer;
///  * EP-buffer — at most N_EP = 20 samples; when full, a randomly chosen
///    element is evicted.
/// A training batch draws n_now = 4 random samples from the now-buffer
/// and n_EP = 4 from the EP buffer (batch 8). The component sits between
/// the streaming receiver and the training loop and is thread-safe, so
/// the receiver can push while trainers sample; n_rep batches are drawn
/// per streamed step.
#pragma once

#include <deque>
#include <mutex>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace artsci::replay {

struct TrainingBufferConfig {
  std::size_t nowCapacity = 10;  ///< N_now
  std::size_t epCapacity = 20;   ///< N_EP
  std::size_t nowPerBatch = 4;   ///< n_now
  std::size_t epPerBatch = 4;    ///< n_EP
};

/// Sample payload is a template parameter; the core module instantiates it
/// with (point cloud, spectrum) training pairs.
template <typename SampleT>
class TrainingBuffer {
 public:
  explicit TrainingBuffer(TrainingBufferConfig cfg, std::uint64_t seed = 99)
      : cfg_(cfg), rng_(seed) {
    ARTSCI_EXPECTS(cfg.nowCapacity >= 1);
    ARTSCI_EXPECTS(cfg.epCapacity >= 1);
    ARTSCI_EXPECTS(cfg.nowPerBatch >= 1);
  }

  /// Receive one streamed sample (prepend to the now-buffer; spill the
  /// displaced sample into the EP buffer with random eviction).
  void push(SampleT sample) {
    TRACE_SCOPE("replay", "push");
    FAULT_POINT("replay.push");
    std::lock_guard<std::mutex> lock(mutex_);
    now_.push_front(std::move(sample));
    ++received_;
    if (now_.size() > cfg_.nowCapacity) {
      SampleT displaced = std::move(now_.back());
      now_.pop_back();
      if (ep_.size() >= cfg_.epCapacity) {
        const std::size_t victim =
            static_cast<std::size_t>(rng_.uniformInt(ep_.size()));
        ep_[victim] = std::move(displaced);
      } else {
        ep_.push_back(std::move(displaced));
      }
    }
    // Resolved once; the registry owns the metrics for the process lifetime.
    static obs::Counter& received =
        obs::Registry::global().counter("replay.received");
    static obs::Gauge& nowSize =
        obs::Registry::global().gauge("replay.now_size");
    static obs::Gauge& epSize =
        obs::Registry::global().gauge("replay.ep_size");
    received.add();
    nowSize.set(static_cast<double>(now_.size()));
    epSize.set(static_cast<double>(ep_.size()));
  }

  /// True once a batch can be drawn. Only the now-buffer gates
  /// readiness: batches are legal as soon as n_now samples have
  /// streamed in, *before* the EP buffer has any content — early
  /// batches then draw from the now-buffer alone and have size n_now,
  /// not n_now + n_EP (the paper's warm-up phase, where replay has
  /// nothing to replay yet). Use epReady() to ask whether batches have
  /// reached the full mixed composition.
  bool ready() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return now_.size() >= cfg_.nowPerBatch;
  }

  /// True once the EP buffer contributes to batches, i.e. at least one
  /// sample has been displaced out of the now-buffer. From this point
  /// every batch has the full n_now + n_EP composition.
  bool epReady() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return !ep_.empty();
  }

  /// Draw a training batch: n_now random now-samples + n_EP random
  /// EP-samples (now-only, size n_now, while the EP buffer is empty —
  /// see ready()/epReady()). The draws use the caller's RNG (one per DDP
  /// rank), so each rank's sample sequence is independent of thread
  /// interleaving; the buffer's own RNG only picks eviction victims.
  std::vector<SampleT> sampleBatch(Rng& rng) {
    std::lock_guard<std::mutex> lock(mutex_);
    TRACE_SCOPE("replay", "sample_batch");
    static obs::Counter& batches =
        obs::Registry::global().counter("replay.batches");
    batches.add();
    ARTSCI_CHECK_MSG(now_.size() >= cfg_.nowPerBatch,
                     "sampleBatch before buffer ready");
    std::vector<SampleT> batch;
    batch.reserve(cfg_.nowPerBatch + cfg_.epPerBatch);
    for (std::size_t i = 0; i < cfg_.nowPerBatch; ++i)
      batch.push_back(
          now_[static_cast<std::size_t>(rng.uniformInt(now_.size()))]);
    if (!ep_.empty()) {
      for (std::size_t i = 0; i < cfg_.epPerBatch; ++i)
        batch.push_back(
            ep_[static_cast<std::size_t>(rng.uniformInt(ep_.size()))]);
    }
    ++batchesSampled_;
    return batch;
  }

  std::size_t nowSize() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return now_.size();
  }
  std::size_t epSize() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return ep_.size();
  }
  std::size_t received() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return received_;
  }
  std::size_t batchesSampled() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return batchesSampled_;
  }
  const TrainingBufferConfig& config() const { return cfg_; }

  /// Complete buffer state for crash-consistent checkpointing: contents
  /// of both internal buffers, the eviction RNG, and the counters. A
  /// restored buffer evolves bit-identically to one that never stopped.
  struct Snapshot {
    std::vector<SampleT> now, ep;
    Rng::State rng{};
    std::size_t received = 0;
    std::size_t batchesSampled = 0;
  };

  Snapshot snapshot() const {
    std::lock_guard<std::mutex> lock(mutex_);
    Snapshot s;
    s.now.assign(now_.begin(), now_.end());
    s.ep = ep_;
    s.rng = rng_.state();
    s.received = received_;
    s.batchesSampled = batchesSampled_;
    return s;
  }

  void restore(const Snapshot& s) {
    std::lock_guard<std::mutex> lock(mutex_);
    now_.assign(s.now.begin(), s.now.end());
    ep_ = s.ep;
    rng_.setState(s.rng);
    received_ = s.received;
    batchesSampled_ = s.batchesSampled;
  }

 private:
  TrainingBufferConfig cfg_;
  mutable std::mutex mutex_;
  std::deque<SampleT> now_;
  std::vector<SampleT> ep_;
  Rng rng_;
  std::size_t received_ = 0;
  std::size_t batchesSampled_ = 0;
};

}  // namespace artsci::replay
