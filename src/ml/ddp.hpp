/// \file ddp.hpp
/// Distributed-data-parallel training support, the stand-in for PyTorch DDP
/// with the N/RCCL backend. Ranks are threads; the Communicator implements
/// the collective the training uses: a mean all-reduce that averages the
/// gradients after each backward pass. Each rank computes the MMD loss
/// terms on its local batch, so no all-gather is needed. Collective
/// wall-times are accumulated per rank so the Fig 8 bench can attribute
/// the efficiency deficit to communication.
#pragma once

#include <vector>

#include "common/thread_pool.hpp"
#include "ml/tensor.hpp"

namespace artsci::ml {

class Communicator {
 public:
  explicit Communicator(std::size_t ranks);

  std::size_t ranks() const { return ranks_; }

  /// In-place mean all-reduce across ranks. Every rank must call with a
  /// buffer of identical length. Contributions are combined in rank order,
  /// so the floating-point result is identical from run to run regardless
  /// of thread scheduling (NCCL-style deterministic reduction).
  void allReduceMean(std::size_t rank, std::vector<Real>& buffer);

  void barrier() { barrier_.arriveAndWait(); }

  /// Cumulative seconds each rank spent inside collectives.
  double communicationSeconds(std::size_t rank) const;

  /// Persistent per-rank gradient-flattening buffer for allReduceGradients.
  /// Sized on first use and reused every step afterwards, so the collective
  /// adds no steady-state heap allocations to the training loop.
  std::vector<Real>& gradBucket(std::size_t rank);

 private:
  std::size_t ranks_;
  Barrier barrier_;
  std::vector<const std::vector<Real>*> reduceSlots_;  ///< one per rank
  std::vector<Real> reduceScratch_;  ///< chunk-reduced result staging
  std::size_t reduceLength_ = 0;
  std::vector<double> commSeconds_;
  std::vector<std::vector<Real>> gradBuckets_;  ///< one per rank
};

/// Average the gradients of `params` across all ranks (flattens all grads
/// into one buffer per call, like DDP's gradient buckets).
void allReduceGradients(Communicator& comm, std::size_t rank,
                        const std::vector<Tensor>& params);

}  // namespace artsci::ml
