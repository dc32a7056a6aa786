/// \file ddp.hpp
/// Distributed-data-parallel training support, the stand-in for PyTorch DDP
/// with the N/RCCL backend. Ranks are threads and every replica lives in
/// one address space, so the optimizer step is one collective in the
/// manner of ZeRO stage 1 (Rajbhandari et al., SC'20): each rank averages
/// its contiguous chunk of the flattened gradients, summing the ranks in
/// rank order, applies Adam to that chunk from the one shared optimizer
/// state, and writes the chunk's new weights into every replica. Two
/// arrivals at the rank team's barrier bound it, so a rank that throws
/// anywhere in its iteration releases the peers waiting here
/// (common/thread_pool.hpp). Each rank computes the MMD loss terms on its
/// local batch, so no all-gather is needed. The collective's wall time
/// (reduce and barriers, not Adam) is accumulated per rank so the Fig 8
/// bench can attribute the efficiency deficit to communication.
#pragma once

#include <vector>

#include "common/thread_pool.hpp"
#include "ml/optim.hpp"
#include "ml/tensor.hpp"

namespace artsci::ml {

class Communicator {
 public:
  /// The collective of `team`'s ranks, synchronised on its barrier;
  /// `team` must outlive the communicator.
  explicit Communicator(RankTeam& team);

  std::size_t ranks() const { return ranks_; }

  /// One data-parallel optimizer step; every rank calls it once its
  /// backward pass is done. `replicas[r]` lists replica r's parameters in
  /// `opt`'s flattened order, and `opt` steps replica 0's. For each value
  /// of its rank's chunk the call sums the ranks' gradients in rank order,
  /// scales by 1/ranks into replica 0's gradient, applies `opt`'s update
  /// and copies the new weight into every other replica. Every value thus
  /// gets the same mean gradient and the same arithmetic as an all-reduce
  /// followed by `opt.step()`, and the weights are bit-identical on every
  /// replica when the call returns.
  void stepAdam(std::size_t rank, Adam& opt,
                const std::vector<std::vector<Tensor>>& replicas);

  /// Cumulative seconds each rank spent in the collective's reduction,
  /// weight copies and barriers (Adam's arithmetic excluded).
  double communicationSeconds(std::size_t rank) const;

 private:
  std::size_t ranks_;
  Barrier& barrier_;
  std::vector<double> commSeconds_;
  std::vector<std::vector<const Real*>> gradSources_;  ///< per rank, scratch
};

}  // namespace artsci::ml
