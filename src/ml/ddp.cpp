#include "ml/ddp.hpp"

#include "common/timer.hpp"
#include "obs/trace.hpp"

namespace artsci::ml {

Communicator::Communicator(std::size_t ranks)
    : ranks_(ranks), barrier_(ranks), commSeconds_(ranks, 0.0) {
  ARTSCI_EXPECTS(ranks > 0);
  reduceSlots_.resize(ranks, nullptr);
  gradBuckets_.resize(ranks);
}

std::vector<Real>& Communicator::gradBucket(std::size_t rank) {
  ARTSCI_EXPECTS(rank < ranks_);
  return gradBuckets_[rank];
}

void Communicator::allReduceMean(std::size_t rank,
                                 std::vector<Real>& buffer) {
  ARTSCI_EXPECTS(rank < ranks_);
  Timer timer;
  if (ranks_ == 1) {
    commSeconds_[rank] += timer.seconds();
    return;
  }
  // Phase 1: rank 0 records the expected length and sizes the scratch.
  if (rank == 0) {
    reduceLength_ = buffer.size();
    reduceScratch_.resize(buffer.size());
  }
  barrier_.arriveAndWait();
  ARTSCI_CHECK_MSG(buffer.size() == reduceLength_,
                   "allReduceMean length mismatch on rank " << rank);
  // Phase 2: everyone publishes a pointer to its contribution (zero-copy).
  reduceSlots_[rank] = &buffer;
  barrier_.arriveAndWait();
  // Phase 3: each rank reduces its own contiguous index chunk, summing the
  // slots in rank order — a fixed summation order, so the result is
  // bitwise run-invariant (float addition does not commute under
  // reordering), while the O(ranks * N) element reads are split across
  // ranks instead of replicated on each.
  const std::size_t n = buffer.size();
  const std::size_t chunk = (n + ranks_ - 1) / ranks_;
  const std::size_t lo = std::min(rank * chunk, n);
  const std::size_t hi = std::min(lo + chunk, n);
  const Real scale = Real(1) / static_cast<Real>(ranks_);
  for (std::size_t i = lo; i < hi; ++i) {
    Real sum = Real(0);
    for (std::size_t r = 0; r < ranks_; ++r) sum += (*reduceSlots_[r])[i];
    reduceScratch_[i] = sum * scale;
  }
  barrier_.arriveAndWait();
  // Phase 4: slots are no longer read; copy the reduced result out.
  reduceSlots_[rank] = nullptr;
  std::copy(reduceScratch_.begin(),
            reduceScratch_.begin() + static_cast<long>(n), buffer.begin());
  // Final barrier: nobody may resize the scratch (next call's phase 1)
  // while a slower rank is still copying out of it.
  barrier_.arriveAndWait();
  commSeconds_[rank] += timer.seconds();
}

double Communicator::communicationSeconds(std::size_t rank) const {
  ARTSCI_EXPECTS(rank < ranks_);
  return commSeconds_[rank];
}

void allReduceGradients(Communicator& comm, std::size_t rank,
                        const std::vector<Tensor>& params) {
  TRACE_SCOPE("train", "allreduce");
  // Flatten all gradients into one bucket (DDP-style) to amortize the
  // collective's synchronization cost. The bucket lives on the
  // Communicator (one per rank): the fixed parameter list means resize()
  // is a no-op after the first step, so the steady-state training loop
  // crosses the collective without touching the heap.
  std::vector<Real>& bucket = comm.gradBucket(rank);
  std::size_t total = 0;
  for (const auto& p : params) total += static_cast<std::size_t>(p.numel());
  bucket.resize(total);
  std::size_t offset = 0;
  for (const auto& p : params) {
    auto* impl = p.impl();
    impl->ensureGrad();
    const Real* g = impl->gradPtr();
    const long n = p.numel();
    std::copy(g, g + n, bucket.begin() + static_cast<long>(offset));
    offset += static_cast<std::size_t>(n);
  }
  comm.allReduceMean(rank, bucket);
  offset = 0;
  for (const auto& p : params) {
    Real* g = p.impl()->gradPtr();
    const long n = p.numel();
    std::copy(bucket.begin() + static_cast<long>(offset),
              bucket.begin() + static_cast<long>(offset + n), g);
    offset += static_cast<std::size_t>(n);
  }
}

}  // namespace artsci::ml
