#include "ml/ddp.hpp"

#include <algorithm>

#include "common/timer.hpp"
#include "obs/trace.hpp"

namespace artsci::ml {
namespace {

/// Call fn(k, begin, end) for the part [begin, end) of each parameter k
/// that lies in [lo, hi) of the flattened parameter vector.
template <typename Fn>
void forEachSegment(const std::vector<Tensor>& params, std::size_t lo,
                    std::size_t hi, Fn&& fn) {
  std::size_t offset = 0;
  for (std::size_t k = 0; k < params.size() && offset < hi; ++k) {
    const auto n = static_cast<std::size_t>(params[k].numel());
    const std::size_t begin = std::max(lo, offset);
    const std::size_t end = std::min(hi, offset + n);
    if (begin < end) fn(k, begin - offset, end - offset);
    offset += n;
  }
}

}  // namespace

Communicator::Communicator(RankTeam& team)
    : ranks_(team.size()), barrier_(team.barrier()),
      commSeconds_(ranks_, 0.0),
      gradSources_(ranks_, std::vector<const Real*>(ranks_, nullptr)) {}

void Communicator::stepAdam(std::size_t rank, Adam& opt,
                            const std::vector<std::vector<Tensor>>& replicas) {
  ARTSCI_EXPECTS(rank < ranks_ && replicas.size() == ranks_);
  const std::vector<Tensor>& own = replicas[rank];
  ARTSCI_EXPECTS(own.size() == opt.paramCount());
  Timer timer;
  // Step t is read before the publish barrier and counted after it (by
  // rank 0) but before the closing one: no rank reads the count while it
  // changes, and none can run ahead into its next step and read it stale.
  const Adam::Bias bias = opt.bias(opt.stepCount() + 1);
  std::size_t n = 0;
  for (std::size_t k = 0; k < own.size(); ++k) {
    ARTSCI_EXPECTS(opt.param(k).impl() == replicas[0][k].impl());
    own[k].impl()->ensureGrad();
    n += static_cast<std::size_t>(own[k].numel());
  }
  const std::size_t chunk = (n + ranks_ - 1) / ranks_;
  const std::size_t lo = std::min(rank * chunk, n);
  const std::size_t hi = std::min(lo + chunk, n);
  {
    TRACE_SCOPE("train", "reduce_scatter");
    barrier_.arriveAndWait();  // publish: every replica's gradients are final
    if (rank == 0) opt.countStep();
    // Each value sums the ranks in rank order: a fixed order keeps the
    // mean bitwise run-invariant (float addition does not commute under
    // reordering). With one rank the gradient already is the mean.
    if (ranks_ > 1) {
      const Real scale = Real(1) / static_cast<Real>(ranks_);
      std::vector<const Real*>& src = gradSources_[rank];
      forEachSegment(own, lo, hi,
                     [&](std::size_t k, std::size_t begin, std::size_t end) {
                       for (std::size_t r = 0; r < ranks_; ++r)
                         src[r] = replicas[r][k].gradPtr();
                       Real* mean = replicas[0][k].gradPtr();
                       for (std::size_t i = begin; i < end; ++i) {
                         Real sum = Real(0);
                         for (std::size_t r = 0; r < ranks_; ++r)
                           sum += src[r][i];
                         mean[i] = sum * scale;
                       }
                     });
    }
  }
  commSeconds_[rank] += timer.seconds();
  {
    TRACE_SCOPE("train", "optim");
    forEachSegment(own, lo, hi,
                   [&](std::size_t k, std::size_t begin, std::size_t end) {
                     opt.update(k, begin, end, bias);
                   });
  }
  timer.reset();
  {
    TRACE_SCOPE("train", "broadcast");
    forEachSegment(own, lo, hi,
                   [&](std::size_t k, std::size_t begin, std::size_t end) {
                     const Real* w = replicas[0][k].dataPtr();
                     for (std::size_t r = 1; r < ranks_; ++r)
                       std::copy(w + begin, w + end,
                                 replicas[r][k].impl()->dataPtr() + begin);
                   });
    // Closing: no rank reads weights or writes gradients of its next
    // step before every chunk's weights are in every replica.
    barrier_.arriveAndWait();
  }
  commSeconds_[rank] += timer.seconds();
}

double Communicator::communicationSeconds(std::size_t rank) const {
  ARTSCI_EXPECTS(rank < ranks_);
  return commSeconds_[rank];
}

}  // namespace artsci::ml
