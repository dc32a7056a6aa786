#include "ml/optim.hpp"

#include <algorithm>
#include <cmath>

namespace artsci::ml {

namespace {

/// Adam's arithmetic over n values, as the textbook writes it, with
/// classic (coupled) weight decay: g += lambda * w. Every Adam step runs
/// this loop.
void adamLoop(std::size_t n, Real* __restrict w, const Real* __restrict g,
              Real* __restrict m, Real* __restrict v, Real lr,
              const AdamConfig& cfg, Adam::Bias bias) {
  const Real beta1 = cfg.beta1;
  const Real beta2 = cfg.beta2;
  const Real eps = cfg.eps;
  const Real decay = cfg.weightDecay;
  for (std::size_t i = 0; i < n; ++i) {
    const Real gi = g[i] + decay * w[i];
    m[i] = beta1 * m[i] + (Real(1) - beta1) * gi;
    v[i] = beta2 * v[i] + (Real(1) - beta2) * gi * gi;
    const Real mhat = m[i] / bias.first;
    const Real vhat = v[i] / bias.second;
    w[i] -= lr * mhat / (std::sqrt(vhat) + eps);
  }
}

}  // namespace

Adam::Adam(std::vector<ParamGroup> groups, AdamConfig cfg) : cfg_(cfg) {
  for (std::size_t g = 0; g < groups.size(); ++g) {
    lrs_.push_back(groups[g].lr);
    for (auto& p : groups[g].params) {
      const auto n = p.data().size();
      slots_.push_back({p, g, std::vector<Real>(n, Real(0)),
                        std::vector<Real>(n, Real(0))});
    }
  }
}

void Adam::step() {
  const Bias b = bias(++t_);
  for (std::size_t k = 0; k < slots_.size(); ++k) {
    const Tensor& p = slots_[k].param;
    if (p.grad().size() != p.data().size()) continue;  // never touched
    update(k, 0, slots_[k].m.size(), b);
  }
}

Adam::Bias Adam::bias(long t) const {
  return {Real(1) - std::pow(cfg_.beta1, static_cast<Real>(t)),
          Real(1) - std::pow(cfg_.beta2, static_cast<Real>(t))};
}

void Adam::update(std::size_t k, std::size_t begin, std::size_t end,
                  Bias bias) {
  ARTSCI_EXPECTS(k < slots_.size());
  Slot& s = slots_[k];
  ARTSCI_EXPECTS(begin <= end && end <= s.m.size());
  adamLoop(end - begin, s.param.dataPtr() + begin, s.param.gradPtr() + begin,
           s.m.data() + begin, s.v.data() + begin, lrs_[s.group], cfg_,
           bias);
}

const Tensor& Adam::param(std::size_t k) const {
  ARTSCI_EXPECTS(k < slots_.size());
  return slots_[k].param;
}

void Adam::zeroGrad() {
  for (auto& s : slots_) s.param.zeroGrad();
}

std::vector<Real> Adam::packedState() const {
  std::vector<Real> packed;
  for (const auto& s : slots_) {
    packed.insert(packed.end(), s.m.begin(), s.m.end());
    packed.insert(packed.end(), s.v.begin(), s.v.end());
  }
  return packed;
}

void Adam::restorePackedState(const std::vector<Real>& packed, long t) {
  ARTSCI_EXPECTS(t >= 0);
  std::size_t need = 0;
  for (const auto& s : slots_) need += s.m.size() + s.v.size();
  ARTSCI_CHECK_MSG(packed.size() == need,
                   "packed Adam state has " << packed.size()
                                            << " values, optimizer needs "
                                            << need);
  auto src = packed.begin();
  for (auto& s : slots_) {
    std::copy(src, src + static_cast<long>(s.m.size()), s.m.begin());
    src += static_cast<long>(s.m.size());
    std::copy(src, src + static_cast<long>(s.v.size()), s.v.begin());
    src += static_cast<long>(s.v.size());
  }
  t_ = t;
}

Real Adam::learningRate(std::size_t group) const {
  ARTSCI_EXPECTS(group < lrs_.size());
  return lrs_[group];
}

Real sqrtScaledLearningRate(Real baseLr, long totalBatch, long baseBatch) {
  ARTSCI_EXPECTS(totalBatch > 0 && baseBatch > 0);
  return baseLr * std::sqrt(static_cast<Real>(totalBatch) /
                            static_cast<Real>(baseBatch));
}

}  // namespace artsci::ml
