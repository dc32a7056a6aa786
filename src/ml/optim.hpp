/// \file optim.hpp
/// Adam optimizer with parameter groups, matching the paper's settings:
/// beta1 = 0.8, beta2 = 0.9, eps = 1e-6, weight decay 2e-5, base learning
/// rate 1e-6 scaled by the square-root rule [Krizhevsky 2014], and a higher
/// rate (factor m_VAE) for the VAE block than for the INN block.
#pragma once

#include <vector>

#include "ml/tensor.hpp"

namespace artsci::ml {

struct AdamConfig {
  Real beta1 = Real(0.8);
  Real beta2 = Real(0.9);
  Real eps = Real(1e-6);
  Real weightDecay = Real(2e-5);
};

/// One learning-rate group (the paper uses two: VAE layers and INN layers).
struct ParamGroup {
  std::vector<Tensor> params;
  Real lr = Real(1e-6);
};

class Adam {
 public:
  Adam(std::vector<ParamGroup> groups, AdamConfig cfg = {});

  /// Apply one update from the gradients currently stored on the params.
  void step();

  /// Zero all parameter gradients.
  void zeroGrad();

  /// Change a group's learning rate (index into the constructor order).
  void setLearningRate(std::size_t group, Real lr);
  Real learningRate(std::size_t group) const;
  long stepCount() const { return t_; }

  /// Flatten the full optimizer state — first/second moments in
  /// group/param order (m then v per param) — for checkpointing. The
  /// layout is an implementation detail shared only with
  /// restorePackedState on an identically-constructed optimizer.
  std::vector<Real> packedState() const;
  /// Inverse of packedState; `t` is the step count the moments belong to.
  /// Throws ContractError when the packed size does not match this
  /// optimizer's parameter layout.
  void restorePackedState(const std::vector<Real>& packed, long t);

 private:
  struct State {
    std::vector<Real> m, v;
  };
  std::vector<ParamGroup> groups_;
  std::vector<std::vector<State>> state_;  ///< [group][param]
  AdamConfig cfg_;
  long t_ = 0;
};

/// Square-root learning-rate scaling rule: lr = base * sqrt(B / B_base).
Real sqrtScaledLearningRate(Real baseLr, long totalBatch, long baseBatch);

}  // namespace artsci::ml
