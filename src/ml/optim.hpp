/// \file optim.hpp
/// Adam optimizer with parameter groups, matching the paper's settings:
/// beta1 = 0.8, beta2 = 0.9, eps = 1e-6, weight decay 2e-5, base learning
/// rate 1e-6 scaled by the square-root rule [Krizhevsky 2014], and a higher
/// rate (factor m_VAE) for the VAE block than for the INN block.
///
/// All of Adam's arithmetic is one loop over raw arrays (`Adam::update`):
/// step() runs it over every parameter, and the sharded DDP step
/// (ml/ddp.hpp) over one rank's chunk of them. optim.cpp builds with
/// -fno-math-errno so that the loop vectorizes; `sqrt` and `/` round
/// correctly at any vector width, so its bits do not depend on the width.
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

  /// Apply one update from the gradients currently stored on the params
  /// (a param whose gradient was never materialized is left alone).
  void step();

  /// Zero all parameter gradients.
  void zeroGrad();

  Real learningRate(std::size_t group) const;
  long stepCount() const { return t_; }

  /// The parameters in flattened order: group by group, each group's
  /// params in constructor order. packedState() and the sharded DDP step
  /// index them this way.
  std::size_t paramCount() const { return slots_.size(); }
  const Tensor& param(std::size_t k) const;

  /// Step t's bias corrections, 1 - beta1^t and 1 - beta2^t.
  struct Bias {
    Real first;
    Real second;
  };
  Bias bias(long t) const;

  /// Update values [begin, end) of parameter k from its own gradient, with
  /// one step's bias corrections. The step count is left alone (the
  /// caller counts the step with countStep()), so calls on disjoint ranges
  /// may run on several threads at once.
  void update(std::size_t k, std::size_t begin, std::size_t end, Bias bias);
  void countStep() { ++t_; }

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
  struct Slot {
    Tensor param;
    std::size_t group;
    std::vector<Real> m, v;
  };
  std::vector<Real> lrs_;     ///< per group
  std::vector<Slot> slots_;   ///< flattened parameter order
  AdamConfig cfg_;
  long t_ = 0;
};

/// Square-root learning-rate scaling rule: lr = base * sqrt(B / B_base).
Real sqrtScaledLearningRate(Real baseLr, long totalBatch, long baseBatch);

}  // namespace artsci::ml
