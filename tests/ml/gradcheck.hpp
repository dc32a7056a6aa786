/// \file gradcheck.hpp
/// Test-only finite-difference gradient verification, used throughout
/// tests/ml to check every backward formula of the ml ops against central
/// differences.
#pragma once

#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

#include "ml/tensor.hpp"

namespace artsci::ml {

struct GradCheckResult {
  Real maxAbsError = Real(0);
  Real maxRelError = Real(0);
  bool ok = true;
};

/// Verify d(fn)/d(inputs) by central differences.
/// `fn` must build a fresh graph from the inputs and return a scalar.
/// Checks every element when the input has <= `maxElements` entries,
/// otherwise a deterministic stride-sampled subset.
inline GradCheckResult gradCheck(
    const std::function<Tensor(const std::vector<Tensor>&)>& fn,
    std::vector<Tensor> inputs, Real epsilon = Real(1e-5),
    Real tolerance = Real(1e-6), long maxElements = 512) {
  for (auto& in : inputs) in.setRequiresGrad(true);

  // Analytic gradients.
  for (auto& in : inputs) in.zeroGrad();
  Tensor loss = fn(inputs);
  loss.backward();
  std::vector<std::vector<Real>> analytic;
  analytic.reserve(inputs.size());
  for (auto& in : inputs) {
    in.impl()->ensureGrad();
    analytic.push_back(in.grad());
  }

  GradCheckResult result;
  for (std::size_t t = 0; t < inputs.size(); ++t) {
    auto& data = inputs[t].data();
    const long n = static_cast<long>(data.size());
    const long stride = std::max<long>(1, n / maxElements);
    for (long i = 0; i < n; i += stride) {
      const Real saved = data[static_cast<std::size_t>(i)];
      data[static_cast<std::size_t>(i)] = saved + epsilon;
      const Real fPlus = fn(inputs).item();
      data[static_cast<std::size_t>(i)] = saved - epsilon;
      const Real fMinus = fn(inputs).item();
      data[static_cast<std::size_t>(i)] = saved;
      const Real numeric = (fPlus - fMinus) / (Real(2) * epsilon);
      const Real exact = analytic[t][static_cast<std::size_t>(i)];
      const Real absErr = std::abs(numeric - exact);
      const Real denom = std::max({std::abs(numeric), std::abs(exact),
                                   Real(1)});
      const Real relErr = absErr / denom;
      result.maxAbsError = std::max(result.maxAbsError, absErr);
      result.maxRelError = std::max(result.maxRelError, relErr);
    }
  }
  result.ok = result.maxRelError <= tolerance;
  return result;
}

}  // namespace artsci::ml
