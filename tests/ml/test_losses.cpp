#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "gradcheck.hpp"
#include "ml/losses.hpp"

namespace artsci::ml {
namespace {

TEST(MseLoss, ZeroForIdentical) {
  Rng rng(1);
  Tensor a = Tensor::randn({3, 4}, rng);
  EXPECT_NEAR(mseLoss(a, a.detach()).item(), 0.0, 1e-15);
}

TEST(MseLoss, KnownValue) {
  Tensor a = Tensor::fromVector({2}, {1.0, 3.0});
  Tensor b = Tensor::fromVector({2}, {0.0, 1.0});
  EXPECT_DOUBLE_EQ(mseLoss(a, b).item(), (1.0 + 4.0) / 2.0);
}

TEST(MseLoss, ShapeMismatchThrows) {
  EXPECT_THROW(mseLoss(Tensor::zeros({2}), Tensor::zeros({3})),
               ContractError);
}

TEST(KlLoss, ZeroForStandardNormalMoments) {
  // mu = 0, logvar = 0 => KL = 0.
  Tensor mu = Tensor::zeros({4, 8});
  Tensor logvar = Tensor::zeros({4, 8});
  EXPECT_NEAR(klStandardNormal(mu, logvar).item(), 0.0, 1e-15);
}

TEST(KlLoss, PositiveForShiftedMean) {
  Tensor mu = Tensor::full({4, 8}, 1.0);
  Tensor logvar = Tensor::zeros({4, 8});
  EXPECT_NEAR(klStandardNormal(mu, logvar).item(), 0.5, 1e-12);
}

TEST(KlLoss, PenalizesWideAndNarrowVariance) {
  Tensor mu = Tensor::zeros({1, 1});
  Tensor wide = Tensor::full({1, 1}, 2.0);    // var e^2
  Tensor narrow = Tensor::full({1, 1}, -2.0); // var e^-2
  EXPECT_GT(klStandardNormal(mu, wide).item(), 0.0);
  EXPECT_GT(klStandardNormal(mu, narrow).item(), 0.0);
}

TEST(KlLoss, GradCheck) {
  Rng rng(2);
  Tensor mu = Tensor::randn({3, 5}, rng);
  Tensor logvar = Tensor::randn({3, 5}, rng, 0.5);
  auto loss = [](const std::vector<Tensor>& in) {
    return klStandardNormal(in[0], in[1]);
  };
  EXPECT_TRUE(gradCheck(loss, {mu, logvar}).ok);
}

TEST(MmdLoss, NearZeroForSameSample) {
  Rng rng(3);
  Tensor x = Tensor::randn({20, 4}, rng);
  EXPECT_NEAR(mmdInverseMultiquadratic(x, x.detach()).item(), 0.0, 1e-12);
}

TEST(MmdLoss, DetectsMeanShift) {
  Rng rng(4);
  Tensor x = Tensor::randn({64, 4}, rng);
  Tensor ySame = Tensor::randn({64, 4}, rng);
  Tensor yShift = Tensor::randn({64, 4}, rng);
  for (Real& v : yShift.data()) v += 3.0;
  const Real same = mmdInverseMultiquadratic(x, ySame).item();
  const Real shifted = mmdInverseMultiquadratic(x, yShift).item();
  EXPECT_GT(shifted, 5.0 * same);
}

TEST(MmdLoss, DetectsVarianceMismatch) {
  Rng rng(5);
  Tensor x = Tensor::randn({128, 3}, rng, 1.0);
  Tensor yNarrow = Tensor::randn({128, 3}, rng, 0.1);
  Tensor ySame = Tensor::randn({128, 3}, rng, 1.0);
  EXPECT_GT(mmdInverseMultiquadratic(x, yNarrow).item(),
            mmdInverseMultiquadratic(x, ySame).item());
}

TEST(MmdLoss, GradCheck) {
  Rng rng(6);
  Tensor x = Tensor::randn({6, 3}, rng);
  Tensor y = Tensor::randn({8, 3}, rng);
  auto loss = [](const std::vector<Tensor>& in) {
    return mmdInverseMultiquadratic(in[0], in[1]);
  };
  const auto r = gradCheck(loss, {x, y}, 1e-6, 1e-5);
  EXPECT_TRUE(r.ok) << r.maxRelError;
}

TEST(EmdLoss, ZeroForIdenticalClouds) {
  Rng rng(7);
  Tensor a = Tensor::randn({2, 12, 3}, rng);
  EXPECT_NEAR(emdSinkhorn(a, a.detach()).item(), 0.0, 1e-3);
}

TEST(EmdLoss, GrowsWithSeparation) {
  Rng rng(8);
  Tensor a = Tensor::randn({1, 16, 3}, rng, 0.1);
  Tensor bNear = a.detach();
  for (Real& v : bNear.data()) v += 0.5;
  Tensor bFar = a.detach();
  for (Real& v : bFar.data()) v += 2.0;
  EXPECT_GT(emdSinkhorn(a, bFar).item(), emdSinkhorn(a, bNear).item());
}

TEST(EmdLoss, SensitiveToDensityUnlikeChamfer) {
  // The paper's motivation for EMD: Chamfer is insensitive to point
  // density. Two clouds covering the same support but with 90% of mass
  // concentrated at one location are close in CD but far in EMD.
  Tensor a = Tensor::zeros({1, 10, 1});
  for (long i = 0; i < 10; ++i)
    a.data()[static_cast<std::size_t>(i)] = static_cast<Real>(i) / 9.0;
  // b: nine points at 0, one point at 1 — same support {0..1}.
  Tensor b = Tensor::zeros({1, 10, 1});
  b.data()[9] = 1.0;
  const Real cd = chamferDistance(a, b).item();
  const Real emd = emdSinkhorn(a, b).item();
  EXPECT_GT(emd, cd);
}

TEST(EmdLoss, GradientPointsTowardTarget) {
  Rng rng(9);
  Tensor a = Tensor::zeros({1, 4, 2});
  a.setRequiresGrad(true);
  Tensor b = Tensor::full({1, 4, 2}, 1.0);
  emdSinkhorn(a, b).backward();
  // dL/da should be negative (moving a toward b at +1 reduces loss).
  for (Real g : a.grad()) EXPECT_LT(g, 0.0);
}

TEST(TotalLoss, PaperWeights) {
  LossTerms terms;
  terms.chamfer = Tensor::scalar(1.0);
  terms.kl = Tensor::scalar(1.0);
  terms.mse = Tensor::scalar(1.0);
  terms.mmdLatent = Tensor::scalar(1.0);
  terms.mmdPosterior = Tensor::scalar(1.0);
  const Real total = totalLoss(terms, LossWeights{}).item();
  EXPECT_NEAR(total, 1.0 + 0.001 + 0.3 + 40.0 + 0.03, 1e-12);
}

TEST(TotalLoss, GradientReachesAllTerms) {
  Tensor a = Tensor::scalar(2.0, true);
  LossTerms terms;
  terms.chamfer = square(a);
  terms.kl = mulScalar(a, 3.0);
  terms.mse = a;
  terms.mmdLatent = mulScalar(a, 0.5);
  terms.mmdPosterior = square(a);
  totalLoss(terms, LossWeights{}).backward();
  // d/da = 1*(2a) + 0.001*3 + 0.3*1 + 40*0.5 + 0.03*(2a) = 4+0.003+0.3+20+0.12
  EXPECT_NEAR(a.grad()[0], 4.0 + 0.003 + 0.3 + 20.0 + 0.12, 1e-9);
}

}  // namespace
}  // namespace artsci::ml
