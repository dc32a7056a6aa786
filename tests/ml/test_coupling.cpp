#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "gradcheck.hpp"
#include "ml/coupling.hpp"

namespace artsci::ml {
namespace {

Real maxAbsDiff(const Tensor& a, const Tensor& b) {
  Real m = 0;
  for (std::size_t i = 0; i < a.data().size(); ++i)
    m = std::max(m, std::abs(a.data()[i] - b.data()[i]));
  return m;
}

TEST(GlowCoupling, ForwardInverseIsIdentity) {
  Rng rng(1);
  GlowCouplingBlock block(8, {16, 16}, rng);
  Tensor x = Tensor::randn({5, 8}, rng);
  Tensor y = block.forward(x);
  Tensor back = block.inverse(y);
  EXPECT_LT(maxAbsDiff(x, back), 1e-10);
}

TEST(GlowCoupling, InverseForwardIsIdentity) {
  Rng rng(2);
  GlowCouplingBlock block(6, {12}, rng);
  Tensor y = Tensor::randn({3, 6}, rng);
  Tensor x = block.inverse(y);
  Tensor again = block.forward(x);
  EXPECT_LT(maxAbsDiff(y, again), 1e-10);
}

TEST(GlowCoupling, OddWidthRejected) {
  Rng rng(5);
  EXPECT_THROW(GlowCouplingBlock(7, {8}, rng), ContractError);
}

TEST(GlowCoupling, GradCheckThroughForward) {
  Rng rng(6);
  GlowCouplingBlock block(4, {8}, rng);
  Tensor x = Tensor::randn({3, 4}, rng);
  auto loss = [&](const std::vector<Tensor>& in) {
    return sumAll(square(block.forward(in[0])));
  };
  EXPECT_TRUE(gradCheck(loss, {x}).ok);
}

TEST(GlowCoupling, GradCheckThroughInverse) {
  Rng rng(7);
  GlowCouplingBlock block(4, {8}, rng);
  Tensor y = Tensor::randn({3, 4}, rng);
  auto loss = [&](const std::vector<Tensor>& in) {
    return sumAll(square(block.inverse(in[0])));
  };
  EXPECT_TRUE(gradCheck(loss, {y}).ok);
}

TEST(FeaturePermutationTest, RoundTrip) {
  Rng rng(8);
  FeaturePermutation perm(10, rng);
  Tensor x = Tensor::randn({4, 10}, rng);
  EXPECT_LT(maxAbsDiff(x, perm.inverse(perm.forward(x))), 1e-15);
}

class InnInvertibility : public ::testing::TestWithParam<int> {};

TEST_P(InnInvertibility, RoundTripAcrossDepths) {
  Rng rng(9 + static_cast<std::uint64_t>(GetParam()));
  Inn::Config cfg;
  cfg.dim = 16;
  cfg.blocks = GetParam();
  cfg.hidden = {24, 20};
  Inn inn(cfg, rng);
  Tensor x = Tensor::randn({6, 16}, rng);
  Tensor y = inn.forward(x);
  Tensor back = inn.inverse(y);
  // The round-trip error grows with depth (each block multiplies by
  // exp(±s), s soft-clamped to ±2) and depends on the random weight draw;
  // 1e-8 leaves seed-independent headroom while still proving exactness.
  EXPECT_LT(maxAbsDiff(x, back), 1e-8) << "blocks=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Depths, InnInvertibility,
                         ::testing::Values(1, 2, 4, 8));

TEST(Inn, PaperConfigConstructsAndInverts) {
  // Paper: dim 544, 4 blocks, subnet hidden {272, 256}.
  Rng rng(10);
  Inn inn(Inn::Config{}, rng);
  Tensor x = Tensor::randn({2, 544}, rng);
  Tensor y = inn.forward(x);
  EXPECT_EQ(y.shape(), (Shape{2, 544}));
  EXPECT_LT(maxAbsDiff(x, inn.inverse(y)), 1e-8);
}

TEST(Inn, OutputDiffersFromInput) {
  Rng rng(11);
  Inn::Config cfg;
  cfg.dim = 8;
  cfg.blocks = 2;
  cfg.hidden = {16};
  Inn inn(cfg, rng);
  Tensor x = Tensor::randn({3, 8}, rng);
  EXPECT_GT(maxAbsDiff(x, inn.forward(x)), 1e-4);
}

TEST(Inn, VolumeBoundedByClamp) {
  // Soft clamp bounds each coupling's log-scale by +-clamp, so outputs
  // can't explode: |y| <= |x| * exp(blocks * 2 * clamp) + shifts.
  Rng rng(12);
  Inn::Config cfg;
  cfg.dim = 8;
  cfg.blocks = 4;
  cfg.hidden = {16};
  cfg.clamp = 1.0;
  Inn inn(cfg, rng);
  Tensor x = Tensor::randn({8, 8}, rng);
  Tensor y = inn.forward(x);
  for (Real v : y.data()) EXPECT_TRUE(std::isfinite(v));
}

TEST(Inn, GradientFlowsInBothDirections) {
  Rng rng(13);
  Inn::Config cfg;
  cfg.dim = 8;
  cfg.blocks = 2;
  cfg.hidden = {12};
  Inn inn(cfg, rng);

  Tensor x = Tensor::randn({2, 8}, rng);
  x.setRequiresGrad(true);
  sumAll(square(inn.forward(x))).backward();
  Real gx = 0;
  for (Real g : x.grad()) gx += g * g;
  EXPECT_GT(gx, 0.0);

  Tensor y = Tensor::randn({2, 8}, rng);
  y.setRequiresGrad(true);
  sumAll(square(inn.inverse(y))).backward();
  Real gy = 0;
  for (Real g : y.grad()) gy += g * g;
  EXPECT_GT(gy, 0.0);
}

}  // namespace
}  // namespace artsci::ml
