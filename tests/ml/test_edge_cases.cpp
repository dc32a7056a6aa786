/// Edge cases and failure injection for the ML substrate: shape-error
/// contracts, degenerate sizes, and numerical boundary behaviour.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "ml/coupling.hpp"
#include "ml/layers.hpp"
#include "ml/losses.hpp"
#include "ml/ops.hpp"
#include "ml/optim.hpp"

namespace artsci::ml {
namespace {

TEST(OpsEdge, CatShapeMismatchThrows) {
  Tensor a = Tensor::zeros({2, 3});
  Tensor b = Tensor::zeros({3, 3});
  EXPECT_THROW(cat({a, b}, 1), ContractError);  // axis-0 sizes differ
}

TEST(OpsEdge, CatEmptyListThrows) {
  EXPECT_THROW(cat({}, 0), ContractError);
}

TEST(OpsEdge, CatThreeParts) {
  Tensor a = Tensor::fromVector({1, 1}, {1});
  Tensor b = Tensor::fromVector({1, 2}, {2, 3});
  Tensor c = Tensor::fromVector({1, 1}, {4});
  EXPECT_EQ(cat({a, b, c}, -1).data(), (std::vector<Real>{1, 2, 3, 4}));
}

TEST(OpsEdge, SliceInvalidRangeThrows) {
  Tensor a = Tensor::zeros({4});
  EXPECT_THROW(slice(a, 0, 2, 2), ContractError);   // empty
  EXPECT_THROW(slice(a, 0, 0, 5), ContractError);   // past end
  EXPECT_THROW(slice(a, 0, -1, 2), ContractError);  // negative
}

TEST(OpsEdge, SliceFullRangeIsIdentity) {
  Rng rng(1);
  Tensor a = Tensor::randn({3, 4}, rng);
  EXPECT_EQ(slice(a, -1, 0, 4).toVector(), a.data());
}

TEST(OpsEdge, PermuteLastWrongSizeThrows) {
  Tensor a = Tensor::zeros({2, 4});
  EXPECT_THROW(permuteLast(a, {0, 1, 2}), ContractError);
}

TEST(OpsEdge, SingleElementTensorOps) {
  Tensor a = Tensor::scalar(2.0, true);
  Tensor out = sumAll(mul(a, a));
  out.backward();
  EXPECT_DOUBLE_EQ(out.item(), 4.0);
  EXPECT_DOUBLE_EQ(a.grad()[0], 4.0);
}

TEST(OpsEdge, MaxAxisSingleEntryAxis) {
  Tensor a = Tensor::fromVector({2, 1, 3}, {1, 2, 3, 4, 5, 6});
  Tensor m = maxAxis(a, 1);
  EXPECT_EQ(m.data(), a.data());
}

TEST(OpsEdge, MaxAxisKeepdimShape) {
  Tensor a = Tensor::zeros({2, 5, 3});
  EXPECT_EQ(maxAxis(a, 1, true).shape(), (Shape{2, 1, 3}));
  EXPECT_EQ(maxAxis(a, 1, false).shape(), (Shape{2, 3}));
}

TEST(OpsEdge, SumAxisReducesToScalarShape) {
  Tensor a = Tensor::fromVector({3}, {1, 2, 3});
  Tensor s = sumAxis(a, 0);
  EXPECT_EQ(s.shape(), (Shape{1}));
  EXPECT_DOUBLE_EQ(s.item(), 6.0);
}

TEST(OpsEdge, DivByZeroProducesInf) {
  Tensor a = Tensor::scalar(1.0);
  Tensor b = Tensor::scalar(0.0);
  EXPECT_TRUE(std::isinf(div(a, b).item()));
}

TEST(OpsEdge, ChamferSinglePointClouds) {
  Tensor a = Tensor::fromVector({1, 1, 2}, {0, 0});
  Tensor b = Tensor::fromVector({1, 1, 2}, {3, 4});
  EXPECT_DOUBLE_EQ(chamferDistance(a, b).item(), 50.0);  // 25 + 25
}

TEST(OpsEdge, ChamferAsymmetricCloudSizes) {
  Rng rng(2);
  Tensor a = Tensor::randn({2, 30, 6}, rng);
  Tensor b = Tensor::randn({2, 7, 6}, rng);
  EXPECT_GT(chamferDistance(a, b).item(), 0.0);
}

TEST(OpsEdge, BroadcastScalarAgainstMatrix) {
  Tensor a = Tensor::fromVector({1}, {10});
  Tensor b = Tensor::fromVector({2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(add(a, b).data(), (std::vector<Real>{11, 12, 13, 14}));
}

TEST(LayersEdge, MlpNeedsAtLeastTwoDims) {
  Rng rng(3);
  EXPECT_THROW(Mlp({5}, rng), ContractError);
}

TEST(LayersEdge, VoxelDecoderSingleStage) {
  Rng rng(4);
  VoxelDecoder::Config cfg;
  cfg.latentDim = 4;
  cfg.baseGrid = 1;
  cfg.channels = {4, 2};
  VoxelDecoder dec(cfg, rng);
  EXPECT_EQ(dec.pointCount(), 8);  // 1^3 -> 2^3
  EXPECT_EQ(dec.forward(Tensor::randn({1, 4}, rng)).shape(),
            (Shape{1, 8, 2}));
}

TEST(LossesEdge, MmdScalesListMustBeNonEmpty) {
  Rng rng(5);
  Tensor x = Tensor::randn({4, 2}, rng);
  EXPECT_THROW(mmdInverseMultiquadratic(x, x, {}), ContractError);
}

TEST(LossesEdge, EmdHandlesUnequalCloudSizes) {
  Rng rng(6);
  Tensor a = Tensor::randn({1, 12, 3}, rng);
  Tensor b = Tensor::randn({1, 5, 3}, rng);
  EXPECT_GE(emdSinkhorn(a, b).item(), 0.0);
}

TEST(OptimEdge, StepWithoutBackwardIsSafe) {
  Tensor w = Tensor::full({3}, 1.0, true);
  Adam opt({ParamGroup{{w}, 0.1}});
  opt.step();  // no gradients computed yet — must not crash or move w
  EXPECT_EQ(w.data(), (std::vector<Real>{1, 1, 1}));
}

TEST(CouplingEdge, MinimalWidthBlock) {
  Rng rng(7);
  GlowCouplingBlock block(2, {4}, rng);
  Tensor x = Tensor::randn({3, 2}, rng);
  Tensor y = block.forward(x);
  Tensor back = block.inverse(y);
  for (std::size_t i = 0; i < x.data().size(); ++i)
    EXPECT_NEAR(back.data()[i], x.data()[i], 1e-10);
}

TEST(TensorEdge, LargeFanOutGraph) {
  // 100 consumers of one tensor: gradient accumulates once per edge.
  Tensor x = Tensor::scalar(1.0, true);
  Tensor acc = Tensor::scalar(0.0);
  for (int i = 0; i < 100; ++i) acc = add(acc, x);
  acc.backward();
  EXPECT_DOUBLE_EQ(x.grad()[0], 100.0);
}

TEST(TensorEdge, DeepChainGraph) {
  // 300-deep chain exercises the iterative (non-recursive) topo sort.
  Tensor x = Tensor::scalar(1.0, true);
  Tensor y = x;
  for (int i = 0; i < 300; ++i) y = mulScalar(y, 1.001);
  y.backward();
  EXPECT_NEAR(x.grad()[0], std::pow(1.001, 300), 1e-9);
}

}  // namespace
}  // namespace artsci::ml
