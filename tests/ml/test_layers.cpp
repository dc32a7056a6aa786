#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "gradcheck.hpp"
#include "ml/layers.hpp"

namespace artsci::ml {
namespace {

TEST(Linear, ShapesAndBias) {
  Rng rng(1);
  Linear layer(4, 3, rng);
  Tensor x = Tensor::randn({5, 4}, rng);
  Tensor y = layer.forward(x);
  EXPECT_EQ(y.shape(), (Shape{5, 3}));
  EXPECT_EQ(layer.parameters().size(), 2u);
  EXPECT_EQ(layer.parameterCount(), 4 * 3 + 3);
}

TEST(Linear, HandlesRank3Input) {
  Rng rng(2);
  Linear layer(6, 16, rng);
  Tensor x = Tensor::randn({2, 10, 6}, rng);
  Tensor y = layer.forward(x);
  EXPECT_EQ(y.shape(), (Shape{2, 10, 16}));
}

TEST(Linear, GradCheck) {
  Rng rng(3);
  Linear layer(3, 2, rng);
  Tensor x = Tensor::randn({4, 3}, rng);
  std::vector<Tensor> inputs{x, layer.weight(), layer.biasTensor()};
  auto loss = [&](const std::vector<Tensor>& in) {
    // Use the layer's tensors directly: in[0] is x.
    return sumAll(square(add(matmul(in[0], in[1]), in[2])));
  };
  EXPECT_TRUE(gradCheck(loss, inputs).ok);
}

TEST(Linear, RejectsWrongInputWidth) {
  Rng rng(4);
  Linear layer(3, 2, rng);
  EXPECT_THROW(layer.forward(Tensor::zeros({5, 4})), ContractError);
}

TEST(Mlp, ForwardShapeAndParamCount) {
  Rng rng(5);
  Mlp mlp({8, 16, 4}, rng);
  Tensor y = mlp.forward(Tensor::randn({3, 8}, rng));
  EXPECT_EQ(y.shape(), (Shape{3, 4}));
  EXPECT_EQ(mlp.parameterCount(), 8 * 16 + 16 + 16 * 4 + 4);
}

TEST(Mlp, OutputActivationTanhBounds) {
  Rng rng(6);
  Mlp mlp({4, 8, 2}, rng, Activation::kLeakyRelu, Activation::kTanh);
  Tensor y = mlp.forward(Tensor::randn({10, 4}, rng, 5.0));
  for (Real v : y.data()) {
    EXPECT_LE(v, 1.0);
    EXPECT_GE(v, -1.0);
  }
}

TEST(PointNetEncoder, MomentShapes) {
  Rng rng(7);
  PointNetEncoder::Config cfg;
  cfg.channels = {6, 8, 16};
  cfg.headHidden = 12;
  cfg.latentDim = 10;
  PointNetEncoder enc(cfg, rng);
  auto m = enc.forward(Tensor::randn({3, 20, 6}, rng));
  EXPECT_EQ(m.mu.shape(), (Shape{3, 10}));
  EXPECT_EQ(m.logvar.shape(), (Shape{3, 10}));
}

TEST(PointNetEncoder, TranspositionInvariance) {
  // Max-pooling over particles makes the encoding invariant to particle
  // order — the property the paper's architecture is built around.
  Rng rng(8);
  PointNetEncoder::Config cfg;
  cfg.channels = {6, 8, 16};
  cfg.headHidden = 12;
  cfg.latentDim = 10;
  PointNetEncoder enc(cfg, rng);
  Tensor x = Tensor::randn({1, 12, 6}, rng);
  // Rotate particle order by 5.
  Tensor xPerm = Tensor::zeros({1, 12, 6});
  for (long n = 0; n < 12; ++n)
    for (long c = 0; c < 6; ++c)
      xPerm.data()[static_cast<std::size_t>(((n + 5) % 12) * 6 + c)] =
          x.data()[static_cast<std::size_t>(n * 6 + c)];
  auto m1 = enc.forward(x);
  auto m2 = enc.forward(xPerm);
  for (std::size_t i = 0; i < m1.mu.data().size(); ++i)
    EXPECT_NEAR(m1.mu.data()[i], m2.mu.data()[i], 1e-12);
}

TEST(PointNetEncoder, LogvarBounded) {
  Rng rng(9);
  PointNetEncoder::Config cfg;
  cfg.channels = {6, 8};
  cfg.headHidden = 8;
  cfg.latentDim = 4;
  PointNetEncoder enc(cfg, rng);
  auto m = enc.forward(Tensor::randn({2, 5, 6}, rng, 100.0));
  for (Real v : m.logvar.data()) {
    EXPECT_LE(v, 10.0);
    EXPECT_GE(v, -10.0);
  }
}

TEST(PointNetEncoder, SampleUsesReparameterization) {
  Rng rng(10);
  PointNetEncoder::Config cfg;
  cfg.channels = {6, 8};
  cfg.headHidden = 8;
  cfg.latentDim = 4;
  PointNetEncoder enc(cfg, rng);
  auto m = enc.forward(Tensor::randn({2, 5, 6}, rng));
  Tensor z = enc.sample(m, rng);
  EXPECT_EQ(z.shape(), (Shape{2, 4}));
  EXPECT_TRUE(z.requiresGrad());  // gradient flows to encoder
}

TEST(PointNetEncoder, PaperScaleArchitectureConstructs) {
  // The full paper architecture: channels 6..608, heads 608->544->544.
  Rng rng(11);
  PointNetEncoder enc(PointNetEncoder::Config{}, rng);
  auto m = enc.forward(Tensor::randn({1, 64, 6}, rng));
  EXPECT_EQ(m.mu.shape(), (Shape{1, 544}));
  // 1x1 conv stack + two heads
  EXPECT_GT(enc.parameterCount(), 500000);
}

TEST(VoxelShuffle, PermutationIsBijection) {
  for (long V : {1L, 2L, 4L}) {
    for (long C : {1L, 3L, 8L}) {
      const auto perm = makeVoxelShufflePermutation(V, C);
      std::vector<bool> seen(perm.size(), false);
      for (long p : perm) {
        ASSERT_GE(p, 0);
        ASSERT_LT(p, static_cast<long>(perm.size()));
        ASSERT_FALSE(seen[static_cast<std::size_t>(p)]);
        seen[static_cast<std::size_t>(p)] = true;
      }
    }
  }
}

TEST(VoxelShuffle, MapsChildOffsetsSpatially) {
  // V=1, C=1: 8 inputs (one voxel, 8 children) -> 2x2x2 grid.
  const auto perm = makeVoxelShufflePermutation(1, 1);
  // output p=(px*2+py)*2+pz with px=kx etc., input = k = (kx*2+ky)*2+kz.
  // For V=1 they coincide: perm must be identity.
  for (std::size_t i = 0; i < perm.size(); ++i)
    EXPECT_EQ(perm[i], static_cast<long>(i));
}

TEST(VoxelDecoder, OutputShapeMatchesPaper) {
  Rng rng(12);
  VoxelDecoder::Config cfg;  // paper defaults: 4^3 x16 -> ... -> 4096 x 6
  cfg.latentDim = 32;        // smaller latent for test speed
  VoxelDecoder dec(cfg, rng);
  EXPECT_EQ(dec.pointCount(), 4096);
  Tensor pc = dec.forward(Tensor::randn({2, 32}, rng));
  EXPECT_EQ(pc.shape(), (Shape{2, 4096, 6}));
}

TEST(VoxelDecoder, GradientFlowsToLatent) {
  Rng rng(13);
  VoxelDecoder::Config cfg;
  cfg.latentDim = 8;
  cfg.baseGrid = 2;
  cfg.channels = {4, 3};
  VoxelDecoder dec(cfg, rng);
  Tensor z = Tensor::randn({1, 8}, rng);
  z.setRequiresGrad(true);
  Tensor pc = dec.forward(z);
  sumAll(square(pc)).backward();
  Real gradNorm = 0;
  for (Real g : z.grad()) gradNorm += g * g;
  EXPECT_GT(gradNorm, 0.0);
}

TEST(VoxelDecoder, SmallConfigGradCheck) {
  Rng rng(14);
  VoxelDecoder::Config cfg;
  cfg.latentDim = 4;
  cfg.baseGrid = 1;
  cfg.channels = {2, 2};
  VoxelDecoder dec(cfg, rng);
  Tensor z = Tensor::randn({2, 4}, rng);
  auto loss = [&](const std::vector<Tensor>& in) {
    return sumAll(square(dec.forward(in[0])));
  };
  EXPECT_TRUE(gradCheck(loss, {z}).ok);
}

}  // namespace
}  // namespace artsci::ml
