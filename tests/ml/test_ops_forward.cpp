/// Forward-value correctness of the op library.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "ml/ops.hpp"

namespace artsci::ml {
namespace {

TEST(OpsForward, AddBroadcastRow) {
  Tensor a = Tensor::fromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::fromVector({3}, {10, 20, 30});
  Tensor c = add(a, b);
  EXPECT_EQ(c.shape(), (Shape{2, 3}));
  EXPECT_EQ(c.data(), (std::vector<Real>{11, 22, 33, 14, 25, 36}));
}

TEST(OpsForward, AddBroadcastColumn) {
  Tensor a = Tensor::fromVector({2, 1}, {1, 2});
  Tensor b = Tensor::fromVector({2, 3}, {0, 0, 0, 0, 0, 0});
  Tensor c = add(a, b);
  EXPECT_EQ(c.data(), (std::vector<Real>{1, 1, 1, 2, 2, 2}));
}

TEST(OpsForward, BroadcastShapeRules) {
  EXPECT_EQ(broadcastShapes({2, 1, 3}, {4, 1}), (Shape{2, 4, 3}));
  EXPECT_EQ(broadcastShapes({5}, {3, 5}), (Shape{3, 5}));
  EXPECT_THROW(broadcastShapes({2, 3}, {4, 5}), ContractError);
}

TEST(OpsForward, BroadcastShapeEdgeCases) {
  // Symmetry of the right-aligned rule.
  EXPECT_EQ(broadcastShapes({4, 1}, {2, 1, 3}), (Shape{2, 4, 3}));
  // Identical shapes are a fixed point.
  EXPECT_EQ(broadcastShapes({2, 3, 4}, {2, 3, 4}), (Shape{2, 3, 4}));
  // All-ones expand against anything.
  EXPECT_EQ(broadcastShapes({1, 1}, {6, 5, 4}), (Shape{6, 5, 4}));
  // Rank-0 (scalar) against any shape.
  EXPECT_EQ(broadcastShapes({}, {3, 2}), (Shape{3, 2}));
  EXPECT_EQ(broadcastShapes({3, 2}, {}), (Shape{3, 2}));
  // Mismatch buried under matching trailing dims still throws.
  EXPECT_THROW(broadcastShapes({2, 3, 5}, {4, 3, 5}), ContractError);
  // Mismatch across different ranks throws too.
  EXPECT_THROW(broadcastShapes({2, 3}, {3, 3, 3}), ContractError);
}

TEST(OpsForward, MatmulKnownValues) {
  Tensor a = Tensor::fromVector({2, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::fromVector({2, 2}, {5, 6, 7, 8});
  Tensor c = matmul(a, b);
  EXPECT_EQ(c.data(), (std::vector<Real>{19, 22, 43, 50}));
}

TEST(OpsForward, MatmulShapeMismatchThrows) {
  Tensor a = Tensor::zeros({2, 3});
  Tensor b = Tensor::zeros({4, 2});
  EXPECT_THROW(matmul(a, b), ContractError);
}

TEST(OpsForward, MatmulLargeAgainstReference) {
  Rng rng(21);
  const long M = 37, K = 23, N = 29;
  Tensor a = Tensor::randn({M, K}, rng);
  Tensor b = Tensor::randn({K, N}, rng);
  Tensor c = matmul(a, b);
  // Spot-check a few entries against a plain reference computation.
  for (long i : {0L, 17L, M - 1}) {
    for (long j : {0L, 11L, N - 1}) {
      Real ref = 0;
      for (long k = 0; k < K; ++k)
        ref += a.data()[static_cast<std::size_t>(i * K + k)] *
               b.data()[static_cast<std::size_t>(k * N + j)];
      EXPECT_NEAR(c.data()[static_cast<std::size_t>(i * N + j)], ref, 1e-10);
    }
  }
}

TEST(OpsForward, SumAxisValues) {
  Tensor x = Tensor::fromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(sumAxis(x, 0).data(), (std::vector<Real>{5, 7, 9}));
  EXPECT_EQ(sumAxis(x, 1).data(), (std::vector<Real>{6, 15}));
  EXPECT_EQ(sumAxis(x, 1, true).shape(), (Shape{2, 1}));
}

TEST(OpsForward, MeanAll) {
  Tensor x = Tensor::fromVector({4}, {1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(meanAll(x).item(), 2.5);
}

TEST(OpsForward, MaxAxisValuesAndShape) {
  Tensor x = Tensor::fromVector({2, 3, 2},
                                {1, 8, 3, 4, 5, 6, 9, 2, 7, 0, -1, 3});
  Tensor m = maxAxis(x, 1);
  EXPECT_EQ(m.shape(), (Shape{2, 2}));
  EXPECT_EQ(m.data(), (std::vector<Real>{5, 8, 9, 3}));
}

TEST(OpsForward, SliceValues) {
  Tensor x = Tensor::fromVector({2, 4}, {1, 2, 3, 4, 5, 6, 7, 8});
  Tensor s = slice(x, -1, 1, 3);
  EXPECT_EQ(s.shape(), (Shape{2, 2}));
  EXPECT_EQ(s.toVector(), (std::vector<Real>{2, 3, 6, 7}));
}

TEST(OpsForward, SliceAxis0) {
  Tensor x = Tensor::fromVector({3, 2}, {1, 2, 3, 4, 5, 6});
  Tensor s = slice(x, 0, 1, 3);
  EXPECT_EQ(s.toVector(), (std::vector<Real>{3, 4, 5, 6}));
}

TEST(OpsForward, CatLastAxis) {
  Tensor a = Tensor::fromVector({2, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::fromVector({2, 1}, {9, 8});
  Tensor c = cat({a, b}, -1);
  EXPECT_EQ(c.shape(), (Shape{2, 3}));
  EXPECT_EQ(c.data(), (std::vector<Real>{1, 2, 9, 3, 4, 8}));
}

TEST(OpsForward, CatSliceRoundTrip) {
  Rng rng(3);
  Tensor x = Tensor::randn({3, 7}, rng);
  Tensor left = slice(x, -1, 0, 4);
  Tensor right = slice(x, -1, 4, 7);
  Tensor back = cat({left, right}, -1);
  EXPECT_EQ(back.data(), x.data());
}

TEST(OpsForward, PermuteLastIsBijection) {
  Tensor x = Tensor::fromVector({1, 4}, {10, 20, 30, 40});
  const std::vector<long> perm{2, 0, 3, 1};
  Tensor y = permuteLast(x, perm);
  EXPECT_EQ(y.data(), (std::vector<Real>{30, 10, 40, 20}));
  // applying inverse permutation restores input
  std::vector<long> inv(perm.size());
  for (std::size_t i = 0; i < perm.size(); ++i)
    inv[static_cast<std::size_t>(perm[i])] = static_cast<long>(i);
  EXPECT_EQ(permuteLast(y, inv).data(), x.data());
}

TEST(OpsForward, ChamferZeroForIdenticalClouds) {
  Rng rng(4);
  Tensor a = Tensor::randn({2, 10, 3}, rng);
  EXPECT_NEAR(chamferDistance(a, a).item(), 0.0, 1e-12);
}

TEST(OpsForward, ChamferSymmetric) {
  Rng rng(5);
  Tensor a = Tensor::randn({1, 8, 3}, rng);
  Tensor b = Tensor::randn({1, 8, 3}, rng);
  EXPECT_NEAR(chamferDistance(a, b).item(), chamferDistance(b, a).item(),
              1e-12);
}

TEST(OpsForward, ChamferKnownValue) {
  // Single points distance^2 = 4 + symmetric -> 8... actually both terms
  // give 4, sum = 8? CD = mean_n min + mean_m min = 4 + 4 = 8.
  Tensor a = Tensor::fromVector({1, 1, 1}, {0.0});
  Tensor b = Tensor::fromVector({1, 1, 1}, {2.0});
  EXPECT_DOUBLE_EQ(chamferDistance(a, b).item(), 8.0);
}

TEST(OpsForward, ChamferDetectsShift) {
  Rng rng(6);
  Tensor a = Tensor::randn({1, 50, 3}, rng);
  Tensor bNear = a.detach();
  for (Real& v : bNear.data()) v += 0.01;
  Tensor bFar = a.detach();
  for (Real& v : bFar.data()) v += 1.0;
  EXPECT_LT(chamferDistance(a, bNear).item(),
            chamferDistance(a, bFar).item());
}

TEST(OpsForward, PairwiseDistancesMatchDirect) {
  Rng rng(7);
  Tensor x = Tensor::randn({4, 3}, rng);
  Tensor y = Tensor::randn({5, 3}, rng);
  Tensor d2 = pairwiseSquaredDistances(x, y);
  for (long i = 0; i < 4; ++i) {
    for (long j = 0; j < 5; ++j) {
      Real ref = 0;
      for (long k = 0; k < 3; ++k) {
        const Real diff = x.data()[static_cast<std::size_t>(i * 3 + k)] -
                          y.data()[static_cast<std::size_t>(j * 3 + k)];
        ref += diff * diff;
      }
      EXPECT_NEAR(d2.data()[static_cast<std::size_t>(i * 5 + j)], ref, 1e-9);
    }
  }
}

}  // namespace
}  // namespace artsci::ml
