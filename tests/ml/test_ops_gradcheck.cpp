/// Property-style finite-difference gradient checks for every op.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "gradcheck.hpp"
#include "ml/ops.hpp"

namespace artsci::ml {
namespace {

Tensor positiveRandn(const Shape& s, Rng& rng) {
  Tensor t = Tensor::randn(s, rng, 0.3);
  for (Real& v : t.data()) v = std::abs(v) + Real(0.5);
  return t;
}

using UnaryFactory = std::function<Tensor(const Tensor&)>;

struct UnaryCase {
  const char* name;
  UnaryFactory fn;
  bool positiveInput = false;
};

class UnaryGradCheck : public ::testing::TestWithParam<UnaryCase> {};

TEST_P(UnaryGradCheck, MatchesFiniteDifferences) {
  const auto& param = GetParam();
  Rng rng(1234);
  Tensor x = param.positiveInput ? positiveRandn({3, 5}, rng)
                                 : Tensor::randn({3, 5}, rng, 0.8);
  auto loss = [&](const std::vector<Tensor>& in) {
    return sumAll(mul(param.fn(in[0]), in[0]));  // non-trivial downstream
  };
  const auto result = gradCheck(loss, {x}, 1e-6, 1e-5);
  EXPECT_TRUE(result.ok) << param.name
                         << " max rel err: " << result.maxRelError;
}

INSTANTIATE_TEST_SUITE_P(
    AllUnaryOps, UnaryGradCheck,
    ::testing::Values(
        UnaryCase{"relu", [](const Tensor& x) { return relu(x); }},
        UnaryCase{"leakyRelu",
                  [](const Tensor& x) { return leakyRelu(x, 0.1); }},
        UnaryCase{"tanh", [](const Tensor& x) { return tanhT(x); }},
        UnaryCase{"exp", [](const Tensor& x) { return expT(x); }},
        UnaryCase{"square", [](const Tensor& x) { return square(x); }},
        UnaryCase{"reciprocal",
                  [](const Tensor& x) { return reciprocal(x); }, true},
        UnaryCase{"addScalar",
                  [](const Tensor& x) { return addScalar(x, 1.7); }},
        UnaryCase{"mulScalar",
                  [](const Tensor& x) { return mulScalar(x, -2.3); }},
        UnaryCase{"neg", [](const Tensor& x) { return neg(x); }}),
    [](const ::testing::TestParamInfo<UnaryCase>& info) {
      return info.param.name;
    });

struct BinaryCase {
  const char* name;
  std::function<Tensor(const Tensor&, const Tensor&)> fn;
  Shape shapeA, shapeB;
  bool positiveB = false;
};

class BinaryGradCheck : public ::testing::TestWithParam<BinaryCase> {};

TEST_P(BinaryGradCheck, MatchesFiniteDifferences) {
  const auto& param = GetParam();
  Rng rng(99);
  Tensor a = Tensor::randn(param.shapeA, rng, 0.7);
  Tensor b = param.positiveB ? positiveRandn(param.shapeB, rng)
                             : Tensor::randn(param.shapeB, rng, 0.7);
  auto loss = [&](const std::vector<Tensor>& in) {
    return sumAll(square(param.fn(in[0], in[1])));
  };
  const auto result = gradCheck(loss, {a, b}, 1e-6, 1e-5);
  EXPECT_TRUE(result.ok) << param.name
                         << " max rel err: " << result.maxRelError;
}

INSTANTIATE_TEST_SUITE_P(
    AllBinaryOps, BinaryGradCheck,
    ::testing::Values(
        BinaryCase{"add_same", add, {3, 4}, {3, 4}},
        BinaryCase{"sub_same", sub, {3, 4}, {3, 4}},
        BinaryCase{"mul_same", mul, {3, 4}, {3, 4}},
        BinaryCase{"div_same", div, {3, 4}, {3, 4}, true},
        BinaryCase{"add_bias_row", add, {6, 4}, {4}},
        BinaryCase{"mul_bias_row", mul, {6, 4}, {4}},
        BinaryCase{"add_col_broadcast", add, {5, 1}, {5, 7}},
        BinaryCase{"mul_general_broadcast", mul, {2, 1, 3}, {2, 4, 1}},
        BinaryCase{"matmul_square", matmul, {4, 4}, {4, 4}},
        BinaryCase{"matmul_rect", matmul, {3, 5}, {5, 2}}),
    [](const ::testing::TestParamInfo<BinaryCase>& info) {
      return info.param.name;
    });

TEST(OpsGradCheck, SumAxisKeepdim) {
  Rng rng(5);
  Tensor x = Tensor::randn({2, 3, 4}, rng);
  for (int axis = 0; axis < 3; ++axis) {
    for (bool keepdim : {false, true}) {
      auto loss = [&](const std::vector<Tensor>& in) {
        return sumAll(square(sumAxis(in[0], axis, keepdim)));
      };
      const auto r = gradCheck(loss, {x});
      EXPECT_TRUE(r.ok) << "axis=" << axis << " keepdim=" << keepdim
                        << " err=" << r.maxRelError;
    }
  }
}

TEST(OpsGradCheck, MeanAll) {
  Rng rng(16);
  Tensor x = Tensor::randn({3, 7}, rng);
  auto loss = [&](const std::vector<Tensor>& in) {
    return square(meanAll(in[0]));
  };
  EXPECT_TRUE(gradCheck(loss, {x}).ok);
}

TEST(OpsGradCheck, MaxAxisRoutesToArgmax) {
  Rng rng(7);
  Tensor x = Tensor::randn({2, 6, 3}, rng);
  auto loss = [&](const std::vector<Tensor>& in) {
    return sumAll(square(maxAxis(in[0], 1)));
  };
  EXPECT_TRUE(gradCheck(loss, {x}).ok);
}

TEST(OpsGradCheck, MaxAxisKeepdim) {
  Rng rng(17);
  Tensor x = Tensor::randn({3, 4, 2}, rng);
  for (int axis = 0; axis < 3; ++axis) {
    auto loss = [&](const std::vector<Tensor>& in) {
      return sumAll(square(maxAxis(in[0], axis, /*keepdim=*/true)));
    };
    const auto r = gradCheck(loss, {x});
    EXPECT_TRUE(r.ok) << "axis=" << axis << " err=" << r.maxRelError;
  }
}

TEST(OpsGradCheck, LeakyReluSlopes) {
  // The parameterized sweep only exercises slope 0.1; check the default
  // (0.01) and a steep slope, with inputs guaranteed on both sides of 0.
  Rng rng(18);
  for (Real slope : {Real(0.01), Real(0.9)}) {
    Tensor x = Tensor::randn({4, 6}, rng, 1.5);
    auto loss = [&](const std::vector<Tensor>& in) {
      return sumAll(mul(leakyRelu(in[0], slope), in[0]));
    };
    const auto r = gradCheck(loss, {x}, 1e-6, 1e-5);
    EXPECT_TRUE(r.ok) << "slope=" << slope << " err=" << r.maxRelError;
  }
}

TEST(OpsGradCheck, SubAndDivBroadcast) {
  // The parameterized sweep covers broadcast add/mul; sub and div reduce
  // their gradients over broadcast axes through different code paths.
  Rng rng(19);
  Tensor a = Tensor::randn({5, 4}, rng, 0.7);
  Tensor b = positiveRandn({4}, rng);
  auto lossSub = [&](const std::vector<Tensor>& in) {
    return sumAll(square(sub(in[0], in[1])));
  };
  EXPECT_TRUE(gradCheck(lossSub, {a, b}).ok);
  auto lossDiv = [&](const std::vector<Tensor>& in) {
    return sumAll(square(div(in[0], in[1])));
  };
  const auto r = gradCheck(lossDiv, {a, b}, 1e-6, 1e-5);
  EXPECT_TRUE(r.ok) << r.maxRelError;
}

TEST(OpsGradCheck, Reshape) {
  Rng rng(8);
  Tensor x = Tensor::randn({2, 6}, rng);
  auto loss = [&](const std::vector<Tensor>& in) {
    return sumAll(square(reshape(in[0], {3, 4})));
  };
  EXPECT_TRUE(gradCheck(loss, {x}).ok);
}

TEST(OpsGradCheck, Transpose2d) {
  Rng rng(9);
  Tensor x = Tensor::randn({3, 5}, rng);
  auto loss = [&](const std::vector<Tensor>& in) {
    return sumAll(square(matmul(transpose2d(in[0]), in[0])));
  };
  EXPECT_TRUE(gradCheck(loss, {x}).ok);
}

TEST(OpsGradCheck, CatAndSlice) {
  Rng rng(10);
  Tensor a = Tensor::randn({2, 3}, rng);
  Tensor b = Tensor::randn({2, 4}, rng);
  auto loss = [&](const std::vector<Tensor>& in) {
    Tensor c = cat({in[0], in[1]}, -1);          // [2,7]
    Tensor left = slice(c, -1, 0, 2);            // [2,2]
    Tensor right = slice(c, -1, 5, 7);           // [2,2]
    return sumAll(square(mul(left, right)));
  };
  EXPECT_TRUE(gradCheck(loss, {a, b}).ok);
}

TEST(OpsGradCheck, CatAxis0) {
  Rng rng(11);
  Tensor a = Tensor::randn({2, 3}, rng);
  Tensor b = Tensor::randn({4, 3}, rng);
  auto loss = [&](const std::vector<Tensor>& in) {
    return sumAll(square(cat({in[0], in[1]}, 0)));
  };
  EXPECT_TRUE(gradCheck(loss, {a, b}).ok);
}

TEST(OpsGradCheck, PermuteLast) {
  Rng rng(12);
  Tensor x = Tensor::randn({3, 5}, rng);
  const std::vector<long> perm{4, 2, 0, 1, 3};
  auto loss = [&](const std::vector<Tensor>& in) {
    return sumAll(square(permuteLast(in[0], perm)));
  };
  EXPECT_TRUE(gradCheck(loss, {x}).ok);
}

TEST(OpsGradCheck, ChamferBothInputs) {
  Rng rng(13);
  Tensor a = Tensor::randn({2, 7, 3}, rng);
  Tensor b = Tensor::randn({2, 5, 3}, rng);
  auto loss = [&](const std::vector<Tensor>& in) {
    return chamferDistance(in[0], in[1]);
  };
  // Chamfer's argmin assignments can flip under perturbation; use a
  // slightly looser tolerance.
  const auto r = gradCheck(loss, {a, b}, 1e-6, 1e-4);
  EXPECT_TRUE(r.ok) << r.maxRelError;
}

TEST(OpsGradCheck, PairwiseSquaredDistances) {
  Rng rng(14);
  Tensor x = Tensor::randn({4, 3}, rng);
  Tensor y = Tensor::randn({5, 3}, rng);
  auto loss = [&](const std::vector<Tensor>& in) {
    return sumAll(square(pairwiseSquaredDistances(in[0], in[1])));
  };
  EXPECT_TRUE(gradCheck(loss, {x, y}).ok);
}

}  // namespace
}  // namespace artsci::ml
