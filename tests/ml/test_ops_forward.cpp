/// Forward-value correctness of the op library, and bitwise oracles for
/// the rewritten reduction loops (Chamfer, maxAxis): values *and*
/// gradients, since the gradients expose which of tied candidates won.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "ml/ops.hpp"

namespace artsci::ml {
namespace {

std::vector<Real> gradOf(const Tensor& t) {
  return std::vector<Real>(t.gradPtr(), t.gradPtr() + t.numel());
}

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

/// maxAxis by a scan down the reduced axis per output element, strict `>`
/// (the first maximum wins); returns the values and, for upstream
/// gradient `up`, the input gradient.
void maxAxisOracle(const std::vector<Real>& x, long outer, long len,
                   long inner, const std::vector<Real>& up,
                   std::vector<Real>& values, std::vector<Real>& grad) {
  values.assign(static_cast<std::size_t>(outer * inner), 0);
  grad.assign(x.size(), 0);
  for (long o = 0; o < outer; ++o) {
    for (long i = 0; i < inner; ++i) {
      long bestL = 0;
      for (long l = 1; l < len; ++l)
        if (x[static_cast<std::size_t>((o * len + l) * inner + i)] >
            x[static_cast<std::size_t>((o * len + bestL) * inner + i)])
          bestL = l;
      const std::size_t src =
          static_cast<std::size_t>((o * len + bestL) * inner + i);
      values[static_cast<std::size_t>(o * inner + i)] = x[src];
      grad[src] += up[static_cast<std::size_t>(o * inner + i)];
    }
  }
}

TEST(OpsForward, MaxAxisRoutesGradientToFirstOfRepeatedMaxima) {
  struct Case {
    Shape shape;
    int axis;
  };
  // Small, one inner chunk; several inner chunks (serial); the OpenMP
  // split with outer > 1; the leading and the last axis.
  const Case cases[] = {{{2, 5, 3}, 1},   {{4, 9, 700}, 1},
                        {{6, 3, 1000}, 1}, {{7, 40}, 0},
                        {{5, 6}, -1}};
  Rng rng(31);
  for (const Case& c : cases) {
    SCOPED_TRACE(shapeToString(c.shape) + " axis " + std::to_string(c.axis));
    const int axis = c.axis < 0 ? c.axis + static_cast<int>(c.shape.size())
                                : c.axis;
    const auto ax = static_cast<std::size_t>(axis);
    long outer = 1, inner = 1;
    for (std::size_t d = 0; d < ax; ++d) outer *= c.shape[d];
    for (std::size_t d = ax + 1; d < c.shape.size(); ++d) inner *= c.shape[d];
    const long len = c.shape[ax];
    // Values from {0, 1, 2, 3}: nearly every column repeats its maximum.
    std::vector<Real> xv(static_cast<std::size_t>(outer * len * inner));
    for (Real& v : xv) v = std::floor(rng.uniform(0, 4));
    std::vector<Real> up(static_cast<std::size_t>(outer * inner));
    for (Real& v : up) v = rng.normal();

    Tensor x = Tensor::fromVector(c.shape, xv, /*requiresGrad=*/true);
    Tensor y = maxAxis(x, c.axis);
    Tensor w = Tensor::fromVector(y.shape(), up);
    sumAll(mul(y, w)).backward();

    std::vector<Real> values, grad;
    maxAxisOracle(xv, outer, len, inner, up, values, grad);
    EXPECT_EQ(y.data(), values);
    EXPECT_EQ(gradOf(x), grad);
  }
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

/// The two-pass Chamfer distance the production op replaced: each
/// direction recomputes every squared distance per point pair (d
/// ascending) and keeps the first minimum (strict `<`, ascending index).
/// The gradients are the production backward's formulas driven by the
/// oracle's own nearest neighbours, for an upstream gradient of 1.
struct ChamferOracle {
  Real value = 0;
  std::vector<Real> gradA, gradB;
};

ChamferOracle twoPassChamfer(const std::vector<Real>& A,
                             const std::vector<Real>& Bd, long B, long N,
                             long M, long D) {
  auto sq = [&](long bi, long i, long j) {
    Real d2 = Real(0);
    for (long d = 0; d < D; ++d) {
      const Real diff = A[static_cast<std::size_t>((bi * N + i) * D + d)] -
                        Bd[static_cast<std::size_t>((bi * M + j) * D + d)];
      d2 += diff * diff;
    }
    return d2;
  };
  std::vector<long> nnAB(static_cast<std::size_t>(B * N));
  std::vector<long> nnBA(static_cast<std::size_t>(B * M));
  Real total = Real(0);
  for (long bi = 0; bi < B; ++bi) {
    Real sumA = Real(0);
    for (long i = 0; i < N; ++i) {
      Real best = Real(1e300);
      long bestJ = 0;
      for (long j = 0; j < M; ++j) {
        const Real d2 = sq(bi, i, j);
        if (d2 < best) {
          best = d2;
          bestJ = j;
        }
      }
      nnAB[static_cast<std::size_t>(bi * N + i)] = bestJ;
      sumA += best;
    }
    Real sumB = Real(0);
    for (long j = 0; j < M; ++j) {
      Real best = Real(1e300);
      long bestI = 0;
      for (long i = 0; i < N; ++i) {
        const Real d2 = sq(bi, i, j);
        if (d2 < best) {
          best = d2;
          bestI = i;
        }
      }
      nnBA[static_cast<std::size_t>(bi * M + j)] = bestI;
      sumB += best;
    }
    total += sumA / static_cast<Real>(N) + sumB / static_cast<Real>(M);
  }
  ChamferOracle r;
  r.value = total / static_cast<Real>(B);
  r.gradA.assign(A.size(), Real(0));
  r.gradB.assign(Bd.size(), Real(0));
  const Real g = Real(1) / static_cast<Real>(B);
  const Real wA = g / static_cast<Real>(N);
  const Real wB = g / static_cast<Real>(M);
  for (long bi = 0; bi < B; ++bi) {
    for (long i = 0; i < N; ++i) {
      const long j = nnAB[static_cast<std::size_t>(bi * N + i)];
      for (long d = 0; d < D; ++d) {
        const auto ia = static_cast<std::size_t>((bi * N + i) * D + d);
        const auto ib = static_cast<std::size_t>((bi * M + j) * D + d);
        const Real diff = Real(2) * (A[ia] - Bd[ib]);
        r.gradA[ia] += wA * diff;
        r.gradB[ib] -= wA * diff;
      }
    }
    for (long j = 0; j < M; ++j) {
      const long i = nnBA[static_cast<std::size_t>(bi * M + j)];
      for (long d = 0; d < D; ++d) {
        const auto ia = static_cast<std::size_t>((bi * N + i) * D + d);
        const auto ib = static_cast<std::size_t>((bi * M + j) * D + d);
        const Real diff = Real(2) * (Bd[ib] - A[ia]);
        r.gradB[ib] += wB * diff;
        r.gradA[ia] -= wB * diff;
      }
    }
  }
  return r;
}

void expectChamferMatchesOracle(const std::vector<Real>& av,
                                const std::vector<Real>& bv, long B, long N,
                                long M, long D) {
  Tensor a = Tensor::fromVector({B, N, D}, av, /*requiresGrad=*/true);
  Tensor b = Tensor::fromVector({B, M, D}, bv, /*requiresGrad=*/true);
  Tensor cd = chamferDistance(a, b);
  cd.backward();
  const ChamferOracle ref = twoPassChamfer(av, bv, B, N, M, D);
  EXPECT_EQ(cd.item(), ref.value);
  EXPECT_EQ(gradOf(a), ref.gradA);
  EXPECT_EQ(gradOf(b), ref.gradB);
}

TEST(OpsForward, ChamferMatchesTwoPassOracleOnRaggedClouds) {
  for (long D : {6L, 3L}) {
    SCOPED_TRACE("D " + std::to_string(D));
    const long B = 3, N = 37, M = 53;
    Rng rng(static_cast<std::uint64_t>(40 + D));
    std::vector<Real> av(static_cast<std::size_t>(B * N * D));
    std::vector<Real> bv(static_cast<std::size_t>(B * M * D));
    for (Real& v : av) v = rng.normal();
    for (Real& v : bv) v = rng.normal();
    expectChamferMatchesOracle(av, bv, B, N, M, D);
  }
}

TEST(OpsForward, ChamferKeepsFirstNeighbourAmongDuplicatedPoints) {
  // Every point of each cloud appears three times at scattered indices,
  // so both argmins see exact ties and only the first index may win; the
  // gradients show which one did.
  const long B = 2, N = 30, M = 24, D = 3;
  Rng rng(45);
  std::vector<Real> baseA(static_cast<std::size_t>(B * 10 * D));
  std::vector<Real> baseB(static_cast<std::size_t>(B * 8 * D));
  for (Real& v : baseA) v = rng.normal();
  for (Real& v : baseB) v = rng.normal();
  std::vector<Real> av(static_cast<std::size_t>(B * N * D));
  std::vector<Real> bv(static_cast<std::size_t>(B * M * D));
  for (long bi = 0; bi < B; ++bi) {
    for (long i = 0; i < N; ++i)
      for (long d = 0; d < D; ++d)
        av[static_cast<std::size_t>((bi * N + i) * D + d)] =
            baseA[static_cast<std::size_t>((bi * 10 + (i * 7) % 10) * D + d)];
    for (long j = 0; j < M; ++j)
      for (long d = 0; d < D; ++d)
        bv[static_cast<std::size_t>((bi * M + j) * D + d)] =
            baseB[static_cast<std::size_t>((bi * 8 + (j * 5) % 8) * D + d)];
  }
  expectChamferMatchesOracle(av, bv, B, N, M, D);
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
