/// Unit tests of the shared blocked-GEMM kernel library
/// (ml/kernels/gemm.hpp): all three orientations against naive references
/// on ragged shapes, bit-identity of the OpenMP row-partitioned path
/// across 1/2/8 threads, the fused linear epilogue, and finite-difference
/// gradient checks of the blocked matmul/linear backward.
#ifdef _OPENMP
#include <omp.h>
#endif

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "gradcheck.hpp"
#include "ml/kernels/gemm.hpp"
#include "ml/layers.hpp"
#include "ml/ops.hpp"

namespace artsci::ml {
namespace {

using kernels::Real;

std::vector<Real> randomVec(std::size_t n, Rng& rng) {
  std::vector<Real> v(n);
  for (Real& x : v) x = rng.normal();
  return v;
}

// Naive references: per-element k-ascending accumulation.
std::vector<Real> refNN(const std::vector<Real>& a, const std::vector<Real>& b,
                        long M, long N, long K) {
  std::vector<Real> c(static_cast<std::size_t>(M * N), Real(0));
  for (long i = 0; i < M; ++i)
    for (long k = 0; k < K; ++k)
      for (long j = 0; j < N; ++j)
        c[static_cast<std::size_t>(i * N + j)] +=
            a[static_cast<std::size_t>(i * K + k)] *
            b[static_cast<std::size_t>(k * N + j)];
  return c;
}

std::vector<Real> refNT(const std::vector<Real>& a, const std::vector<Real>& b,
                        long M, long N, long K) {
  std::vector<Real> c(static_cast<std::size_t>(M * N), Real(0));
  for (long i = 0; i < M; ++i)
    for (long j = 0; j < N; ++j)
      for (long k = 0; k < K; ++k)
        c[static_cast<std::size_t>(i * N + j)] +=
            a[static_cast<std::size_t>(i * K + k)] *
            b[static_cast<std::size_t>(j * K + k)];
  return c;
}

std::vector<Real> refTN(const std::vector<Real>& a, const std::vector<Real>& b,
                        long M, long N, long K) {
  std::vector<Real> c(static_cast<std::size_t>(M * N), Real(0));
  for (long k = 0; k < K; ++k)
    for (long i = 0; i < M; ++i)
      for (long j = 0; j < N; ++j)
        c[static_cast<std::size_t>(i * N + j)] +=
            a[static_cast<std::size_t>(k * M + i)] *
            b[static_cast<std::size_t>(k * N + j)];
  return c;
}

void expectNear(const std::vector<Real>& got, const std::vector<Real>& want,
                const char* what) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_NEAR(got[i], want[i], 1e-10 * std::max(Real(1), std::abs(want[i])))
        << what << " flat=" << i;
}

// Shapes deliberately off the 4-row register block, the 8-lane dot
// decomposition, and the 32-row OpenMP chunk.
struct GemmShape {
  long M, N, K;
};
const GemmShape kRaggedShapes[] = {{1, 1, 1},   {3, 5, 7},   {4, 8, 8},
                                   {5, 2, 9},   {7, 13, 5},  {33, 17, 11},
                                   {34, 3, 70}, {70, 34, 33}};

TEST(GemmKernels, NnMatchesNaiveOnRaggedShapes) {
  Rng rng(11);
  for (const auto& s : kRaggedShapes) {
    const auto a = randomVec(static_cast<std::size_t>(s.M * s.K), rng);
    const auto b = randomVec(static_cast<std::size_t>(s.K * s.N), rng);
    std::vector<Real> c(static_cast<std::size_t>(s.M * s.N), Real(7));
    kernels::gemm_nn(a.data(), b.data(), c.data(), s.M, s.N, s.K,
                     /*accumulate=*/false, /*parallel=*/false);
    expectNear(c, refNN(a, b, s.M, s.N, s.K), "nn");
  }
}

TEST(GemmKernels, NtMatchesNaiveOnRaggedShapes) {
  Rng rng(12);
  for (const auto& s : kRaggedShapes) {
    const auto a = randomVec(static_cast<std::size_t>(s.M * s.K), rng);
    const auto b = randomVec(static_cast<std::size_t>(s.N * s.K), rng);
    std::vector<Real> c(static_cast<std::size_t>(s.M * s.N), Real(7));
    kernels::gemm_nt(a.data(), b.data(), c.data(), s.M, s.N, s.K,
                     /*accumulate=*/false, /*parallel=*/false);
    expectNear(c, refNT(a, b, s.M, s.N, s.K), "nt");
  }
}

TEST(GemmKernels, TnMatchesNaiveOnRaggedShapes) {
  Rng rng(13);
  for (const auto& s : kRaggedShapes) {
    const auto a = randomVec(static_cast<std::size_t>(s.K * s.M), rng);
    const auto b = randomVec(static_cast<std::size_t>(s.K * s.N), rng);
    std::vector<Real> c(static_cast<std::size_t>(s.M * s.N), Real(7));
    kernels::gemm_tn(a.data(), b.data(), c.data(), s.M, s.N, s.K,
                     /*accumulate=*/false, /*parallel=*/false);
    expectNear(c, refTN(a, b, s.M, s.N, s.K), "tn");
  }
}

TEST(GemmKernels, AccumulateAddsOntoExistingOutput) {
  Rng rng(14);
  const long M = 7, N = 13, K = 9;
  const auto a = randomVec(static_cast<std::size_t>(M * K), rng);
  const auto b = randomVec(static_cast<std::size_t>(K * N), rng);
  const auto seed = randomVec(static_cast<std::size_t>(M * N), rng);
  std::vector<Real> c = seed;
  kernels::gemm_nn(a.data(), b.data(), c.data(), M, N, K,
                   /*accumulate=*/true, /*parallel=*/false);
  const auto prod = refNN(a, b, M, N, K);
  for (std::size_t i = 0; i < c.size(); ++i)
    EXPECT_NEAR(c[i], seed[i] + prod[i], 1e-10);
}

TEST(GemmKernels, OmpPathIsBitIdenticalAcrossThreadCounts) {
  Rng rng(15);
  // 70 rows: two full 32-row chunks plus a ragged tail, so every thread
  // count exercises a different chunk-to-thread assignment.
  const long M = 70, N = 37, K = 51;
  const auto a = randomVec(static_cast<std::size_t>(M * K), rng);
  const auto bNN = randomVec(static_cast<std::size_t>(K * N), rng);
  const auto bNT = randomVec(static_cast<std::size_t>(N * K), rng);
  const auto aTN = randomVec(static_cast<std::size_t>(K * M), rng);

  std::vector<Real> serialNN(static_cast<std::size_t>(M * N));
  std::vector<Real> serialNT(static_cast<std::size_t>(M * N));
  std::vector<Real> serialTN(static_cast<std::size_t>(M * N));
  kernels::gemm_nn(a.data(), bNN.data(), serialNN.data(), M, N, K, false,
                   /*parallel=*/false);
  kernels::gemm_nt(a.data(), bNT.data(), serialNT.data(), M, N, K, false,
                   /*parallel=*/false);
  kernels::gemm_tn(aTN.data(), bNN.data(), serialTN.data(), M, N, K, false,
                   /*parallel=*/false);

  for (int threads : {1, 2, 8}) {
#ifdef _OPENMP
    omp_set_num_threads(threads);
#else
    if (threads > 1) continue;
#endif
    std::vector<Real> c(static_cast<std::size_t>(M * N), Real(-1));
    kernels::gemm_nn(a.data(), bNN.data(), c.data(), M, N, K, false, true);
    for (std::size_t i = 0; i < c.size(); ++i)
      ASSERT_EQ(c[i], serialNN[i]) << "nn threads=" << threads << " i=" << i;

    std::fill(c.begin(), c.end(), Real(-1));
    kernels::gemm_nt(a.data(), bNT.data(), c.data(), M, N, K, false, true);
    for (std::size_t i = 0; i < c.size(); ++i)
      ASSERT_EQ(c[i], serialNT[i]) << "nt threads=" << threads << " i=" << i;

    std::fill(c.begin(), c.end(), Real(-1));
    kernels::gemm_tn(aTN.data(), bNN.data(), c.data(), M, N, K, false, true);
    for (std::size_t i = 0; i < c.size(); ++i)
      ASSERT_EQ(c[i], serialTN[i]) << "tn threads=" << threads << " i=" << i;
  }
#ifdef _OPENMP
  omp_set_num_threads(omp_get_num_procs());
#endif
}

TEST(GemmKernels, MatmulOpIsBitIdenticalAcrossThreadCounts) {
  // End-to-end through the autograd op (forward + both backward products),
  // above the parallel threshold so the OMP path actually engages.
  Rng rng(16);
  Tensor a = Tensor::randn({70, 41}, rng, 1, /*requiresGrad=*/true);
  Tensor b = Tensor::randn({41, 39}, rng, 1, /*requiresGrad=*/true);

  auto run = [&](int threads, std::vector<Real>& y, std::vector<Real>& ga,
                 std::vector<Real>& gb) {
#ifdef _OPENMP
    omp_set_num_threads(threads);
#else
    (void)threads;
#endif
    a.zeroGrad();
    b.zeroGrad();
    Tensor out = matmul(a, b);
    Tensor loss = sumAll(mul(out, out));
    loss.backward();
    y = out.data();
    ga = a.grad();
    gb = b.grad();
  };

  std::vector<Real> y1, ga1, gb1;
  run(1, y1, ga1, gb1);
  for (int threads : {2, 8}) {
#ifndef _OPENMP
    break;
#endif
    std::vector<Real> y, ga, gb;
    run(threads, y, ga, gb);
    ASSERT_EQ(y, y1) << "forward threads=" << threads;
    ASSERT_EQ(ga, ga1) << "grad-A threads=" << threads;
    ASSERT_EQ(gb, gb1) << "grad-B threads=" << threads;
  }
#ifdef _OPENMP
  omp_set_num_threads(omp_get_num_procs());
#endif
}

TEST(GemmKernels, LinearForwardFusedEpilogueMatchesReference) {
  Rng rng(17);
  const long m = 9, k = 5, n = 13;  // off the 4-row block
  const auto a = randomVec(static_cast<std::size_t>(m * k), rng);
  const auto w = randomVec(static_cast<std::size_t>(k * n), rng);
  const auto bias = randomVec(static_cast<std::size_t>(n), rng);
  std::vector<Real> c(static_cast<std::size_t>(m * n));
  for (kernels::Act act : {kernels::Act::kNone, kernels::Act::kRelu,
                           kernels::Act::kLeakyRelu, kernels::Act::kTanh}) {
    kernels::linear_forward(a.data(), w.data(), bias.data(), c.data(), m, k,
                            n, act);
    for (long i = 0; i < m; ++i) {
      for (long j = 0; j < n; ++j) {
        Real acc = 0;
        for (long kk = 0; kk < k; ++kk)
          acc += a[static_cast<std::size_t>(i * k + kk)] *
                 w[static_cast<std::size_t>(kk * n + j)];
        acc += bias[static_cast<std::size_t>(j)];
        switch (act) {
          case kernels::Act::kNone:
            break;
          case kernels::Act::kRelu:
            acc = acc > 0 ? acc : 0;
            break;
          case kernels::Act::kLeakyRelu:
            acc = acc < 0 ? acc * kernels::kLeakySlope : acc;
            break;
          case kernels::Act::kTanh:
            acc = std::tanh(acc);
            break;
        }
        EXPECT_NEAR(c[static_cast<std::size_t>(i * n + j)], acc, 1e-12);
      }
    }
  }
}

/// Bit equality that counts any two NaNs as equal: NaN payloads are not
/// part of the contract (the compiler may commute a product's operands).
bool sameBits(Real a, Real b) {
  if (std::isnan(a) && std::isnan(b)) return true;
  return std::memcmp(&a, &b, sizeof(Real)) == 0;
}

/// Pre-activations at the IEEE edge cases (±0, ±denormal, ±inf, NaN), then
/// random ones, which expose a tanh gradient whose 1 − y·y contracts into
/// an FMA.
std::vector<Real> edgeCaseValues() {
  constexpr Real kInf = std::numeric_limits<Real>::infinity();
  constexpr Real kDenorm = std::numeric_limits<Real>::denorm_min();
  std::vector<Real> v = {0.0,   -0.0, kDenorm,
                         -kDenorm, kInf, -kInf,
                         std::numeric_limits<Real>::quiet_NaN(), 1.5, -2.5};
  Rng rng(19);
  for (int i = 0; i < 64; ++i) v.push_back(rng.normal());
  return v;
}

TEST(GemmKernels, FusedActivationMatchesSeparateNodesAtEdgeValues) {
  // ml::linear's epilogue and activation_grad against the relu/leakyRelu/
  // tanhT nodes over the same GEMM. A K = 1 product with weight 1 hands
  // each value to the activation unchanged (0 + x·1 == x; −0 arrives as
  // +0, and leaky ReLU of −denormal yields −0).
  const std::vector<Real> xs = edgeCaseValues();
  const long n = static_cast<long>(xs.size());
  Rng rng(20);
  const std::vector<Real> up = randomVec(xs.size(), rng);
  for (Activation act :
       {Activation::kRelu, Activation::kLeakyRelu, Activation::kTanh}) {
    SCOPED_TRACE("activation " + std::to_string(static_cast<int>(act)));
    Tensor g = Tensor::fromVector({n, 1}, up);
    Tensor x = Tensor::fromVector({n, 1}, xs, /*requiresGrad=*/true);
    Tensor w = Tensor::fromVector({1, 1}, {1.0}, /*requiresGrad=*/true);
    Tensor fused = linear(x, w, Tensor(), act);
    sumAll(mul(fused, g)).backward();

    Tensor xRef = Tensor::fromVector({n, 1}, xs, /*requiresGrad=*/true);
    Tensor wRef = Tensor::fromVector({1, 1}, {1.0}, /*requiresGrad=*/true);
    Tensor pre = matmul(xRef, wRef);
    Tensor node = act == Activation::kRelu        ? relu(pre)
                  : act == Activation::kLeakyRelu ? leakyRelu(pre)
                                                  : tanhT(pre);
    sumAll(mul(node, g)).backward();

    for (long i = 0; i < n; ++i) {
      const auto k = static_cast<std::size_t>(i);
      EXPECT_TRUE(sameBits(fused.data()[k], node.data()[k]))
          << "forward at x = " << xs[k];
      EXPECT_TRUE(sameBits(x.gradPtr()[i], xRef.gradPtr()[i]))
          << "gradient at x = " << xs[k];
    }
    EXPECT_TRUE(sameBits(w.gradPtr()[0], wRef.gradPtr()[0]));
  }
}

TEST(GemmKernels, ActivationGradMatchesNodeFormulasOnOutputs) {
  // activation_grad reads the activation's *output*; feed it the edge
  // values directly (−0 included) against the graph nodes' formulas.
  const std::vector<Real> ys = edgeCaseValues();
  const long n = static_cast<long>(ys.size());
  Rng rng(21);
  const std::vector<Real> g = randomVec(ys.size(), rng);
  std::vector<Real> out(ys.size());
  for (kernels::Act act : {kernels::Act::kNone, kernels::Act::kRelu,
                           kernels::Act::kLeakyRelu, kernels::Act::kTanh}) {
    SCOPED_TRACE("activation " + std::to_string(static_cast<int>(act)));
    kernels::activation_grad(g.data(), ys.data(), out.data(), n, act);
    for (std::size_t i = 0; i < ys.size(); ++i) {
      const Real y = ys[i];
      Real ref = g[i];
      if (act == kernels::Act::kRelu) ref = g[i] * (y > 0 ? Real(1) : Real(0));
      if (act == kernels::Act::kLeakyRelu)
        ref = g[i] * (y > 0 ? Real(1) : kernels::kLeakySlope);
      if (act == kernels::Act::kTanh) ref = g[i] * (Real(1) - y * y);
      EXPECT_TRUE(sameBits(out[i], ref)) << "at y = " << y;
    }
  }
}

TEST(GemmKernels, ColsumMatchesReference) {
  Rng rng(18);
  const long m = 11, n = 7;
  const auto g = randomVec(static_cast<std::size_t>(m * n), rng);
  std::vector<Real> out(static_cast<std::size_t>(n), Real(3));
  kernels::colsum(g.data(), out.data(), m, n, /*accumulate=*/true);
  for (long j = 0; j < n; ++j) {
    Real s = Real(3);
    for (long i = 0; i < m; ++i) s += g[static_cast<std::size_t>(i * n + j)];
    EXPECT_NEAR(out[static_cast<std::size_t>(j)], s, 1e-12);
  }
}

TEST(GemmKernels, BlockedMatmulBackwardPassesGradcheck) {
  Rng rng(19);
  // Ragged shapes so every tail path participates in the products.
  Tensor a = Tensor::randn({5, 7}, rng, 0.8, /*requiresGrad=*/true);
  Tensor b = Tensor::randn({7, 3}, rng, 0.8, /*requiresGrad=*/true);
  auto loss = [](const std::vector<Tensor>& in) {
    return sumAll(square(matmul(in[0], in[1])));
  };
  const auto result = gradCheck(loss, {a, b}, 1e-6, 1e-5);
  EXPECT_TRUE(result.ok) << "matmul max rel err: " << result.maxRelError;
}

TEST(GemmKernels, FusedLinearBackwardPassesGradcheck) {
  Rng rng(20);
  Tensor x = Tensor::randn({6, 5}, rng, 0.8, /*requiresGrad=*/true);
  Tensor w = Tensor::randn({5, 9}, rng, 0.8, /*requiresGrad=*/true);
  Tensor bias = Tensor::randn({9}, rng, 0.8, /*requiresGrad=*/true);
  auto loss = [](const std::vector<Tensor>& in) {
    return sumAll(square(linear(in[0], in[1], in[2])));
  };
  const auto result = gradCheck(loss, {x, w, bias}, 1e-6, 1e-5);
  EXPECT_TRUE(result.ok) << "linear max rel err: " << result.maxRelError;

  // No-bias variant must also differentiate cleanly.
  auto lossNoBias = [](const std::vector<Tensor>& in) {
    return sumAll(square(linear(in[0], in[1], Tensor())));
  };
  const auto result2 = gradCheck(lossNoBias, {x, w}, 1e-6, 1e-5);
  EXPECT_TRUE(result2.ok) << "linear(no bias) max rel err: "
                          << result2.maxRelError;
}

TEST(GemmKernels, FusedLinearMatchesMatmulPlusAddBitwise) {
  // The Linear layer switched from matmul+add to the fused node; the
  // contract is identical bits (k-ascending accumulation, bias last).
  Rng rng(21);
  Tensor x = Tensor::randn({34, 17}, rng);
  Tensor w = Tensor::randn({17, 23}, rng);
  Tensor bias = Tensor::randn({23}, rng);
  Tensor fused = linear(x, w, bias);
  Tensor reference = add(matmul(x, w), bias);
  ASSERT_EQ(fused.data(), reference.data());
}

}  // namespace
}  // namespace artsci::ml
