/// Micro-benchmarks (google-benchmark) of the hot kernels across the
/// stack: tensor ops, the losses of Eq.(1), the PIC inner loops and the
/// radiation kernel. These guard against performance regressions in the
/// substrate and calibrate the bench harness constants.
///
/// Besides the google-benchmark suite, `--acceptance` runs the
/// activation-branch gate: the fused ml::linear node (fwd+bwd, leaky ReLU)
/// may cost at most 1.3x as much on random-sign pre-activations as on
/// all-positive ones, so a data-dependent branch in its activation loops
/// fails it. The two sides run in alternating rounds and each keeps its
/// fastest. `--json <path>` writes the measurement as a JSON document (CI
/// uploads it as the BENCH_micro_ops artifact).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/timer.hpp"
#include "ml/arena.hpp"
#include "ml/coupling.hpp"
#include "ml/layers.hpp"
#include "ml/losses.hpp"
#include "pic/deposit_buffer.hpp"
#include "pic/interpolate.hpp"
#include "pic/pusher.hpp"
#include "radiation/detector.hpp"

using namespace artsci;
using namespace artsci::ml;

namespace {

// --- naive GEMM reference --------------------------------------------------
// The pre-kernel-library ml::matmul forward loops, kept verbatim (including
// the OpenMP row parallelism) as the BM_MatmulNaive A/B partner.

void naiveForward(const Real* A, const Real* B, Real* C, long M, long N,
                  long K) {
#pragma omp parallel for schedule(static) if (M * N * K > (1L << 16))
  for (long i = 0; i < M; ++i) {
    Real* crow = C + i * N;
    std::fill(crow, crow + N, Real(0));
    for (long k = 0; k < K; ++k) {
      const Real aik = A[i * K + k];
      const Real* brow = B + k * N;
      for (long j = 0; j < N; ++j) crow[j] += aik * brow[j];
    }
  }
}

void BM_Matmul(benchmark::State& state) {
  const long n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::randn({n, n}, rng);
  Tensor b = Tensor::randn({n, n}, rng);
  for (auto _ : state) {
    Tensor c = matmul(a, b);
    benchmark::DoNotOptimize(c.data().data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_Matmul)->Arg(64)->Arg(128)->Arg(256);

void BM_MatmulNaive(benchmark::State& state) {
  const long n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::randn({n, n}, rng);
  Tensor b = Tensor::randn({n, n}, rng);
  std::vector<Real> c(static_cast<std::size_t>(n * n));
  for (auto _ : state) {
    naiveForward(a.data().data(), b.data().data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatmulNaive)->Arg(64)->Arg(128)->Arg(256);

void BM_MatmulBackward(benchmark::State& state) {
  const long n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::randn({n, n}, rng, 1, /*requiresGrad=*/true);
  Tensor b = Tensor::randn({n, n}, rng, 1, /*requiresGrad=*/true);
  for (auto _ : state) {
    a.zeroGrad();
    b.zeroGrad();
    Tensor loss = sumAll(matmul(a, b));
    loss.backward();
    benchmark::DoNotOptimize(a.grad().data());
  }
  // forward + two backward products
  state.SetItemsProcessed(state.iterations() * 3 * n * n * n);
}
BENCHMARK(BM_MatmulBackward)->Arg(64)->Arg(128)->Arg(256);

void BM_MatmulKPanel(benchmark::State& state) {
  // Tall-K shapes whose B panel exceeds L2: exercises the K-panel cache
  // blocking in gemm_nn (panels are sequential per output element, so the
  // result is bitwise identical to the unpanelled kernel).
  const long k = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::randn({64, k}, rng);
  Tensor b = Tensor::randn({k, 64}, rng);
  for (auto _ : state) {
    Tensor c = matmul(a, b);
    benchmark::DoNotOptimize(c.data().data());
  }
  state.SetItemsProcessed(state.iterations() * 64 * 64 * k);
}
BENCHMARK(BM_MatmulKPanel)->Arg(2048)->Arg(8192);

void BM_ChamferDistance(benchmark::State& state) {
  const long n = state.range(0);
  Rng rng(2);
  Tensor a = Tensor::randn({4, n, 6}, rng);
  Tensor b = Tensor::randn({4, n, 6}, rng);
  for (auto _ : state) {
    Tensor c = chamferDistance(a, b);
    benchmark::DoNotOptimize(c.item());
  }
  state.SetItemsProcessed(state.iterations() * 4 * n * n);
}
BENCHMARK(BM_ChamferDistance)->Arg(128)->Arg(512);

void BM_MmdImq(benchmark::State& state) {
  const long n = state.range(0);
  Rng rng(3);
  Tensor x = Tensor::randn({n, 32}, rng);
  Tensor y = Tensor::randn({n, 32}, rng);
  for (auto _ : state) {
    Tensor m = mmdInverseMultiquadratic(x, y);
    benchmark::DoNotOptimize(m.item());
  }
}
BENCHMARK(BM_MmdImq)->Arg(32)->Arg(128);

void BM_EncoderForward(benchmark::State& state) {
  Rng rng(4);
  PointNetEncoder::Config cfg;
  cfg.channels = {6, 16, 32, 64};
  cfg.headHidden = 64;
  cfg.latentDim = 64;
  PointNetEncoder enc(cfg, rng);
  Tensor x = Tensor::randn({8, 128, 6}, rng);
  for (auto _ : state) {
    auto m = enc.forward(x);
    benchmark::DoNotOptimize(m.mu.data().data());
  }
}
BENCHMARK(BM_EncoderForward);

void BM_InnForwardInverse(benchmark::State& state) {
  Rng rng(5);
  Inn::Config cfg;
  cfg.dim = 64;
  cfg.blocks = 4;
  cfg.hidden = {48, 48};
  Inn inn(cfg, rng);
  Tensor x = Tensor::randn({8, 64}, rng);
  for (auto _ : state) {
    Tensor y = inn.forward(x);
    Tensor back = inn.inverse(y);
    benchmark::DoNotOptimize(back.data().data());
  }
}
BENCHMARK(BM_InnForwardInverse);

void BM_BorisPush(benchmark::State& state) {
  Vec3d u{0.1, 0.05, -0.02};
  const Vec3d E{0.01, 0.0, 0.02}, B{0.0, 0.0, 1.0};
  for (auto _ : state) {
    u = pic::borisPush(u, E, B, -1.0, 0.05);
    benchmark::DoNotOptimize(u);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BorisPush);

void BM_EsirkepovDeposit(benchmark::State& state) {
  pic::GridSpec g{16, 16, 16, 0.2, 0.2, 0.2};
  // One tile spans the grid, so every stencil write lands in its padded
  // accumulator.
  pic::DepositBuffer accum(g, pic::TileDepositConfig{16, 16});
  const pic::DepositBuffer::TileAccum sink = accum.zeroedTile(0);
  Rng rng(6);
  for (auto _ : state) {
    const double x0 = rng.uniform(2, 14), y0 = rng.uniform(2, 14),
                 z0 = rng.uniform(2, 14);
    pic::DepositBuffer::scatterEsirkepovTile(g, x0, y0, z0, x0 + 0.3,
                                             y0 - 0.2, z0 + 0.1, -1.0, 0.1,
                                             sink);
    benchmark::DoNotOptimize(sink.jx);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EsirkepovDeposit);

void BM_FieldGather(benchmark::State& state) {
  pic::GridSpec g{32, 32, 32, 0.2, 0.2, 0.2};
  pic::VectorField E(g);
  E.x.fill(1.0);
  Rng rng(7);
  for (auto _ : state) {
    const Vec3d e = pic::gatherE(E, rng.uniform(1, 31), rng.uniform(1, 31),
                                 rng.uniform(1, 31));
    benchmark::DoNotOptimize(e);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FieldGather);

void BM_RadiationKernel(benchmark::State& state) {
  const long particles = state.range(0);
  radiation::DetectorConfig cfg;
  cfg.directions = {Vec3d{1, 0, 0}};
  cfg.frequencies = radiation::logFrequencyAxis(0.1, 100.0, 32);
  radiation::SpectralAccumulator acc(cfg);
  pic::GridSpec grid{16, 16, 16, 0.2, 0.2, 0.2};
  pic::ParticleBuffer p({-1.0, 1.0, "e"});
  Rng rng(8);
  for (long i = 0; i < particles; ++i)
    p.push({rng.uniform(0, 16), rng.uniform(0, 16), rng.uniform(0, 16)},
           {rng.normal(0, 0.2), rng.normal(0, 0.2), 0}, 1.0);
  std::vector<double> bd(p.size(), 0.01);
  for (auto _ : state) {
    acc.accumulate(p, bd, bd, bd, 1.0, 0.1, grid);
  }
  state.SetItemsProcessed(state.iterations() * particles * 32);
}
// 65536: the in-transit producer's electron count (32x64x8 box, 4 per
// cell).
BENCHMARK(BM_RadiationKernel)->Arg(256)->Arg(1024)->Arg(65536);

// --- activation-branch gate ----------------------------------------------
// The fused linear node's activation loops (the forward epilogue and the
// backward's g * act'(out)) must not branch on the data: a branch on the
// sign of each value mispredicts on half of random-sign inputs. The gate
// times ml::linear fwd+bwd at the PointNet's third per-point layer
// ([1024,32] -> 64, leaky ReLU) on random-sign inputs and on all-positive
// inputs (every value taking the same branch), in interleaved rounds on
// the step arena, and fails when random-sign takes more than
// kBranchRatioLimit times as long.

constexpr double kBranchRatioLimit = 1.3;

/// Rounds per side of the gate; the gate keeps each side's fastest.
constexpr int kRounds = 9;

/// Iterations of `body` that take at least ~`seconds` (after a warm-up
/// call).
template <typename Fn>
long calibrateIters(Fn& body, double seconds) {
  body();  // warm-up / first-touch
  long iters = 1;
  for (;;) {
    Timer t;
    for (long r = 0; r < iters; ++r) body();
    if (t.seconds() > seconds || iters > (1L << 20)) return iters;
    iters *= 2;
  }
}

template <typename Fn>
double secondsPerIter(Fn& body, long iters) {
  Timer t;
  for (long r = 0; r < iters; ++r) body();
  return t.seconds() / static_cast<double>(iters);
}

/// Seconds per iteration of `a` and of `b`, each the minimum over rounds
/// that alternate a, b, a, b, ... Each side's iteration count is
/// calibrated once. Host load that lands on one round slows that round
/// only, and the alternation exposes both sides to the same host.
template <typename FnA, typename FnB>
std::pair<double, double> interleavedMinSeconds(FnA&& a, FnB&& b) {
  constexpr double kRoundSeconds = 0.04;
  const long itersA = calibrateIters(a, kRoundSeconds);
  const long itersB = calibrateIters(b, kRoundSeconds);
  double bestA = 1e300, bestB = 1e300;
  for (int round = 0; round < kRounds; ++round) {
    bestA = std::min(bestA, secondsPerIter(a, itersA));
    bestB = std::min(bestB, secondsPerIter(b, itersB));
  }
  return {bestA, bestB};
}

struct BranchAcceptanceResult {
  double randomSignMs = 0;   ///< best-of-rounds fwd+bwd, random signs
  double allPositiveMs = 0;  ///< best-of-rounds fwd+bwd, all positive
  double ratio = 0;          ///< randomSignMs / allPositiveMs
  bool pass = false;
};

BranchAcceptanceResult runActivationBranchAcceptance() {
  const long rows = 1024, in = 32, out = 64;
  Rng rng(9);
  // Input, weight and bias of one layer; all-positive operands make every
  // pre-activation positive.
  auto layer = [&](bool positive) {
    std::vector<Tensor> p = {
        Tensor::randn({rows, in}, rng, 1, /*requiresGrad=*/true),
        Tensor::randn({in, out}, rng, 1, /*requiresGrad=*/true),
        Tensor::randn({out}, rng, 1, /*requiresGrad=*/true)};
    if (positive)
      for (Tensor& t : p)
        for (Real& v : t.data()) v = std::abs(v);
    return p;
  };
  std::vector<Tensor> randomSign = layer(false);
  std::vector<Tensor> allPositive = layer(true);
  Arena randomArena, positiveArena;
  auto step = [](std::vector<Tensor>& p, Arena& arena) {
    for (Tensor& t : p) t.zeroGrad();
    arena.beginStep();
    ArenaScope scope(arena);
    sumAll(linear(p[0], p[1], p[2], Activation::kLeakyRelu)).backward();
  };
  const auto [randomSeconds, positiveSeconds] = interleavedMinSeconds(
      [&] { step(randomSign, randomArena); },
      [&] { step(allPositive, positiveArena); });
  BranchAcceptanceResult r;
  r.randomSignMs = randomSeconds * 1e3;
  r.allPositiveMs = positiveSeconds * 1e3;
  r.ratio = randomSeconds / positiveSeconds;
  r.pass = r.ratio <= kBranchRatioLimit;
  return r;
}

int acceptanceMain(const char* jsonPath) {
  std::printf(
      "Activation-branch acceptance: ml::linear fwd+bwd [1024,32]->64 "
      "leaky ReLU, random-sign vs all-positive inputs, best of %d "
      "alternating rounds per side\n",
      kRounds);
  const BranchAcceptanceResult b = runActivationBranchAcceptance();
  std::printf("  random sign  : %8.3f ms\n", b.randomSignMs);
  std::printf("  all positive : %8.3f ms\n", b.allPositiveMs);
  std::printf("acceptance (random-sign <= %.2fx all-positive): %.2fx -> %s\n",
              kBranchRatioLimit, b.ratio, b.pass ? "PASS" : "FAIL");

  if (jsonPath != nullptr) {
    std::FILE* f = std::fopen(jsonPath, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", jsonPath);
      return 2;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"micro_ops_acceptance\",\n"
                 "  \"activation_branch\": {\n"
                 "    \"workload\": \"linear_fwd_bwd_1024x32x64_leaky_relu\",\n"
                 "    \"random_sign_ms\": %.4f,\n"
                 "    \"all_positive_ms\": %.4f,\n"
                 "    \"ratio\": %.4f,\n"
                 "    \"limit\": %.4f,\n"
                 "    \"pass\": %s\n"
                 "  },\n"
                 "  \"pass\": %s\n"
                 "}\n",
                 b.randomSignMs, b.allPositiveMs, b.ratio, kBranchRatioLimit,
                 b.pass ? "true" : "false", b.pass ? "true" : "false");
    std::fclose(f);
  }
  return b.pass ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool acceptance = false;
  const char* jsonPath = nullptr;
  std::vector<char*> passthrough{argv[0]};
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--acceptance") == 0) {
      acceptance = true;
    } else if (std::strcmp(arg, "--json") == 0 && i + 1 < argc) {
      jsonPath = argv[++i];
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      jsonPath = arg + 7;
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (acceptance) return acceptanceMain(jsonPath);

  int count = static_cast<int>(passthrough.size());
  benchmark::Initialize(&count, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(count, passthrough.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
