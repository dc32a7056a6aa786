#include "ml/kernels/gemm.hpp"

#include <algorithm>
#include <cmath>

namespace artsci::ml::kernels {
namespace {

/// GCC-on-Linux gets per-CPU clones of each hot kernel (ifunc dispatch);
/// other toolchains and sanitized builds use the single portable version.
/// Ifunc resolvers run at IRELATIVE-relocation time, before .preinit_array,
/// so a sanitizer-instrumented resolver (GCC instruments them) faults in
/// __tsan_func_entry before the runtime exists. Hence no clones under
/// ASan *or* TSan.
/// "arch=x86-64-v3" is AVX2 *with* FMA in one clone; a separate "avx2,fma"
/// entry makes GCC emit an FMA-less ".avx2" clone that AVX2+FMA hosts
/// would run.
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__) && \
    defined(__linux__) && !defined(__SANITIZE_ADDRESS__) &&            \
    !defined(__SANITIZE_THREAD__)
#define ARTSCI_GEMM_CLONES \
  __attribute__((target_clones("avx512f", "arch=x86-64-v3", "default")))
#else
#define ARTSCI_GEMM_CLONES
#endif

/// Contraction off for one function: its `a - b * c` must round the
/// product first in the FMA clones too, as the baseline-built graph
/// nodes it stands in for do.
#if defined(__GNUC__) && !defined(__clang__)
#define ARTSCI_NO_FP_CONTRACT __attribute__((optimize("fp-contract=off")))
#else
#define ARTSCI_NO_FP_CONTRACT
#endif

/// Row-chunk size of the OpenMP partition. A multiple of the 4-row
/// register block so interior chunks never hit the tail path; the fixed
/// chunk (rather than nthreads-derived) makes the partition — not just
/// the result — thread-count-independent.
constexpr long kParChunk = 32;

/// Strided partial sums per dot product: lane u accumulates k = q*8 + u.
/// One AVX-512 register of doubles / two AVX2 registers; the tail below
/// the last full group lands in lanes 0.. in order, so the decomposition
/// depends on K alone.
constexpr long kDotLanes = 8;

/// The activations of the relu/leakyRelu/tanhT graph nodes, bit for bit.
/// Both ReLUs select between values already computed (a max), with no
/// branch and no conditionally executed multiply, so they vectorize in
/// every clone. `max(c, slope * c)` is the node's `c > 0 ? c : slope * c`
/// for every c, −0, ±inf and NaN included.
inline void activateRow(Real* c, long n, Act act) {
  switch (act) {
    case Act::kNone:
      break;
    case Act::kRelu:
      for (long j = 0; j < n; ++j) c[j] = c[j] > 0 ? c[j] : Real(0);
      break;
    case Act::kLeakyRelu:
      for (long j = 0; j < n; ++j) c[j] = std::max(c[j], kLeakySlope * c[j]);
      break;
    case Act::kTanh:
      for (long j = 0; j < n; ++j) c[j] = std::tanh(c[j]);
      break;
  }
}

/// Four-row, two-k block of C = A·B over `rows` rows: the row accumulators
/// live in C; each j-sweep loads every C vector once, applies two FMAs
/// (k and k+1), and stores it — ~8 FMAs per 10 vector memory ops versus
/// 4 per 9 for the row-at-a-time loop, and the j-loops vectorize cleanly.
/// The k-unroll does not reassociate: each element still accumulates
/// strictly k-ascending from its initial value, in *every* path (4-row
/// block, row tail, odd-K step), so blocking never changes bits. A rows
/// are strided by `lda` (dense A passes lda == K).
ARTSCI_GEMM_CLONES
void nnBlock(const Real* __restrict a, const Real* __restrict b,
             Real* __restrict c, long rows, long N, long K, long lda,
             bool accumulate) {
  long i = 0;
  for (; i + 4 <= rows; i += 4) {
    const Real* a0 = a + i * lda;
    const Real* a1 = a0 + lda;
    const Real* a2 = a1 + lda;
    const Real* a3 = a2 + lda;
    Real* c0 = c + i * N;
    Real* c1 = c0 + N;
    Real* c2 = c1 + N;
    Real* c3 = c2 + N;
    if (!accumulate) {
      for (long j = 0; j < N; ++j) {
        c0[j] = Real(0);
        c1[j] = Real(0);
        c2[j] = Real(0);
        c3[j] = Real(0);
      }
    }
    long kk = 0;
    for (; kk + 2 <= K; kk += 2) {
      const Real* b0 = b + kk * N;
      const Real* b1 = b0 + N;
      const Real x00 = a0[kk], x01 = a0[kk + 1];
      const Real x10 = a1[kk], x11 = a1[kk + 1];
      const Real x20 = a2[kk], x21 = a2[kk + 1];
      const Real x30 = a3[kk], x31 = a3[kk + 1];
      for (long j = 0; j < N; ++j) {
        const Real w0 = b0[j], w1 = b1[j];
        c0[j] = (c0[j] + x00 * w0) + x01 * w1;
        c1[j] = (c1[j] + x10 * w0) + x11 * w1;
        c2[j] = (c2[j] + x20 * w0) + x21 * w1;
        c3[j] = (c3[j] + x30 * w0) + x31 * w1;
      }
    }
    if (kk < K) {
      const Real* brow = b + kk * N;
      const Real x0 = a0[kk], x1 = a1[kk], x2 = a2[kk], x3 = a3[kk];
      for (long j = 0; j < N; ++j) {
        const Real w = brow[j];
        c0[j] += x0 * w;
        c1[j] += x1 * w;
        c2[j] += x2 * w;
        c3[j] += x3 * w;
      }
    }
  }
  for (; i < rows; ++i) {
    const Real* arow = a + i * lda;
    Real* crow = c + i * N;
    if (!accumulate) std::fill(crow, crow + N, Real(0));
    for (long kk = 0; kk < K; ++kk) {
      const Real x = arow[kk];
      const Real* brow = b + kk * N;
      for (long j = 0; j < N; ++j) crow[j] += x * brow[j];
    }
  }
}

/// K-panel width for an nn product: sized so one B panel (~512 KiB of
/// doubles) stays L2-resident while a row chunk streams over it.
inline long kPanelFor(long N) {
  return std::max<long>(64, (1L << 16) / std::max<long>(N, 1));
}

/// nnBlock with K-panel cache blocking. Panels run sequentially per
/// output element (panel 0 initializes, later panels accumulate), so each
/// element performs the exact unpanelled k-ascending FMA sequence — the
/// split is invisible in the bits, only in the B-operand's cache
/// residency. The per-element accumulate chain in nnBlock is strictly
/// sequential in k (the 2-k unroll does not reassociate), so any panel
/// boundary, even or odd, preserves it.
void nnPanels(const Real* a, const Real* b, Real* c, long rows, long N,
              long K, long lda, bool accumulate) {
  const long P = kPanelFor(N);
  if (P >= K) {
    nnBlock(a, b, c, rows, N, K, lda, accumulate);
    return;
  }
  for (long k0 = 0; k0 < K; k0 += P) {
    const long kc = std::min(P, K - k0);
    nnBlock(a + k0, b + k0 * N, c, rows, N, kc, lda,
            accumulate || k0 > 0);
  }
}

/// One output element of A·Bᵀ: both rows are contiguous length-K, summed
/// into kDotLanes strided partials reduced in ascending lane order. Both
/// the 4-row block and the tail call this same routine, so the bit
/// pattern per element is independent of blocking and partitioning.
/// Deliberately not cloned: it inlines into each ntBlock clone and is
/// vectorized there under that clone's ISA.
inline Real dotLanes(const Real* __restrict x, const Real* __restrict y,
                     long K) {
  Real acc[kDotLanes] = {};
  long kk = 0;
  for (; kk + kDotLanes <= K; kk += kDotLanes)
    for (long u = 0; u < kDotLanes; ++u) acc[u] += x[kk + u] * y[kk + u];
  for (long u = 0; kk < K; ++kk, ++u) acc[u] += x[kk] * y[kk];
  Real s = Real(0);
  for (long u = 0; u < kDotLanes; ++u) s += acc[u];
  return s;
}

/// `rows` rows of C = A·Bᵀ. Four A rows share each streamed B row; every
/// (i,j) element is one dotLanes() call. C rows are strided by `ldc`
/// (dense C passes ldc == N).
ARTSCI_GEMM_CLONES
void ntBlock(const Real* __restrict a, const Real* __restrict b,
             Real* __restrict c, long rows, long N, long K, long ldc,
             bool accumulate) {
  long i = 0;
  for (; i + 4 <= rows; i += 4) {
    const Real* a0 = a + i * K;
    Real* c0 = c + i * ldc;
    for (long j = 0; j < N; ++j) {
      const Real* brow = b + j * K;
      const Real s0 = dotLanes(a0, brow, K);
      const Real s1 = dotLanes(a0 + K, brow, K);
      const Real s2 = dotLanes(a0 + 2 * K, brow, K);
      const Real s3 = dotLanes(a0 + 3 * K, brow, K);
      if (accumulate) {
        c0[j] += s0;
        c0[ldc + j] += s1;
        c0[2 * ldc + j] += s2;
        c0[3 * ldc + j] += s3;
      } else {
        c0[j] = s0;
        c0[ldc + j] = s1;
        c0[2 * ldc + j] = s2;
        c0[3 * ldc + j] = s3;
      }
    }
  }
  for (; i < rows; ++i) {
    const Real* arow = a + i * K;
    Real* crow = c + i * ldc;
    for (long j = 0; j < N; ++j) {
      const Real s = dotLanes(arow, b + j * K, K);
      crow[j] = accumulate ? crow[j] + s : s;
    }
  }
}

/// `rows` rows of C = Aᵀ·B starting at A column `a` (row stride
/// `strideA`). Same 4-row/2-k streaming block as nnBlock with strided A
/// loads; per-element order is k ascending in every path.
ARTSCI_GEMM_CLONES
void tnBlock(const Real* __restrict a, const Real* __restrict b,
             Real* __restrict c, long rows, long N, long K, long strideA,
             bool accumulate) {
  long i = 0;
  for (; i + 4 <= rows; i += 4) {
    const Real* acol = a + i;
    Real* c0 = c + i * N;
    Real* c1 = c0 + N;
    Real* c2 = c1 + N;
    Real* c3 = c2 + N;
    if (!accumulate) {
      for (long j = 0; j < N; ++j) {
        c0[j] = Real(0);
        c1[j] = Real(0);
        c2[j] = Real(0);
        c3[j] = Real(0);
      }
    }
    long kk = 0;
    for (; kk + 2 <= K; kk += 2) {
      const Real* ap0 = acol + kk * strideA;
      const Real* ap1 = ap0 + strideA;
      const Real x00 = ap0[0], x10 = ap0[1], x20 = ap0[2], x30 = ap0[3];
      const Real x01 = ap1[0], x11 = ap1[1], x21 = ap1[2], x31 = ap1[3];
      const Real* b0 = b + kk * N;
      const Real* b1 = b0 + N;
      for (long j = 0; j < N; ++j) {
        const Real w0 = b0[j], w1 = b1[j];
        c0[j] = (c0[j] + x00 * w0) + x01 * w1;
        c1[j] = (c1[j] + x10 * w0) + x11 * w1;
        c2[j] = (c2[j] + x20 * w0) + x21 * w1;
        c3[j] = (c3[j] + x30 * w0) + x31 * w1;
      }
    }
    if (kk < K) {
      const Real* ap = acol + kk * strideA;
      const Real x0 = ap[0], x1 = ap[1], x2 = ap[2], x3 = ap[3];
      const Real* brow = b + kk * N;
      for (long j = 0; j < N; ++j) {
        const Real w = brow[j];
        c0[j] += x0 * w;
        c1[j] += x1 * w;
        c2[j] += x2 * w;
        c3[j] += x3 * w;
      }
    }
  }
  for (; i < rows; ++i) {
    Real* crow = c + i * N;
    if (!accumulate) std::fill(crow, crow + N, Real(0));
    for (long kk = 0; kk < K; ++kk) {
      const Real x = a[kk * strideA + i];
      const Real* brow = b + kk * N;
      for (long j = 0; j < N; ++j) crow[j] += x * brow[j];
    }
  }
}

/// The fused linear epilogue: bias rows + activation over the GEMM result.
/// One extra O(m·n) pass over C (which just left the register tile, so it
/// is cache-hot) — the O(m·n·k) product itself is nnBlock, unduplicated.
ARTSCI_GEMM_CLONES
void biasActEpilogue(const Real* __restrict bias, Real* __restrict c, long m,
                     long n, Act act) {
  for (long i = 0; i < m; ++i) {
    Real* crow = c + i * n;
    if (bias != nullptr)
      for (long j = 0; j < n; ++j) crow[j] += bias[j];
    activateRow(crow, n, act);
  }
}

}  // namespace

void gemm_nn(const Real* a, const Real* b, Real* c, long M, long N, long K,
             bool accumulate, bool parallel, long lda) {
  if (lda < 0) lda = K;
  if (!parallel || M <= kParChunk) {
    nnPanels(a, b, c, M, N, K, lda, accumulate);
    return;
  }
#pragma omp parallel for schedule(static)
  for (long i0 = 0; i0 < M; i0 += kParChunk)
    nnPanels(a + i0 * lda, b, c + i0 * N, std::min(kParChunk, M - i0), N, K,
             lda, accumulate);
}

void gemm_nt(const Real* a, const Real* b, Real* c, long M, long N, long K,
             bool accumulate, bool parallel, long ldc) {
  if (ldc < 0) ldc = N;
  if (!parallel || M <= kParChunk) {
    ntBlock(a, b, c, M, N, K, ldc, accumulate);
    return;
  }
#pragma omp parallel for schedule(static)
  for (long i0 = 0; i0 < M; i0 += kParChunk)
    ntBlock(a + i0 * K, b, c + i0 * ldc, std::min(kParChunk, M - i0), N, K,
            ldc, accumulate);
}

void gemm_tn(const Real* a, const Real* b, Real* c, long M, long N, long K,
             bool accumulate, bool parallel, long strideA) {
  if (strideA < 0) strideA = M;
  if (!parallel || M <= kParChunk) {
    tnBlock(a, b, c, M, N, K, strideA, accumulate);
    return;
  }
#pragma omp parallel for schedule(static)
  for (long i0 = 0; i0 < M; i0 += kParChunk)
    tnBlock(a + i0, b, c + i0 * N, std::min(kParChunk, M - i0), N, K,
            strideA, accumulate);
}

void linear_forward(const Real* a, const Real* w, const Real* bias, Real* c,
                    long m, long k, long n, Act act, bool parallel,
                    long lda) {
  if (lda < 0) lda = k;
  const bool epilogue = bias != nullptr || act != Act::kNone;
  if (!parallel || m <= kParChunk) {
    nnPanels(a, w, c, m, n, k, lda, /*accumulate=*/false);
    if (epilogue) biasActEpilogue(bias, c, m, n, act);
    return;
  }
  // Same fixed-chunk partition as gemm_nn; the epilogue rides in the
  // chunk while C is still cache-hot. Per-row results are independent of
  // the row blocking, so this is bit-identical to the serial path.
#pragma omp parallel for schedule(static)
  for (long i0 = 0; i0 < m; i0 += kParChunk) {
    const long rows = std::min(kParChunk, m - i0);
    nnPanels(a + i0 * lda, w, c + i0 * n, rows, n, k, lda,
             /*accumulate=*/false);
    if (epilogue) biasActEpilogue(bias, c + i0 * n, rows, n, act);
  }
}

/// The ReLU-family factor is selected into `out` first and multiplied in a
/// second pass. Written as one `g * (y > 0 ? 1 : s)`, GCC folds g·1 to g
/// and emits a branch around g·s, which it may not run speculatively
/// (-ftrapping-math), so no clone but AVX-512 vectorized it. Both passes
/// vectorize in every clone; g·1 == g and g·s round as the graph node did.
ARTSCI_GEMM_CLONES ARTSCI_NO_FP_CONTRACT
void activation_grad(const Real* __restrict g, const Real* __restrict y,
                     Real* __restrict out, long n, Act act) {
  switch (act) {
    case Act::kNone:
      std::copy(g, g + n, out);
      return;
    case Act::kRelu:
      for (long i = 0; i < n; ++i) out[i] = y[i] > 0 ? Real(1) : Real(0);
      break;
    case Act::kLeakyRelu:
      for (long i = 0; i < n; ++i) out[i] = y[i] > 0 ? Real(1) : kLeakySlope;
      break;
    case Act::kTanh:
      for (long i = 0; i < n; ++i) out[i] = Real(1) - y[i] * y[i];
      break;
  }
  for (long i = 0; i < n; ++i) out[i] = g[i] * out[i];
}

void colsum(const Real* g, Real* out, long m, long n, bool accumulate) {
  if (!accumulate) std::fill(out, out + n, Real(0));
  for (long i = 0; i < m; ++i) {
    const Real* grow = g + i * n;
    for (long j = 0; j < n; ++j) out[j] += grow[j];
  }
}

}  // namespace artsci::ml::kernels
