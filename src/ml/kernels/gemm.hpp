/// \file gemm.hpp
/// Standalone register-blocked GEMM kernel library shared by the training
/// stack (ml/ops.cpp: matmul forward + both backward products, the fused
/// Linear op's forward and its activation gradient) and the serving
/// engine (serve/engine.cpp, which runs every dense layer as one serial
/// linear_forward call). Training and serving run the one fused
/// linear+bias+activation epilogue. Deliberately dependency-free — no
/// tensor, autograd, or logging headers — so both layers link the exact
/// same hot loops and a unit test can drive them on raw buffers.
///
/// All matrices are dense row-major. A-operands (and the C of gemm_nt)
/// additionally take a leading dimension, so row- and column-sliced tensor
/// views feed the kernels in place with zero copies. Every kernel covers
/// ragged M/N/K (tail rows/columns take a scalar path that performs the
/// *same* per-element operation sequence as the blocked body, see below).
///
/// K-panel blocking: the nn-family kernels split K into panels sized so
/// one B panel (~512 KiB) stays L2-resident across a row chunk. Panels
/// run sequentially per output element, so the per-element FMA sequence
/// is exactly the unpanelled k-ascending order — blocking never changes
/// bits (tests/ml/test_gemm_kernels.cpp pins this against the naive
/// triple loop).
///
/// Dispatch: on GCC/x86-64/Linux (non-sanitized) each inner kernel is
/// compiled as GCC `target_clones("avx512f","arch=x86-64-v3","default")`
/// — three clones (AVX-512, AVX2+FMA, baseline SSE2); the dynamic linker
/// picks the widest the CPU supports once at load via ifunc. Elsewhere a
/// single portable version is built.
///
/// FMA contraction: GCC contracts `a + b * c` into one fused multiply-add
/// wherever the target has FMA (C++ defaults to -ffp-contract=fast), so
/// the two FMA clones round differently from the baseline clone. Kernel
/// bits are therefore a function of the ISA clone as well: a host without
/// FMA computes other (equally deterministic) GEMM results. Code moved
/// into a clone must either have no `a ± b * c` pattern (the epilogue's
/// activations, the ReLU-family gradients) or pin the rounding it had in
/// the baseline-built callers (activation_grad's tanh `1 - y * y` is
/// compiled with contraction off).
///
/// Determinism invariant (mirrors the PR 3 tiled-deposition contract):
/// every output element's floating-point accumulation order is a function
/// of (kernel, shape) only, and its rounding of the ISA clone. The
/// optional OpenMP path partitions output *rows* in fixed chunks with a
/// static schedule and rows never share an accumulator, so results are
/// bit-identical across OMP thread counts, schedules, and repeated runs —
/// enforced by tests/ml/test_gemm_kernels.cpp at 1/2/8 threads.
#pragma once

namespace artsci::ml::kernels {

/// Matches ml::Real (static_asserted where both headers meet, ml/ops.cpp).
using Real = double;

/// Epilogue activation fused into linear_forward. Enumerator order matches
/// ml::Activation so the mapping is a checked static_cast.
enum class Act { kNone, kRelu, kLeakyRelu, kTanh };

/// The fixed leaky-ReLU slope of Activation::kLeakyRelu across the stack.
inline constexpr Real kLeakySlope = 0.01;

/// C[M,N] = A[M,K] · B[K,N] (accumulate=false) or += (accumulate=true).
/// Per-element order: k ascending — identical to the naive triple loop.
/// `lda` is A's row stride in elements (< 0 means dense, i.e. K).
void gemm_nn(const Real* a, const Real* b, Real* c, long M, long N, long K,
             bool accumulate, bool parallel, long lda = -1);

/// C[M,N] (+)= A[M,K] · B[N,K]ᵀ — both operands row-contiguous along the
/// contraction axis (the grad-A product G·Bᵀ of matmul backward).
/// Per-element order: fixed 8-lane strided partial sums over k, reduced in
/// lane order (independent of row blocking; the FMA clones contract each
/// lane's multiply-add, see the file comment).
/// `ldc` is C's row stride in elements (< 0 means dense, i.e. N) — the
/// grad of a column-sliced A view accumulates straight into the base
/// gradient buffer.
void gemm_nt(const Real* a, const Real* b, Real* c, long M, long N, long K,
             bool accumulate, bool parallel, long ldc = -1);

/// C[M,N] (+)= A[K,M]ᵀ · B[K,N] — A read down its columns (the grad-B
/// product Aᵀ·G of matmul backward). Per-element order: k ascending.
/// `strideA` is A's row stride in elements (< 0 means dense, i.e. M).
void gemm_tn(const Real* a, const Real* b, Real* c, long M, long N, long K,
             bool accumulate, bool parallel, long strideA = -1);

/// Fused linear epilogue of training (ml::linear) and serving:
/// C[m,n] = act(A[m,k] · W[k,n] + bias); bias may be nullptr.
/// Accumulation order matches gemm_nn (k ascending, bias added last,
/// activation applied after), and the activations are element for element
/// those of the relu/leakyRelu/tanhT graph nodes (ReLU `c > 0 ? c : 0`,
/// leaky ReLU `max(c, slope * c)`, both branch-free in every clone).
/// With parallel=true the row loop runs over the same fixed 32-row static
/// OpenMP chunks as the gemm_* kernels — rows never share an accumulator
/// and the per-row op sequence is partition-independent, so results stay
/// bit-identical across thread counts (and to the serial path).
void linear_forward(const Real* a, const Real* w, const Real* bias, Real* c,
                    long m, long k, long n, Act act, bool parallel = false,
                    long lda = -1);

/// out[i] = g[i] · act'(y[i]) for i < n, where y = act(x) is the output
/// of the activation: the pre-activation gradient of a fused linear
/// backward. act' is read from the output (for the sign-preserving ReLU
/// family `y > 0` decides exactly like `x > 0`; tanh' = 1 − y·y), and the
/// product rounds like the separate activation node's backward: tanh's
/// y·y is rounded before the subtraction in every clone. Branch-free in
/// every clone. Act::kNone copies g.
void activation_grad(const Real* g, const Real* y, Real* out, long n,
                     Act act);

/// out[j] (+)= sum_i g[i*n + j] — the bias gradient of a Linear layer.
/// i ascends per column, so the result is partition-independent.
void colsum(const Real* g, Real* out, long m, long n, bool accumulate);

}  // namespace artsci::ml::kernels
