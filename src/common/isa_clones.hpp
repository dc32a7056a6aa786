/// \file isa_clones.hpp
/// Per-CPU clones of a hot kernel. `ARTSCI_ISA_CLONES` in front of a
/// function definition makes GCC on x86-64 Linux build three versions of
/// it — AVX-512, AVX2+FMA and baseline SSE2 — and pick the widest the CPU
/// supports once, at load time, through an ifunc. Other toolchains and
/// sanitized builds get the one portable version.
///
/// Ifunc resolvers run at IRELATIVE-relocation time, before .preinit_array,
/// so a sanitizer-instrumented resolver (GCC instruments them) faults in
/// __tsan_func_entry before the runtime exists. Hence no clones under
/// ASan *or* TSan.
/// "arch=x86-64-v3" is AVX2 *with* FMA in one clone; a separate "avx2,fma"
/// entry makes GCC emit an FMA-less ".avx2" clone that AVX2+FMA hosts
/// would run.
///
/// The FMA clones contract `a + b * c` unless the translation unit turns
/// contraction off; a caller that promises ISA-independent bits (the fused
/// particle pipeline) builds with -ffp-contract=off, one that does not (the
/// GEMM kernels) documents its bits as per clone.
#pragma once

#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__) && \
    defined(__linux__) && !defined(__SANITIZE_ADDRESS__) &&            \
    !defined(__SANITIZE_THREAD__)
#define ARTSCI_ISA_CLONES \
  __attribute__((target_clones("avx512f", "arch=x86-64-v3", "default")))
#else
#define ARTSCI_ISA_CLONES
#endif
