#include "serve/engine.hpp"

#include <algorithm>
#include <cmath>

#include "obs/trace.hpp"

namespace artsci::serve {

namespace detail {

// The kernel library fuses the activation epilogue itself; the dispatch
// below is a static_cast (the enum layouts are static_asserted in
// ml/ops.cpp, which hands training's activations over the same way).

void linearForward(const ml::Real* a, const ml::Real* w, const ml::Real* bias,
                   ml::Real* c, long m, long k, long n, ml::Activation act,
                   bool parallel) {
  ml::kernels::linear_forward(a, w, bias, c, m, k, n,
                              static_cast<ml::kernels::Act>(act), parallel);
}

}  // namespace detail

using ml::Activation;
using ml::Real;

void InferenceEngine::appendMlp(const ml::Mlp& mlp,
                                std::vector<ml::kernels::DenseStep>& seq) {
  const auto& layers = mlp.layers();
  for (std::size_t i = 0; i < layers.size(); ++i) {
    ml::kernels::DenseStep d;
    d.w = layers[i].weight().data().data();
    d.bias = layers[i].biasTensor().defined()
                 ? layers[i].biasTensor().data().data()
                 : nullptr;
    d.in = layers[i].inFeatures();
    d.out = layers[i].outFeatures();
    d.act = static_cast<ml::kernels::Act>(
        (i + 1 == layers.size()) ? mlp.outputActivation()
                                 : mlp.hiddenActivation());
    seq.push_back(d);
  }
}

InferenceEngine::InferenceEngine(
    std::shared_ptr<const core::ArtificialScientistModel> model,
    Options options)
    : model_(std::move(model)), options_(options) {
  ARTSCI_EXPECTS_MSG(model_ != nullptr, "InferenceEngine needs a model");
  const auto& enc = model_->encoder();
  for (const auto& lin : enc.pointLayers()) {
    Dense d;
    d.w = lin.weight().data().data();
    d.b = lin.biasTensor().defined() ? lin.biasTensor().data().data()
                                     : nullptr;
    d.in = lin.inFeatures();
    d.out = lin.outFeatures();
    d.act = ml::kernels::Act::kLeakyRelu;  // encoder leaky after each conv
    conv_.push_back(d);
    maxConvWidth_ = std::max(maxConvWidth_, std::max(d.in, d.out));
  }
  features_ = enc.config().channels.back();
  appendMlp(enc.muHead(), muHead_);

  const auto& inn = model_->inn();
  ARTSCI_CHECK_MSG(inn.config().condDim == 0,
                   "InferenceEngine supports unconditioned INNs only");
  for (int b = 0; b < inn.blockCount(); ++b) {
    const auto& block = inn.block(b);
    Coupling cp;
    appendMlp(block.subnet1(), cp.s1);
    appendMlp(block.subnet2(), cp.s2);
    cp.half = block.half();
    cp.rest = block.dim() - block.half();
    cp.clamp = block.clampValue();
    cp.perm = inn.permutation(b).permutation().data();
    blocks_.push_back(std::move(cp));
  }
  latentDim_ = enc.config().latentDim;
  spectrumDim_ = model_->config().spectrumDim;

  auto widest = [](const std::vector<ml::kernels::DenseStep>& seq) {
    long w = 0;
    for (const auto& s : seq) w = std::max(w, std::max(s.in, s.out));
    return w;
  };
  maxSeqWidth_ = widest(muHead_);
  for (const auto& cp : blocks_) {
    maxSeqWidth_ = std::max(maxSeqWidth_, widest(cp.s1));
    maxSeqWidth_ = std::max(maxSeqWidth_, widest(cp.s2));
  }
}

void InferenceEngine::runDenseSeq(
    const std::vector<ml::kernels::DenseStep>& seq, const Real* in, long rows,
    Real* out, Real* scratchA, Real* scratchB) {
  ml::kernels::linear_seq_forward(seq.data(), static_cast<long>(seq.size()),
                                  in, rows, out, scratchA, scratchB,
                                  options_.ompRowParallel);
}

void InferenceEngine::predictSpectra(const Real* clouds, long batch,
                                     long points, Real* out) {
  TRACE_SCOPE("serve", "engine_predict");
  ARTSCI_EXPECTS(batch >= 1 && points >= 1);
  ARTSCI_EXPECTS(!conv_.empty() && conv_.front().in == 6);

  // All workspaces come from the step arena; a repeated (batch, points)
  // geometry replays the recorded plan — same offsets, zero heap traffic.
  arena_.beginStep();
  const long rowsTotal = batch * points;
  Real* convA = arena_.allocData(rowsTotal * maxConvWidth_);
  Real* convB = arena_.allocData(rowsTotal * maxConvWidth_);
  Real* pooled = arena_.allocData(batch * features_);
  Real* h = arena_.allocData(batch * latentDim_);
  Real* seqA = arena_.allocData(batch * maxSeqWidth_);
  Real* seqB = arena_.allocData(batch * maxSeqWidth_);
  long maxHalf = 0, maxRest = 0;
  for (const auto& cp : blocks_) {
    maxHalf = std::max(maxHalf, cp.half);
    maxRest = std::max(maxRest, cp.rest);
  }
  Real* x2 = arena_.allocData(std::max(batch * maxRest, 1L));
  Real* y1 = arena_.allocData(std::max(batch * maxHalf, 1L));
  Real* y2 = arena_.allocData(std::max(batch * maxRest, 1L));
  Real* st = arena_.allocData(
      std::max(batch * 2 * std::max(maxHalf, maxRest), 1L));
  Real* cat = arena_.allocData(batch * latentDim_);

  // --- PointNet conv stack: ONE batched-kernel call per layer, with the
  // cache-sized sample tiles as the problem list (each tile's rows stay
  // the same fixed 32-row chunks the unbatched path used, so values are
  // bit-identical to dispatching per tile).
  const long tileSamples = std::max<long>(1, (1L << 10) / points);
  const long tiles = (batch + tileSamples - 1) / tileSamples;
  const Real* cur = clouds;
  Real* dst = convA;
  for (std::size_t l = 0; l < conv_.size(); ++l) {
    const Dense& d = conv_[l];
    probs_.clear();
    for (long t = 0; t < tiles; ++t) {
      const long b0 = t * tileSamples;
      const long nb = std::min(tileSamples, batch - b0);
      ml::kernels::LinearProblem p;
      p.a = cur + b0 * points * d.in;
      p.w = d.w;
      p.bias = d.b;
      p.c = dst + b0 * points * d.out;
      p.m = nb * points;
      p.k = d.in;
      p.n = d.out;
      p.act = d.act;
      probs_.push_back(p);
    }
    ml::kernels::linear_forward_batched(probs_.data(),
                                        static_cast<long>(probs_.size()),
                                        options_.ompRowParallel);
    cur = dst;
    dst = (dst == convA) ? convB : convA;
  }

  // --- max-pool over the particle axis (transposition invariance).
  for (long s = 0; s < batch; ++s) {
    Real* prow = pooled + s * features_;
    const Real* src = cur + s * points * features_;
    for (long f = 0; f < features_; ++f) prow[f] = src[f];
    for (long p = 1; p < points; ++p) {
      const Real* row = src + p * features_;
      for (long f = 0; f < features_; ++f)
        prow[f] = row[f] > prow[f] ? row[f] : prow[f];
    }
  }

  // --- mu head: pooled features -> latent mean (one fused chain).
  runDenseSeq(muHead_, pooled, batch, h, seqA, seqB);

  // --- INN forward: z -> [I' || N'], block by block; each subnet is one
  // fused chain (one parallel region instead of one per layer).
  for (const auto& cp : blocks_) {
    const long half = cp.half, rest = cp.rest, dim = half + rest;
    const Real invClamp = Real(1) / cp.clamp;
    for (long i = 0; i < batch; ++i) {
      const Real* hrow = h + i * dim;
      std::copy(hrow + half, hrow + dim, x2 + i * rest);
    }
    // y1 = x1 * exp(clamp * tanh(s1 / clamp)) + t1, with [s1||t1] from
    // subnet1(x2) — identical math to GlowCouplingBlock::forward.
    runDenseSeq(cp.s1, x2, batch, st, seqA, seqB);
    for (long i = 0; i < batch; ++i) {
      const Real* x1 = h + i * dim;
      const Real* strow = st + i * 2 * half;
      Real* y1row = y1 + i * half;
      for (long j = 0; j < half; ++j) {
        const Real s = cp.clamp * std::tanh(strow[j] * invClamp);
        y1row[j] = x1[j] * std::exp(s) + strow[half + j];
      }
    }
    runDenseSeq(cp.s2, y1, batch, st, seqA, seqB);
    for (long i = 0; i < batch; ++i) {
      const Real* x2row = x2 + i * rest;
      const Real* strow = st + i * 2 * rest;
      Real* y2row = y2 + i * rest;
      for (long j = 0; j < rest; ++j) {
        const Real s = cp.clamp * std::tanh(strow[j] * invClamp);
        y2row[j] = x2row[j] * std::exp(s) + strow[rest + j];
      }
    }
    // h = permute([y1 || y2]) (gather: out feature j reads perm[j]).
    for (long i = 0; i < batch; ++i) {
      Real* crow = cat + i * dim;
      std::copy(y1 + i * half, y1 + (i + 1) * half, crow);
      std::copy(y2 + i * rest, y2 + (i + 1) * rest, crow + half);
      Real* hrow = h + i * dim;
      for (long j = 0; j < dim; ++j) hrow[j] = crow[cp.perm[j]];
    }
  }

  // --- spectrum slice: first spectrumDim features of the INN output.
  for (long i = 0; i < batch; ++i) {
    const Real* hrow = h + i * latentDim_;
    std::copy(hrow, hrow + spectrumDim_, out + i * spectrumDim_);
  }
}

}  // namespace artsci::serve
