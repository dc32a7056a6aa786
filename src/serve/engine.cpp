#include "serve/engine.hpp"

#include <algorithm>
#include <cmath>

#include "obs/trace.hpp"

namespace artsci::serve {

using ml::Real;

void InferenceEngine::appendMlp(const ml::Mlp& mlp,
                                std::vector<Dense>& chain) {
  const auto& layers = mlp.layers();
  for (std::size_t i = 0; i < layers.size(); ++i) {
    Dense d;
    d.w = layers[i].weight().data().data();
    d.b = layers[i].biasTensor().defined()
              ? layers[i].biasTensor().data().data()
              : nullptr;
    d.in = layers[i].inFeatures();
    d.out = layers[i].outFeatures();
    d.act = static_cast<ml::kernels::Act>(
        (i + 1 == layers.size()) ? mlp.outputActivation()
                                 : mlp.hiddenActivation());
    chain.push_back(d);
  }
}

InferenceEngine::InferenceEngine(
    std::shared_ptr<const core::ArtificialScientistModel> model)
    : model_(std::move(model)) {
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

  auto widest = [](const std::vector<Dense>& chain) {
    long w = 0;
    for (const auto& d : chain) w = std::max(w, std::max(d.in, d.out));
    return w;
  };
  maxSeqWidth_ = widest(muHead_);
  for (const auto& cp : blocks_) {
    maxSeqWidth_ = std::max(maxSeqWidth_, widest(cp.s1));
    maxSeqWidth_ = std::max(maxSeqWidth_, widest(cp.s2));
  }
}

void InferenceEngine::runChain(const std::vector<Dense>& chain,
                               const Real* in, long rows, Real* out,
                               Real* scratchA, Real* scratchB) {
  const Real* cur = in;
  for (std::size_t l = 0; l < chain.size(); ++l) {
    const Dense& d = chain[l];
    Real* dst = (l + 1 == chain.size()) ? out
                                        : (l % 2 == 0 ? scratchA : scratchB);
    ml::kernels::linear_forward(cur, d.w, d.b, dst, rows, d.in, d.out, d.act);
    cur = dst;
  }
}

void InferenceEngine::predictSpectra(const Real* clouds, long batch,
                                     long points, Real* out) {
  TRACE_SCOPE("serve", "engine_predict");
  ARTSCI_EXPECTS(batch >= 1 && points >= 1);
  ARTSCI_EXPECTS(!conv_.empty() && conv_.front().in == 6);

  // All workspaces are carved back to back from one buffer, which grows
  // to this call's exact total when that exceeds every earlier call's.
  long maxHalf = 0, maxRest = 0;
  for (const auto& cp : blocks_) {
    maxHalf = std::max(maxHalf, cp.half);
    maxRest = std::max(maxRest, cp.rest);
  }
  const long rowsTotal = batch * points;
  const long convLen = rowsTotal * maxConvWidth_;
  const long latentLen = batch * latentDim_;
  const long seqLen = batch * maxSeqWidth_;
  const long halfLen = std::max(batch * maxHalf, 1L);
  const long restLen = std::max(batch * maxRest, 1L);
  const long stLen = std::max(batch * 2 * std::max(maxHalf, maxRest), 1L);
  const long total = 2 * convLen + batch * features_ + 2 * latentLen +
                     2 * seqLen + halfLen + 2 * restLen + stLen;
  if (static_cast<std::size_t>(total) > workspace_.size())
    workspace_.resize(static_cast<std::size_t>(total));
  Real* next = workspace_.data();
  const auto carve = [&next](long n) {
    Real* p = next;
    next += n;
    return p;
  };
  Real* convA = carve(convLen);
  Real* convB = carve(convLen);
  Real* pooled = carve(batch * features_);
  Real* h = carve(latentLen);
  Real* seqA = carve(seqLen);
  Real* seqB = carve(seqLen);
  Real* x2 = carve(restLen);
  Real* y1 = carve(halfLen);
  Real* y2 = carve(restLen);
  Real* st = carve(stLen);
  Real* cat = carve(latentLen);

  // --- PointNet conv stack: one fused linear over all batch × points rows
  // per layer (rows never share an accumulator, so batching the samples
  // leaves every value as a one-sample call computes it).
  const Real* cur = clouds;
  Real* dst = convA;
  for (const Dense& d : conv_) {
    ml::kernels::linear_forward(cur, d.w, d.b, dst, rowsTotal, d.in, d.out,
                                d.act);
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

  // --- mu head: pooled features -> latent mean.
  runChain(muHead_, pooled, batch, h, seqA, seqB);

  // --- INN forward: z -> [I' || N'], block by block.
  for (const auto& cp : blocks_) {
    const long half = cp.half, rest = cp.rest, dim = half + rest;
    const Real invClamp = Real(1) / cp.clamp;
    for (long i = 0; i < batch; ++i) {
      const Real* hrow = h + i * dim;
      std::copy(hrow + half, hrow + dim, x2 + i * rest);
    }
    // y1 = x1 * exp(clamp * tanh(s1 / clamp)) + t1, with [s1||t1] from
    // subnet1(x2) — identical math to GlowCouplingBlock::forward.
    runChain(cp.s1, x2, batch, st, seqA, seqB);
    for (long i = 0; i < batch; ++i) {
      const Real* x1 = h + i * dim;
      const Real* strow = st + i * 2 * half;
      Real* y1row = y1 + i * half;
      for (long j = 0; j < half; ++j) {
        const Real s = cp.clamp * std::tanh(strow[j] * invClamp);
        y1row[j] = x1[j] * std::exp(s) + strow[half + j];
      }
    }
    runChain(cp.s2, y1, batch, st, seqA, seqB);
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
