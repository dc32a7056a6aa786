/// \file reference_graph.hpp
/// Test-only reference formulation of the model graphs — the correctness
/// oracle of the ml executor, kept out of src/ the way the naive GEMM and
/// the PIC reference step are.
///
/// Production code builds its graphs from zero-copy views (slice, reshape,
/// transpose2d, broadcastTo alias their input's storage) and fused
/// linear+bias+activation nodes. The functions below rebuild the same
/// layers from public ops the way the executor did before views and
/// fusion existed:
///
///  * every view is materialized at once with contiguousCopy, so each
///    consumer reads and accumulates into a dense buffer of its own;
///  * every activation is a separate relu / leakyRelu / tanhT node after an
///    un-activated ml::linear.
///
/// Values and gradients of the production graph must equal these bit for
/// bit, on the heap and in the step arena (tests/ml/test_arena.cpp).
#pragma once

#include <utility>
#include <vector>

#include "ml/coupling.hpp"
#include "ml/layers.hpp"
#include "ml/ops.hpp"

namespace artsci::ml::reference {

/// The activation as its own graph node.
inline Tensor activation(const Tensor& x, Activation act) {
  switch (act) {
    case Activation::kRelu:
      return relu(x);
    case Activation::kLeakyRelu:
      return leakyRelu(x, Real(0.01));
    case Activation::kTanh:
      return tanhT(x);
    case Activation::kNone:
      break;
  }
  return x;
}

/// Copying slice and reshape: the view, materialized.
inline Tensor copiedSlice(const Tensor& a, int axis, long start, long end) {
  return contiguousCopy(slice(a, axis, start, end));
}
inline Tensor copiedReshape(const Tensor& a, Shape newShape) {
  return contiguousCopy(reshape(a, std::move(newShape)));
}

/// Linear::forward, then the activation as a separate node.
inline Tensor linearLayer(const Linear& layer, const Tensor& x,
                          Activation act) {
  const long in = layer.inFeatures();
  Tensor h = x;
  if (x.ndim() != 2) h = copiedReshape(x, {x.numel() / in, in});
  Tensor y = linear(h, layer.weight(), layer.biasTensor());
  if (x.ndim() != 2) {
    Shape outShape = x.shape();
    outShape.back() = layer.outFeatures();
    y = copiedReshape(y, outShape);
  }
  return activation(y, act);
}

inline Tensor mlp(const Mlp& net, const Tensor& x) {
  Tensor h = x;
  const auto& layers = net.layers();
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const bool last = (i + 1 == layers.size());
    h = linearLayer(layers[i], h,
                    last ? net.outputActivation() : net.hiddenActivation());
  }
  return h;
}

inline PointNetEncoder::Moments encoder(const PointNetEncoder& enc,
                                        const Tensor& x) {
  Tensor h = x;
  for (const auto& layer : enc.pointLayers())
    h = linearLayer(layer, h, Activation::kLeakyRelu);
  Tensor pooled = maxAxis(h, /*axis=*/1);
  PointNetEncoder::Moments m;
  m.mu = mlp(enc.muHead(), pooled);
  m.logvar = mulScalar(
      tanhT(mulScalar(mlp(enc.logvarHead(), pooled), Real(1) / Real(10))),
      Real(10));
  return m;
}

/// VoxelDecoder::forward rebuilt from the decoder's parameters() (fc
/// weight and bias, then each deconv's) and makeVoxelShufflePermutation.
inline Tensor decoder(const VoxelDecoder& dec, const Tensor& z) {
  const VoxelDecoder::Config& cfg = dec.config();
  const std::vector<Tensor> ps = dec.parameters();
  const long B = z.dim(0);
  Tensor h = activation(linear(z, ps[0], ps[1]), Activation::kLeakyRelu);
  long V = cfg.baseGrid;
  const std::size_t stages = cfg.channels.size() - 1;
  for (std::size_t s = 0; s < stages; ++s) {
    const long cin = cfg.channels[s];
    const long cout = cfg.channels[s + 1];
    h = copiedReshape(h, {B * V * V * V, cin});
    h = linear(h, ps[2 + 2 * s], ps[3 + 2 * s]);
    h = copiedReshape(h, {B, V * V * V * 8 * cout});
    h = permuteLast(h, makeVoxelShufflePermutation(V, cout));
    if (s + 1 < stages) h = activation(h, Activation::kLeakyRelu);
    V *= 2;
  }
  return copiedReshape(h, {B, V * V * V, cfg.channels.back()});
}

/// One Glow coupling subnet: s||t from the subnet, soft-clamped scale.
inline void couplingSubnet(const GlowCouplingBlock& block, const Mlp& net,
                           const Tensor& in, long outHalf, Tensor& scale,
                           Tensor& shift) {
  Tensor st = mlp(net, in);
  Tensor rawScale = copiedSlice(st, -1, 0, outHalf);
  shift = copiedSlice(st, -1, outHalf, 2 * outHalf);
  const Real clamp = block.clampValue();
  scale = mulScalar(tanhT(mulScalar(rawScale, Real(1) / clamp)), clamp);
}

/// GlowCouplingBlock::forward.
inline Tensor coupling(const GlowCouplingBlock& block, const Tensor& x) {
  const long half = block.half(), dim = block.dim();
  Tensor x1 = copiedSlice(x, -1, 0, half);
  Tensor x2 = copiedSlice(x, -1, half, dim);
  Tensor s1, t1, s2, t2;
  couplingSubnet(block, block.subnet1(), x2, half, s1, t1);
  Tensor y1 = add(mul(x1, expT(s1)), t1);
  couplingSubnet(block, block.subnet2(), y1, dim - half, s2, t2);
  Tensor y2 = add(mul(x2, expT(s2)), t2);
  return cat({y1, y2}, -1);
}

/// Inn::forward.
inline Tensor inn(const Inn& net, const Tensor& x) {
  Tensor h = x;
  for (int b = 0; b < net.blockCount(); ++b) {
    h = coupling(net.block(b), h);
    h = permuteLast(h, net.permutation(b).permutation());
  }
  return h;
}

}  // namespace artsci::ml::reference
