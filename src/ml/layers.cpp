#include "ml/layers.hpp"

#include <cmath>

namespace artsci::ml {

long Module::parameterCount() const {
  long n = 0;
  for (const auto& p : parameters()) n += p.numel();
  return n;
}

Linear::Linear(long in, long out, Rng& rng, bool bias) : in_(in), out_(out) {
  ARTSCI_EXPECTS(in > 0 && out > 0);
  // Xavier-uniform initialization.
  const Real bound = std::sqrt(Real(6) / static_cast<Real>(in + out));
  weight_ = Tensor::zeros({in, out}, /*requiresGrad=*/true);
  for (Real& w : weight_.data())
    w = static_cast<Real>(rng.uniform(-bound, bound));
  if (bias) bias_ = Tensor::zeros({out}, /*requiresGrad=*/true);
}

Tensor Linear::forward(const Tensor& x, Activation act) const {
  ARTSCI_EXPECTS_MSG(x.dim(-1) == in_, "Linear(" << in_ << "->" << out_
                                                 << ") got input "
                                                 << shapeToString(x.shape()));
  Tensor h = x;
  Shape original = x.shape();
  const bool needReshape = x.ndim() != 2;
  if (needReshape) h = reshape(h, {x.numel() / in_, in_});
  // Fused matmul+bias+activation node on the shared blocked kernels
  // (same bits as matmul-then-add-then-activate: k-ascending
  // accumulation, bias last, activation after).
  Tensor y = linear(h, weight_, bias_, act);
  if (needReshape) {
    Shape outShape = original;
    outShape.back() = out_;
    y = reshape(y, outShape);
  }
  return y;
}

std::vector<Tensor> Linear::parameters() const {
  std::vector<Tensor> ps{weight_};
  if (bias_.defined()) ps.push_back(bias_);
  return ps;
}

Mlp::Mlp(std::vector<long> dims, Rng& rng, Activation hidden,
         Activation output)
    : dims_(std::move(dims)), hidden_(hidden), output_(output) {
  ARTSCI_EXPECTS(dims_.size() >= 2);
  layers_.reserve(dims_.size() - 1);
  for (std::size_t i = 0; i + 1 < dims_.size(); ++i)
    layers_.emplace_back(dims_[i], dims_[i + 1], rng);
}

Tensor Mlp::forward(const Tensor& x) const {
  Tensor h = x;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const bool last = (i + 1 == layers_.size());
    h = layers_[i].forward(h, last ? output_ : hidden_);
  }
  return h;
}

std::vector<Tensor> Mlp::parameters() const {
  std::vector<Tensor> ps;
  for (const auto& l : layers_)
    for (const auto& p : l.parameters()) ps.push_back(p);
  return ps;
}

PointNetEncoder::PointNetEncoder(Config cfg, Rng& rng) : cfg_(std::move(cfg)) {
  ARTSCI_EXPECTS(cfg_.channels.size() >= 2);
  pointLayers_.reserve(cfg_.channels.size() - 1);
  for (std::size_t i = 0; i + 1 < cfg_.channels.size(); ++i)
    pointLayers_.emplace_back(cfg_.channels[i], cfg_.channels[i + 1], rng);
  const long feat = cfg_.channels.back();
  muHead_ = std::make_unique<Mlp>(
      std::vector<long>{feat, cfg_.headHidden, cfg_.latentDim}, rng);
  logvarHead_ = std::make_unique<Mlp>(
      std::vector<long>{feat, cfg_.headHidden, cfg_.latentDim}, rng);
}

PointNetEncoder::Moments PointNetEncoder::forward(const Tensor& x) const {
  ARTSCI_EXPECTS_MSG(x.ndim() == 3, "encoder expects [B, N, C], got "
                                        << shapeToString(x.shape()));
  ARTSCI_EXPECTS(x.dim(2) == cfg_.channels.front());
  Tensor h = x;
  for (const auto& layer : pointLayers_)
    h = layer.forward(h, Activation::kLeakyRelu);
  // Transposition-invariant pooling over the particle axis.
  Tensor pooled = maxAxis(h, /*axis=*/1);  // [B, feat]
  Moments m;
  m.mu = muHead_->forward(pooled);
  // Soft clamp keeps exp(logvar) finite for untrained networks.
  m.logvar = mulScalar(tanhT(mulScalar(logvarHead_->forward(pooled),
                                       Real(1) / Real(10))),
                       Real(10));
  return m;
}

Tensor PointNetEncoder::sample(const Moments& m, Rng& rng) const {
  Tensor eps = Tensor::randn(m.mu.shape(), rng);
  Tensor sigma = expT(mulScalar(m.logvar, Real(0.5)));
  return add(m.mu, mul(sigma, eps));
}

std::vector<Tensor> PointNetEncoder::parameters() const {
  std::vector<Tensor> ps;
  for (const auto& l : pointLayers_)
    for (const auto& p : l.parameters()) ps.push_back(p);
  for (const auto& p : muHead_->parameters()) ps.push_back(p);
  for (const auto& p : logvarHead_->parameters()) ps.push_back(p);
  return ps;
}

std::vector<long> makeVoxelShufflePermutation(long V, long channelsOut) {
  // Input layout per sample (flattened): index = v * (8*C) + k * C + c,
  // where v = (vx*V + vy)*V + vz, k = (kx*2 + ky)*2 + kz.
  // Output layout: index = p * C + c with p = (px*2V + py)*2V + pz,
  // px = 2*vx + kx (likewise y, z).
  const long C = channelsOut;
  const long L = V * V * V * 8 * C;
  std::vector<long> perm(static_cast<std::size_t>(L));
  const long W = 2 * V;
  for (long vx = 0; vx < V; ++vx) {
    for (long vy = 0; vy < V; ++vy) {
      for (long vz = 0; vz < V; ++vz) {
        const long v = (vx * V + vy) * V + vz;
        for (long k = 0; k < 8; ++k) {
          const long kx = k / 4, ky = (k / 2) % 2, kz = k % 2;
          const long px = 2 * vx + kx, py = 2 * vy + ky, pz = 2 * vz + kz;
          const long p = (px * W + py) * W + pz;
          for (long c = 0; c < C; ++c) {
            perm[static_cast<std::size_t>(p * C + c)] = v * (8 * C) + k * C + c;
          }
        }
      }
    }
  }
  return perm;
}

VoxelDecoder::VoxelDecoder(Config cfg, Rng& rng) : cfg_(std::move(cfg)) {
  ARTSCI_EXPECTS(cfg_.channels.size() >= 2);
  ARTSCI_EXPECTS(cfg_.baseGrid >= 1);
  const long V0 = cfg_.baseGrid;
  fc_ = std::make_unique<Linear>(cfg_.latentDim,
                                 V0 * V0 * V0 * cfg_.channels.front(), rng);
  long V = V0;
  for (std::size_t s = 0; s + 1 < cfg_.channels.size(); ++s) {
    const long cin = cfg_.channels[s];
    const long cout = cfg_.channels[s + 1];
    deconvs_.emplace_back(cin, cout * 8, rng);
    shuffles_.push_back(makeVoxelShufflePermutation(V, cout));
    gridSizes_.push_back(V);
    V *= 2;
  }
  pointCount_ = V * V * V;
}

Tensor VoxelDecoder::forward(const Tensor& z) const {
  ARTSCI_EXPECTS(z.ndim() == 2 && z.dim(1) == cfg_.latentDim);
  const long B = z.dim(0);
  Tensor h = fc_->forward(z, Activation::kLeakyRelu);  // [B, V0^3*C0]
  for (std::size_t s = 0; s < deconvs_.size(); ++s) {
    const long V = gridSizes_[s];
    const long cin = cfg_.channels[s];
    // per-voxel linear map: [B*V^3, cin] -> [B*V^3, 8*cout]
    h = reshape(h, {B * V * V * V, cin});
    h = deconvs_[s].forward(h);
    h = reshape(h, {B, V * V * V * 8 * cfg_.channels[s + 1]});
    h = permuteLast(h, shuffles_[s]);
    const bool last = (s + 1 == deconvs_.size());
    if (!last) h = leakyRelu(h, Real(0.01));
  }
  return reshape(h, {B, pointCount_, cfg_.channels.back()});
}

std::vector<Tensor> VoxelDecoder::parameters() const {
  std::vector<Tensor> ps = fc_->parameters();
  for (const auto& l : deconvs_)
    for (const auto& p : l.parameters()) ps.push_back(p);
  return ps;
}

}  // namespace artsci::ml
