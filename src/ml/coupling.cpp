#include "ml/coupling.hpp"

#include <numeric>

namespace artsci::ml {

GlowCouplingBlock::GlowCouplingBlock(long dim, std::vector<long> hidden,
                                     Rng& rng, Real clamp)
    : dim_(dim), half_(dim / 2), clamp_(clamp) {
  ARTSCI_EXPECTS_MSG(dim % 2 == 0, "coupling block width must be even");
  ARTSCI_EXPECTS(clamp > 0);
  auto makeSubnet = [&](long inDim, long outHalf) {
    std::vector<long> dims;
    dims.push_back(inDim);
    for (long h : hidden) dims.push_back(h);
    dims.push_back(2 * outHalf);
    Subnet s;
    s.net = std::make_unique<Mlp>(dims, rng);
    s.outHalf = outHalf;
    return s;
  };
  // subnet1 reads x2 (dim - half) and writes s,t for x1 (half);
  // subnet2 reads y1 (half) and writes s,t for x2 (dim - half).
  s1_ = makeSubnet(dim_ - half_, half_);
  s2_ = makeSubnet(half_, dim_ - half_);
}

Tensor GlowCouplingBlock::runSubnet(const Subnet& s, const Tensor& in,
                                    Tensor& scale, Tensor& shift) const {
  Tensor st = s.net->forward(in);
  // Column-slice views: zero-copy; downstream elementwise ops read them
  // through strides.
  Tensor rawScale = slice(st, /*axis=*/-1, 0, s.outHalf);
  shift = slice(st, /*axis=*/-1, s.outHalf, 2 * s.outHalf);
  // Soft clamp: s -> clamp * tanh(s / clamp), keeps exp(s) in
  // [exp(-clamp), exp(clamp)] so forward and inverse stay well-conditioned.
  scale = mulScalar(tanhT(mulScalar(rawScale, Real(1) / clamp_)), clamp_);
  return st;
}

Tensor GlowCouplingBlock::forward(const Tensor& x) const {
  ARTSCI_EXPECTS(x.dim(-1) == dim_);
  Tensor x1 = slice(x, -1, 0, half_);
  Tensor x2 = slice(x, -1, half_, dim_);
  Tensor s1, t1;
  runSubnet(s1_, x2, s1, t1);
  Tensor y1 = add(mul(x1, expT(s1)), t1);
  Tensor s2, t2;
  runSubnet(s2_, y1, s2, t2);
  Tensor y2 = add(mul(x2, expT(s2)), t2);
  return cat({y1, y2}, -1);
}

Tensor GlowCouplingBlock::inverse(const Tensor& y) const {
  ARTSCI_EXPECTS(y.dim(-1) == dim_);
  Tensor y1 = slice(y, -1, 0, half_);
  Tensor y2 = slice(y, -1, half_, dim_);
  Tensor s2, t2;
  runSubnet(s2_, y1, s2, t2);
  Tensor x2 = mul(sub(y2, t2), expT(neg(s2)));
  Tensor s1, t1;
  runSubnet(s1_, x2, s1, t1);
  Tensor x1 = mul(sub(y1, t1), expT(neg(s1)));
  return cat({x1, x2}, -1);
}

std::vector<Tensor> GlowCouplingBlock::parameters() const {
  std::vector<Tensor> ps = s1_.net->parameters();
  for (const auto& p : s2_.net->parameters()) ps.push_back(p);
  return ps;
}

FeaturePermutation::FeaturePermutation(long dim, Rng& rng) {
  perm_.resize(static_cast<std::size_t>(dim));
  std::iota(perm_.begin(), perm_.end(), 0L);
  // Fisher-Yates with the provided deterministic generator.
  for (long i = dim - 1; i > 0; --i) {
    const long j = static_cast<long>(
        rng.uniformInt(static_cast<std::uint64_t>(i + 1)));
    std::swap(perm_[static_cast<std::size_t>(i)],
              perm_[static_cast<std::size_t>(j)]);
  }
  inversePerm_.resize(perm_.size());
  for (long i = 0; i < dim; ++i)
    inversePerm_[static_cast<std::size_t>(perm_[static_cast<std::size_t>(i)])] =
        i;
}

Tensor FeaturePermutation::forward(const Tensor& x) const {
  return permuteLast(x, perm_);
}

Tensor FeaturePermutation::inverse(const Tensor& y) const {
  return permuteLast(y, inversePerm_);
}

Inn::Inn(Config cfg, Rng& rng) : cfg_(cfg) {
  ARTSCI_EXPECTS(cfg_.blocks >= 1);
  // Permutations come from their own config-seeded stream (see Config);
  // `rng` only initializes weights, which checkpoints overwrite anyway.
  Rng permRng(cfg_.permSeed);
  for (int b = 0; b < cfg_.blocks; ++b) {
    blocks_.push_back(std::make_unique<GlowCouplingBlock>(
        cfg_.dim, cfg_.hidden, rng, cfg_.clamp));
    perms_.emplace_back(cfg_.dim, permRng);
  }
}

Tensor Inn::forward(const Tensor& x) const {
  Tensor h = x;
  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    h = blocks_[b]->forward(h);
    h = perms_[b].forward(h);
  }
  return h;
}

Tensor Inn::inverse(const Tensor& y) const {
  Tensor h = y;
  for (std::size_t b = blocks_.size(); b-- > 0;) {
    h = perms_[b].inverse(h);
    h = blocks_[b]->inverse(h);
  }
  return h;
}

std::vector<Tensor> Inn::parameters() const {
  std::vector<Tensor> ps;
  for (const auto& b : blocks_)
    for (const auto& p : b->parameters()) ps.push_back(p);
  return ps;
}

}  // namespace artsci::ml
