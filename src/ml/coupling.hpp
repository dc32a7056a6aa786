/// \file coupling.hpp
/// Invertible neural network (INN) built from Glow-style affine coupling
/// blocks [Kingma & Dhariwal 2018; Ardizzone et al. 2018] with fixed random
/// channel permutations between blocks (paper: "four Glow coupling blocks
/// using MLPs with ->272->256->544 hidden layers as subnets").
///
/// For the inverse problem the INN maps the particle latent z (dim 544)
/// invertibly to [I' || N']: the predicted radiation spectrum I'
/// concatenated with a normal latent N'. Sampling the inverse direction
/// with the observed spectrum I and N ~ N(0,1) draws from the posterior of
/// latents explaining that spectrum — the ill-posed inversion of Fig 2(a).
#pragma once

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "ml/layers.hpp"

namespace artsci::ml {

/// One affine coupling block transforming both halves (FrEIA GLOW style):
///   [x1, x2] -> y1 = x1 .* exp(s1(x2)) + t1(x2)
///              y2 = x2 .* exp(s2(y1)) + t2(y1)
/// with soft-clamped log-scales s = clamp * tanh(raw / clamp) for stability.
/// Exactly invertible in closed form.
class GlowCouplingBlock : public Module {
 public:
  /// `dim` is the (even) block width; `hidden` are the subnet hidden
  /// layer sizes (paper: {272, 256}).
  GlowCouplingBlock(long dim, std::vector<long> hidden, Rng& rng,
                    Real clamp = Real(2));

  Tensor forward(const Tensor& x) const;
  Tensor inverse(const Tensor& y) const;

  std::vector<Tensor> parameters() const override;

  long dim() const { return dim_; }
  /// Introspection for graph-free executors (serve::InferenceEngine).
  long half() const { return half_; }
  Real clampValue() const { return clamp_; }
  const Mlp& subnet1() const { return *s1_.net; }
  const Mlp& subnet2() const { return *s2_.net; }

 private:
  struct Subnet {
    std::unique_ptr<Mlp> net;
    long outHalf;  ///< produces s||t of this many features each
  };
  Tensor runSubnet(const Subnet& s, const Tensor& in, Tensor& scale,
                   Tensor& shift) const;

  long dim_, half_;
  Real clamp_;
  Subnet s1_, s2_;
};

/// Fixed random permutation of features (orthogonal "1x1 convolution"
/// substitute used by FrEIA's PermuteRandom).
class FeaturePermutation {
 public:
  FeaturePermutation(long dim, Rng& rng);

  Tensor forward(const Tensor& x) const;
  Tensor inverse(const Tensor& y) const;

  /// Gather indices: forward output feature i reads input feature perm[i].
  const std::vector<long>& permutation() const { return perm_; }

 private:
  std::vector<long> perm_, inversePerm_;
};

/// Stack of coupling blocks with interleaved permutations.
class Inn : public Module {
 public:
  struct Config {
    long dim = 544;                   ///< width of the invertible map
    int blocks = 4;                   ///< paper: four Glow blocks
    std::vector<long> hidden{272, 256};  ///< subnet hidden sizes
    Real clamp = Real(2);
    /// Seed for the fixed inter-block permutations. Kept in the config —
    /// not drawn from the weight-init RNG — so that (config, checkpoint)
    /// fully determines the network: a model restored from
    /// ml::loadParameters reproduces the original bit for bit regardless
    /// of the seed its weights were initialized with.
    std::uint64_t permSeed = 0x70657253ULL;
  };

  Inn(Config cfg, Rng& rng);

  /// z -> y (== [I' || N'] in the inverse-problem wiring).
  Tensor forward(const Tensor& x) const;
  /// y -> z; exact inverse of forward.
  Tensor inverse(const Tensor& y) const;

  std::vector<Tensor> parameters() const override;
  const Config& config() const { return cfg_; }
  /// Introspection for graph-free executors (serve::InferenceEngine).
  int blockCount() const { return static_cast<int>(blocks_.size()); }
  const GlowCouplingBlock& block(int i) const { return *blocks_.at(i); }
  const FeaturePermutation& permutation(int i) const { return perms_.at(i); }

 private:
  Config cfg_;
  std::vector<std::unique_ptr<GlowCouplingBlock>> blocks_;
  std::vector<FeaturePermutation> perms_;
};

}  // namespace artsci::ml
