/// \file model.hpp
/// The Artificial Scientist's ML model (paper Fig 7): a PointNet-style
/// variational autoencoder over particle phase-space point clouds, coupled
/// to a Glow-block INN that maps the VAE latent z invertibly to
/// [I' || N'] — the predicted radiation spectrum concatenated with a
/// normal latent. Training minimizes Eq. (1); inversion draws posterior
/// samples z' = INN^{-1}([I, N~N(0,1)]) and decodes them to point clouds.
#pragma once

#include <memory>

#include "ml/coupling.hpp"
#include "ml/layers.hpp"
#include "ml/losses.hpp"

namespace artsci::core {

class ArtificialScientistModel : public ml::Module {
 public:
  struct Config {
    ml::PointNetEncoder::Config encoder;
    ml::VoxelDecoder::Config decoder;
    ml::Inn::Config inn;
    long spectrumDim = 32;  ///< width of I inside the INN output
    ml::LossWeights weights;

    /// The paper-scale architecture (§IV-C): encoder 6->...->608, latent
    /// 544, decoder 4^3x16 -> 4096 points, 4 Glow blocks with 272/256
    /// subnets. ~4.3M parameters.
    static Config paper();
    /// Reduced preset that trains in CPU-minutes: latent 64, 128-point
    /// clouds, 64-point reconstructions, 32-bin spectra.
    static Config reduced();
  };

  ArtificialScientistModel(Config cfg, Rng& rng);

  /// All five loss terms of Eq.(1) for one batch.
  /// clouds: [B, N, 6]; spectra: [B, spectrumDim].
  ml::LossTerms lossTerms(const ml::Tensor& clouds, const ml::Tensor& spectra,
                          Rng& rng) const;

  /// Weighted total loss (Eq. 1).
  ml::Tensor loss(const ml::Tensor& clouds, const ml::Tensor& spectra,
                  Rng& rng) const;

  /// Inverse problem: sample point clouds explaining `spectra` [B, S].
  /// Each draw uses fresh N ~ N(0,1), sampling the learned posterior.
  ml::Tensor invertSpectra(const ml::Tensor& spectra, Rng& rng) const;

  /// Forward surrogate: predict spectra from particle clouds [B, N, 6]
  /// (encoder mean -> INN forward -> I' slice).
  ml::Tensor predictSpectra(const ml::Tensor& clouds) const;

  /// Latent mean of clouds (for the latent-space region classifier).
  ml::Tensor encodeMean(const ml::Tensor& clouds) const;

  std::vector<ml::Tensor> parameters() const override;
  /// Parameter groups for the paper's separate l_VAE / l_INN rates.
  std::vector<ml::Tensor> vaeParameters() const;
  std::vector<ml::Tensor> innParameters() const;

  const Config& config() const { return cfg_; }
  long cloudPoints() const { return decoder_->pointCount(); }

  /// Introspection for graph-free executors (serve::InferenceEngine).
  const ml::PointNetEncoder& encoder() const { return *encoder_; }
  const ml::VoxelDecoder& decoder() const { return *decoder_; }
  const ml::Inn& inn() const { return *inn_; }

 private:
  Config cfg_;
  std::unique_ptr<ml::PointNetEncoder> encoder_;
  std::unique_ptr<ml::VoxelDecoder> decoder_;
  std::unique_ptr<ml::Inn> inn_;
};

/// Deep copy of `src` for serving: same config, parameter values copied,
/// requiresGrad cleared so forward passes build no autodiff graph. The
/// result is immutable by convention (shared_ptr<const>) and safe to use
/// from many threads concurrently — forward passes never mutate a model.
std::shared_ptr<const ArtificialScientistModel> cloneForInference(
    const ArtificialScientistModel& src);

}  // namespace artsci::core
