#include "core/model.hpp"

#include "ml/serialize.hpp"

namespace artsci::core {

using ml::Tensor;

ArtificialScientistModel::Config ArtificialScientistModel::Config::paper() {
  Config cfg;
  // Encoder: 1x1 convs 6->16->32->64->128->256->608, heads 608->544->544.
  cfg.encoder.channels = {6, 16, 32, 64, 128, 256, 608};
  cfg.encoder.headHidden = 544;
  cfg.encoder.latentDim = 544;
  // Decoder: FC -> (4,4,4,16), deconv 16->8->6 (kernel=stride=2^3).
  cfg.decoder.latentDim = 544;
  cfg.decoder.baseGrid = 4;
  cfg.decoder.channels = {16, 8, 6};
  // INN: 4 Glow blocks, subnets ->272->256->544.
  cfg.inn.dim = 544;
  cfg.inn.blocks = 4;
  cfg.inn.hidden = {272, 256};
  cfg.spectrumDim = 128;
  return cfg;
}

ArtificialScientistModel::Config ArtificialScientistModel::Config::reduced() {
  Config cfg;
  cfg.encoder.channels = {6, 16, 32, 64};
  cfg.encoder.headHidden = 64;
  cfg.encoder.latentDim = 64;
  cfg.decoder.latentDim = 64;
  cfg.decoder.baseGrid = 2;
  cfg.decoder.channels = {8, 6};  // 2^3 -> 4^3 = 64 output points
  cfg.inn.dim = 64;
  cfg.inn.blocks = 4;
  cfg.inn.hidden = {48, 48};
  cfg.spectrumDim = 32;
  return cfg;
}

ArtificialScientistModel::ArtificialScientistModel(Config cfg, Rng& rng)
    : cfg_(std::move(cfg)) {
  ARTSCI_EXPECTS_MSG(cfg_.encoder.latentDim == cfg_.inn.dim,
                     "INN width must equal the VAE latent dimension");
  ARTSCI_EXPECTS_MSG(cfg_.decoder.latentDim == cfg_.encoder.latentDim,
                     "decoder latent must equal encoder latent");
  ARTSCI_EXPECTS_MSG(cfg_.spectrumDim < cfg_.inn.dim,
                     "spectrum must fit inside the INN output");
  encoder_ = std::make_unique<ml::PointNetEncoder>(cfg_.encoder, rng);
  decoder_ = std::make_unique<ml::VoxelDecoder>(cfg_.decoder, rng);
  inn_ = std::make_unique<ml::Inn>(cfg_.inn, rng);
}

ml::LossTerms ArtificialScientistModel::lossTerms(const Tensor& clouds,
                                                  const Tensor& spectra,
                                                  Rng& rng) const {
  ARTSCI_EXPECTS(clouds.ndim() == 3 && clouds.dim(2) == 6);
  ARTSCI_EXPECTS(spectra.ndim() == 2 &&
                 spectra.dim(1) == cfg_.spectrumDim);
  const long B = clouds.dim(0);
  ARTSCI_EXPECTS(spectra.dim(0) == B);
  const long latent = cfg_.encoder.latentDim;
  const long noiseDim = latent - cfg_.spectrumDim;

  ml::LossTerms terms;

  // --- VAE path --------------------------------------------------------
  const auto moments = encoder_->forward(clouds);
  Tensor z = encoder_->sample(moments, rng);
  Tensor reconstruction = decoder_->forward(z);
  terms.chamfer = ml::chamferDistance(clouds, reconstruction);
  terms.kl = ml::klStandardNormal(moments.mu, moments.logvar);

  // --- INN forward: z -> [I' || N'] -------------------------------------
  Tensor y = inn_->forward(z);
  // Zero-copy column views into the INN output; the loss ops read them
  // through strides (or feed GEMM via lda) without materialising.
  Tensor iPred = ml::slice(y, -1, 0, cfg_.spectrumDim);
  Tensor nPred = ml::slice(y, -1, cfg_.spectrumDim, latent);
  terms.mse = ml::mseLoss(iPred, spectra);
  Tensor nTarget = Tensor::randn({B, noiseDim}, rng);
  terms.mmdPosterior = ml::mmdInverseMultiquadratic(nPred, nTarget);

  // --- INN backward: [I, N~] -> z' ---------------------------------------
  Tensor noise = Tensor::randn({B, noiseDim}, rng);
  Tensor zPrime = inn_->inverse(ml::cat({spectra, noise}, -1));
  terms.mmdLatent = ml::mmdInverseMultiquadratic(zPrime, z);

  return terms;
}

Tensor ArtificialScientistModel::loss(const Tensor& clouds,
                                      const Tensor& spectra,
                                      Rng& rng) const {
  return ml::totalLoss(lossTerms(clouds, spectra, rng), cfg_.weights);
}

Tensor ArtificialScientistModel::invertSpectra(const Tensor& spectra,
                                               Rng& rng) const {
  ARTSCI_EXPECTS(spectra.ndim() == 2 &&
                 spectra.dim(1) == cfg_.spectrumDim);
  const long B = spectra.dim(0);
  const long noiseDim = cfg_.encoder.latentDim - cfg_.spectrumDim;
  Tensor noise = Tensor::randn({B, noiseDim}, rng);
  Tensor z = inn_->inverse(ml::cat({spectra, noise}, -1));
  // The decoder tail is a zero-copy reshape view; public API results are
  // owned tensors (callers read .data()), so materialize here.
  return ml::contiguousCopy(decoder_->forward(z));
}

Tensor ArtificialScientistModel::predictSpectra(const Tensor& clouds) const {
  const auto moments = encoder_->forward(clouds);
  Tensor y = inn_->forward(moments.mu);
  // An owned tensor, like invertSpectra's result, not a column view.
  return ml::contiguousCopy(ml::slice(y, -1, 0, cfg_.spectrumDim));
}

Tensor ArtificialScientistModel::encodeMean(const Tensor& clouds) const {
  return encoder_->forward(clouds).mu;
}

std::vector<Tensor> ArtificialScientistModel::parameters() const {
  auto ps = vaeParameters();
  for (const auto& p : innParameters()) ps.push_back(p);
  return ps;
}

std::vector<Tensor> ArtificialScientistModel::vaeParameters() const {
  auto ps = encoder_->parameters();
  for (const auto& p : decoder_->parameters()) ps.push_back(p);
  return ps;
}

std::vector<Tensor> ArtificialScientistModel::innParameters() const {
  return inn_->parameters();
}

std::shared_ptr<const ArtificialScientistModel> cloneForInference(
    const ArtificialScientistModel& src) {
  // The init RNG only seeds weights that copyParameters overwrites; the
  // INN permutations come from the config (Inn::Config::permSeed), so the
  // clone reproduces `src` exactly.
  Rng initRng(1);
  auto copy = std::make_shared<ArtificialScientistModel>(src.config(), initRng);
  auto dst = copy->parameters();
  ml::copyParameters(src.parameters(), dst);
  for (auto& p : dst) p.setRequiresGrad(false);
  return copy;
}

}  // namespace artsci::core
