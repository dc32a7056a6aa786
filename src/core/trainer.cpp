#include "core/trainer.hpp"

#include <algorithm>
#include <string>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "common/timer.hpp"
#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace artsci::core {
namespace {

/// The paper's optimizer settings (§V-A.1): the VAE group learns at m_VAE
/// times the INN group's rate, and both follow the square-root rule [60]
/// from the batch the base learning rate was tuned at.
constexpr double kVaeLearningRateFactor = 3.0;
constexpr long kBaseBatch = 8;

}  // namespace

InTransitTrainer::InTransitTrainer(ArtificialScientistModel::Config modelCfg,
                                   TrainerConfig cfg)
    : cfg_(cfg), modelCfg_(modelCfg), buffer_(cfg.buffer, cfg.seed),
      comm_(cfg.ranks), team_(cfg.ranks) {
  ARTSCI_EXPECTS(cfg_.ranks >= 1);
  Rng seeder(cfg_.seed);
  for (std::size_t r = 0; r < cfg_.ranks; ++r) {
    // Identical init on every rank (DDP replicas): same init RNG seed.
    Rng initRng(cfg_.seed + 1);
    replicas_.push_back(
        std::make_unique<ArtificialScientistModel>(modelCfg_, initRng));
    replicaParams_.push_back(replicas_.back()->parameters());
    rankRngs_.push_back(seeder.split());
    arenas_.push_back(std::make_unique<ml::Arena>());
  }
  const long totalBatch =
      static_cast<long>(cfg_.ranks) *
      static_cast<long>(cfg_.buffer.nowPerBatch + cfg_.buffer.epPerBatch);
  const ml::Real scale =
      ml::sqrtScaledLearningRate(1.0, totalBatch, kBaseBatch);
  std::vector<ml::ParamGroup> groups;
  groups.push_back({replicas_[0]->vaeParameters(),
                    cfg_.baseLearningRate * kVaeLearningRateFactor * scale});
  groups.push_back(
      {replicas_[0]->innParameters(), cfg_.baseLearningRate * scale});
  optimizer_ = std::make_unique<ml::Adam>(std::move(groups), cfg_.adam);
  team_.run([](std::size_t rank) {
    obs::TraceRecorder::instance().setThreadName("trainer rank " +
                                                 std::to_string(rank));
  });
}

ml::Arena::Stats InTransitTrainer::arenaStats(std::size_t rank) const {
  ARTSCI_EXPECTS(rank < arenas_.size());
  return arenas_[rank]->stats();
}

std::pair<ml::Real, ml::Real> InTransitTrainer::learningRates() const {
  return {optimizer_->learningRate(0), optimizer_->learningRate(1)};
}

const ArtificialScientistModel& InTransitTrainer::model(
    std::size_t rank) const {
  ARTSCI_EXPECTS(rank < replicas_.size());
  return *replicas_[rank];
}

std::shared_ptr<const ArtificialScientistModel> InTransitTrainer::exportSnapshot()
    const {
  return cloneForInference(model(0));
}

TrainerCheckpointState InTransitTrainer::captureCheckpointState() const {
  TrainerCheckpointState s;
  s.adamPacked = optimizer_->packedState();
  s.adamStep = optimizer_->stepCount();
  for (const auto& rng : rankRngs_) s.rankRngs.push_back(rng.state());
  s.buffer = buffer_.snapshot();
  s.iterations = stats_.iterations;
  return s;
}

void InTransitTrainer::restoreCheckpointState(
    const TrainerCheckpointState& s) {
  ARTSCI_CHECK_MSG(s.rankRngs.size() == cfg_.ranks,
                   "checkpoint has " << s.rankRngs.size()
                                     << " rank RNG states, trainer has "
                                     << cfg_.ranks << " ranks");
  const auto& tensors = replicaParams_[0];
  ARTSCI_CHECK_MSG(s.params.size() == tensors.size(),
                   "checkpoint has " << s.params.size()
                                     << " parameter tensors, model has "
                                     << tensors.size());
  for (std::size_t i = 0; i < tensors.size(); ++i)
    ARTSCI_CHECK_MSG(s.params[i].size() == tensors[i].data().size(),
                     "checkpoint tensor " << i << " has "
                                          << s.params[i].size()
                                          << " values, model tensor has "
                                          << tensors[i].data().size());
  // All-or-nothing beyond this point: restorePackedState validates the
  // Adam layout before mutating, and everything after it cannot fail.
  optimizer_->restorePackedState(s.adamPacked, s.adamStep);
  for (std::size_t r = 0; r < cfg_.ranks; ++r) {
    for (std::size_t i = 0; i < replicaParams_[r].size(); ++i)
      replicaParams_[r][i].data() = s.params[i];
    rankRngs_[r].setState(s.rankRngs[r]);
  }
  buffer_.restore(s.buffer);
  stats_.iterations = s.iterations;
}

void InTransitTrainer::trainIterations(long iterations) {
  // Injected once per call, before the rank team runs.
  FAULT_POINT("train.step");
  if (!buffer_.ready()) return;
  Timer timer;
  const long specDim = modelCfg_.spectrumDim;

  // Resolved once; rank 0 is the reporter so multi-rank runs don't
  // multiply-count iterations (replicas step in lockstep).
  static obs::Counter& iterCounter =
      obs::Registry::global().counter("train.iterations");
  static obs::Histogram& stepMs =
      obs::Registry::global().histogram("train.step_ms");

#ifdef _OPENMP
  // libgomp ICVs do not propagate to other threads: each rank sets its own
  // team size, an equal share of the caller's, so that the R rank teams fit
  // the caller's cores (as a multi-rank pic::Simulation does).
  const int rankThreads =
      std::max(1, omp_get_max_threads() / static_cast<int>(cfg_.ranks));
#endif
  const auto trainRank = [&](std::size_t rank) {
    auto& model = *replicas_[rank];
    auto& rng = rankRngs_[rank];
    for (long it = 0; it < iterations; ++it) {
      Timer iterTimer;
      // Per-rank RNG: the draw sequence is reproducible no matter how the
      // rank threads interleave on the shared buffer.
      const auto batch = buffer_.sampleBatch(rng);
      // batchClouds rejects any cloud of another size than the first.
      const long points = static_cast<long>(batch.front().cloud.size()) / 6;
      ml::Tensor clouds = batchClouds(batch, points);
      ml::Tensor spectra = batchSpectra(batch, specDim);
      for (auto& p : replicaParams_[rank]) p.zeroGrad();
      // The whole forward/backward graph for this iteration lives in the
      // rank's step arena: beginStep() recycles last iteration's memory
      // (with no heap traffic once the regions are sized). Nothing
      // arena-backed may outlive the iteration — the scalar terms are read
      // out via item() below, before the next beginStep() reclaims the
      // buffers.
      arenas_[rank]->beginStep();
      ml::LossTerms terms;
      ml::Tensor total;
      {
        ml::ArenaScope arenaScope(*arenas_[rank]);
        {
          TRACE_SCOPE("train", "forward");
          terms = model.lossTerms(clouds, spectra, rng);
        }
        total = ml::totalLoss(terms, modelCfg_.weights);
        {
          TRACE_SCOPE("train", "backward");
          total.backward();
        }
      }
      comm_.stepAdam(rank, *optimizer_, replicaParams_);
      if (rank == 0) {
        iterCounter.add();
        stepMs.observe(iterTimer.seconds() * 1e3);
      }
      if (rank == 0) {
        stats_.lossHistory.push_back(total.item());
        stats_.chamferHistory.push_back(terms.chamfer.item());
        stats_.mseHistory.push_back(terms.mse.item());
        stats_.mmdLatentHistory.push_back(terms.mmdLatent.item());
      }
    }
  };
  team_.run([&](std::size_t rank) {
#ifdef _OPENMP
    omp_set_num_threads(rankThreads);
#endif
    try {
      trainRank(rank);
    } catch (...) {
      // Release the peers waiting in stepAdam; the team rethrows.
      comm_.fail(std::current_exception());
      throw;
    }
  });

  stats_.iterations += iterations;
  stats_.trainSeconds += timer.seconds();
  stats_.commSeconds = comm_.communicationSeconds(0);
}

}  // namespace artsci::core
