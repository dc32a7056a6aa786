/// \file trainer.hpp
/// Data-parallel in-transit trainer: the stand-in for PyTorch DDP driving
/// the paper's MLapp. R rank threads, started once with the trainer, hold
/// model replicas; every iteration each rank draws a batch from the shared
/// experience-replay buffer, computes Eq.(1), and joins one collective
/// that averages the gradients and steps Adam (ml::Communicator::stepAdam:
/// each rank updates its chunk of the parameters from the one shared
/// optimizer state and writes it into every replica) with the paper's
/// optimizer settings (separate l_VAE / l_INN, sqrt learning-rate scaling
/// with total batch). The ranks are a RankTeam (common/thread_pool.hpp),
/// which gives each rank its OpenMP share and trace label and releases a
/// throwing rank's peers; one rank trains on the calling thread.
#pragma once

#include <memory>

#include "common/thread_pool.hpp"
#include "core/model.hpp"
#include "core/sample.hpp"
#include "ml/arena.hpp"
#include "ml/ddp.hpp"
#include "ml/optim.hpp"
#include "replay/training_buffer.hpp"

namespace artsci::core {

struct TrainerConfig {
  std::size_t ranks = 2;         ///< data-parallel replicas ("GCDs")
  double baseLearningRate = 3e-4;  ///< reduced model; paper uses 1e-6 at scale
  ml::AdamConfig adam;           ///< paper defaults (beta1=.8, beta2=.9...)
  replay::TrainingBufferConfig buffer;
  std::uint64_t seed = 777;
};

/// Everything the trainer needs to resume *bit-identically* after a
/// crash: rank-0 model parameters and Adam moments (replicas are
/// identical across ranks by construction, so one copy restores all),
/// every rank's RNG — including the Box-Muller cache — and the full
/// replay-buffer snapshot. Serialized by core/checkpoint.hpp.
struct TrainerCheckpointState {
  /// Per-tensor, model order. Only a load fills it, as the staging of its
  /// all-or-nothing restore; captureCheckpointState leaves it empty, since
  /// a save writes the parameters straight from the model.
  std::vector<std::vector<ml::Real>> params;
  std::vector<ml::Real> adamPacked;           ///< ml::Adam::packedState()
  long adamStep = 0;
  std::vector<Rng::State> rankRngs;
  replay::TrainingBuffer<Sample>::Snapshot buffer;
  long iterations = 0;
};

struct TrainStats {
  std::vector<double> lossHistory;      ///< rank-0 total loss per iteration
  std::vector<double> chamferHistory;   ///< VAE reconstruction term
  std::vector<double> mseHistory;       ///< INN spectrum term
  std::vector<double> mmdLatentHistory; ///< INN backward term
  long iterations = 0;
  double trainSeconds = 0;
  /// Rank-0 time inside the optimizer collective: gradient reduction,
  /// weight copies and barriers, not Adam's arithmetic.
  double commSeconds = 0;
};

class InTransitTrainer {
 public:
  InTransitTrainer(ArtificialScientistModel::Config modelCfg,
                   TrainerConfig cfg);

  /// The shared receive buffer (the streaming consumer pushes into it).
  replay::TrainingBuffer<Sample>& buffer() { return buffer_; }

  /// Run `iterations` synchronized data-parallel iterations (each rank
  /// one batch per iteration). No-op when the buffer is not ready. A rank
  /// that throws releases its peers and the call rethrows; the trainer
  /// then stays failed (every later step rethrows the same error).
  void trainIterations(long iterations);

  /// Trained replica (all replicas stay synchronized by construction).
  const ArtificialScientistModel& model(std::size_t rank = 0) const;

  /// Immutable deep copy of the rank-0 replica for a serving registry
  /// (serve::ModelRegistry::publish). Call between trainIterations()
  /// calls — not concurrently with an in-flight training step, which
  /// mutates the parameters being copied.
  std::shared_ptr<const ArtificialScientistModel> exportSnapshot() const;

  const TrainStats& stats() const { return stats_; }
  const TrainerConfig& config() const { return cfg_; }
  /// Effective learning rates after scaling (VAE group, INN group).
  std::pair<ml::Real, ml::Real> learningRates() const;

  /// Step-arena statistics of `rank` (`heapAllocations` counts region
  /// growths of tensor storage, not the graph nodes' heap allocations).
  ml::Arena::Stats arenaStats(std::size_t rank = 0) const;

  /// Capture resume state, all but the parameters (see
  /// TrainerCheckpointState::params). Call between trainIterations()
  /// calls (like exportSnapshot, not concurrently with an in-flight step).
  TrainerCheckpointState captureCheckpointState() const;
  /// Apply a checkpoint's state, parameters included (as
  /// loadPipelineCheckpoint stages it), to every rank. The trainer must be
  /// constructed with the same model config and rank count the state came
  /// from (ContractError otherwise); afterwards training evolves
  /// bit-identically to the run that produced the state.
  void restoreCheckpointState(const TrainerCheckpointState& state);

 private:
  TrainerConfig cfg_;
  ArtificialScientistModel::Config modelCfg_;
  replay::TrainingBuffer<Sample> buffer_;
  std::vector<std::unique_ptr<ArtificialScientistModel>> replicas_;
  /// Each replica's parameters in the optimizer's order (VAE, then INN).
  std::vector<std::vector<ml::Tensor>> replicaParams_;
  /// The one Adam, over replica 0's parameters; stepAdam copies its
  /// updates into the other replicas.
  std::unique_ptr<ml::Adam> optimizer_;
  std::vector<Rng> rankRngs_;
  /// One step arena per rank: every iteration's forward/backward graph is
  /// bump-allocated here and recycled wholesale at the next beginStep().
  std::vector<std::unique_ptr<ml::Arena>> arenas_;
  RankTeam team_;  ///< the ranks, for the trainer's lifetime
  ml::Communicator comm_;  ///< synchronised on team_'s barrier
  TrainStats stats_;
};

}  // namespace artsci::core
