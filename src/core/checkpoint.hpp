/// \file checkpoint.hpp
/// Crash-consistent pipeline checkpointing. A PipelineCheckpoint captures
/// everything the in-transit trainer needs to resume *bit-identically*
/// after a crash: model parameters, Adam moments, every rank's RNG
/// (Box-Muller cache included), the replay buffer's full contents and
/// eviction RNG, and the step counters.
///
/// The file is the on-disk container (ml/serialize.hpp, crash-safe write,
/// CRC-32C footer): a weights file's parameters block, then the
/// trainer-state block (meta counters, rank count, Adam state, rank RNGs,
/// replay buffer, iteration count). The reader validates every shape and
/// length against the restoring trainer *before* touching it: a defect
/// yields a typed CheckpointError and an untouched trainer.
///
/// CheckpointManager keeps the last `keep` checkpoints and falls back to
/// the newest *intact* one on load, so a torn write (simulated via
/// FAULT_POINT("ckpt.write")) costs at most one checkpoint interval of
/// progress.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/trainer.hpp"
#include "ml/serialize.hpp"

namespace artsci::core {

/// The container's one error type.
using CheckpointError = ml::CheckpointError;

/// Pipeline position stored next to the trainer state.
struct CheckpointMeta {
  long streamedSteps = 0;      ///< simulation steps consumed from the stream
  long trainerIterations = 0;  ///< training iterations completed
};

/// Crash-safe checkpoint write (ml::ByteWriter::write). Honours
/// FAULT_POINT("ckpt.save") and the torn-write site "ckpt.write"; a torn
/// write throws fault::FaultInjectedError and leaves the final path
/// untouched.
void savePipelineCheckpoint(const std::string& path,
                            const InTransitTrainer& trainer,
                            const CheckpointMeta& meta);

/// Read + fully validate + apply. Throws CheckpointError on any defect;
/// the trainer is modified only after the entire file validated.
CheckpointMeta loadPipelineCheckpoint(const std::string& path,
                                      InTransitTrainer& trainer);

/// Rotating checkpoint directory: `ckpt-<streamedSteps>.artsci` files,
/// newest `keep` retained, newest intact loaded.
class CheckpointManager {
 public:
  explicit CheckpointManager(std::string dir, std::size_t keep = 2);

  /// Checkpoint and prune; returns the file written.
  std::string save(const InTransitTrainer& trainer,
                   const CheckpointMeta& meta);
  /// Restore from the newest checkpoint that validates, skipping corrupt
  /// ones (each skip bumps the `ckpt.load_fallbacks` counter). Empty
  /// optional when no intact checkpoint exists.
  std::optional<CheckpointMeta> loadLatest(InTransitTrainer& trainer);

  /// Checkpoint paths, newest first.
  std::vector<std::string> list() const;
  const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
  std::size_t keep_;
};

}  // namespace artsci::core
