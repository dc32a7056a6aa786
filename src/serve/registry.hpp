/// \file registry.hpp
/// The model registry: the publication point between a (re)trainer and the
/// serving workers. A publisher (the in-transit trainer, or a weights file
/// loaded from disk) installs an immutable snapshot; serving workers copy the
/// current snapshot pointer once per micro-batch (a short critical section),
/// so weights can be hot-swapped under load without blocking in-flight
/// batches — the paper's in-situ loop (train while the simulation runs)
/// extended to inference: train while serving.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "core/model.hpp"

namespace artsci::serve {

/// One published, immutable model version. Snapshots are shared_ptr-owned:
/// a batch that started on version N keeps N alive and consistent even if
/// version N+1 is published mid-compute.
struct ModelSnapshot {
  std::shared_ptr<const core::ArtificialScientistModel> model;
  std::uint64_t version = 0;  ///< monotonically increasing, first publish = 1
  std::string tag;            ///< free-form provenance ("iter 4000", path...)
};

class ModelRegistry {
 public:
  /// Install `model` as the serving snapshot; returns its version.
  /// The model must be immutable from here on — publish a deep copy
  /// (core::cloneForInference / InTransitTrainer::exportSnapshot), never a
  /// replica a trainer keeps stepping.
  std::uint64_t publish(
      std::shared_ptr<const core::ArtificialScientistModel> model,
      std::string tag = {});

  /// Latest snapshot (nullptr before the first publish).
  std::shared_ptr<const ModelSnapshot> current() const;

  /// Version of the latest snapshot (0 before the first publish).
  std::uint64_t version() const;

 private:
  // A mutex, not std::atomic<std::shared_ptr>: libstdc++ 12 implements
  // that with an internal spin lock whose load() releases with relaxed
  // order, so a load racing a publish is a data race (ThreadSanitizer
  // reports it). The critical sections only copy or swap one pointer.
  mutable std::mutex mutex_;
  std::shared_ptr<const ModelSnapshot> current_;  ///< guarded by mutex_
  std::uint64_t versions_ = 0;                    ///< guarded by mutex_
};

/// Build a model of `cfg`, load the weights file at `path` into it
/// (ml::loadParameters: CRC-32C-, version- and shape-checked; a defect
/// throws ml::CheckpointError and publishes nothing), and publish it.
std::uint64_t publishCheckpoint(ModelRegistry& registry,
                                core::ArtificialScientistModel::Config cfg,
                                const std::string& path, std::string tag = {});

}  // namespace artsci::serve
