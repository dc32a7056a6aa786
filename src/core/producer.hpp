/// \file producer.hpp
/// The producer side of the Artificial Scientist: a KHI PIC simulation
/// whose radiation plugin and region transforms turn every `streamEvery`
/// PIC steps into training samples — per KHI region a particle phase-space
/// point cloud and the matching windowed radiation spectrum (the paper's
/// two PIConGPU output plugins, §IV-D). The source knows no stream:
/// runPipeline (core/pipeline.hpp) carries its samples in transit over two
/// openPMD streams, and collectSamples takes them as they are made.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/transforms.hpp"
#include "pic/khi.hpp"
#include "radiation/plugin.hpp"

namespace artsci::core {

struct ProducerConfig {
  pic::KhiConfig khi;
  TransformConfig transform;
  std::size_t frequencyCount = 32;  ///< spectrum bins (model spectrumDim)
  double omegaMin = 0.3, omegaMax = 30.0;  ///< detector band in omega_pe
  long warmupSteps = 10;   ///< let the instability seed before streaming
  long streamEvery = 2;    ///< emit one iteration every N PIC steps
  long totalSteps = 50;    ///< PIC steps after warm-up
  std::uint64_t seed = 4242;
};

class KhiSampleSource {
 public:
  explicit KhiSampleSource(ProducerConfig cfg);

  /// Run the `warmupSteps` PIC steps that precede the first emission,
  /// once; later calls return at once. next() calls it first, so calling
  /// it yourself is optional: it lets a caller learn when emissions are
  /// about to start (runPipeline starts the consumer's step deadline only
  /// then).
  void warmUp();

  /// Run PIC steps up to the next emission and return its samples: one
  /// per region with enough particles, in region order, each with `step`
  /// set to the emission index. Empty once `totalSteps` steps have run.
  std::optional<std::vector<Sample>> next();

  /// Simulation time and time step after the last PIC step (the
  /// emission's openPMD time/dt).
  double time() const { return sim_->time(); }
  double dt() const { return sim_->dt(); }

 private:
  std::vector<Sample> makeSamples(long emission);

  ProducerConfig cfg_;
  std::unique_ptr<pic::Simulation> sim_;
  pic::KhiSpecies species_;
  std::shared_ptr<radiation::RegionRadiationPlugin> radiationPlugin_;
  Rng rng_;
  std::vector<std::size_t> candidates_;  ///< one region's cloud candidates
  long stepsRun_ = 0;   ///< PIC steps after warm-up
  long emissions_ = 0;
  bool warmedUp_ = false;
};

}  // namespace artsci::core
