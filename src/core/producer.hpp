/// \file producer.hpp
/// The producer side of the Artificial Scientist: a KHI PIC simulation
/// whose output plugins publish two parallel openPMD streams (the paper's
/// two PIConGPU output plugins, §IV-D) — particle phase-space point clouds
/// per KHI region and the matching windowed radiation spectra. No byte of
/// either ever touches the filesystem.
#pragma once

#include <memory>

#include "core/transforms.hpp"
#include "openpmd/backends.hpp"
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

/// Record paths used on the wire (shared with the consumer).
std::string cloudPath(int region);
std::string spectrumPath(int region);

class KhiStreamProducer {
 public:
  KhiStreamProducer(ProducerConfig cfg,
                    std::shared_ptr<stream::SstEngine> particleStream,
                    std::shared_ptr<stream::SstEngine> radiationStream);

  /// Run the `warmupSteps` PIC steps that precede streaming, once; later
  /// calls return at once. run() calls it first, so calling it yourself
  /// is optional: it lets a caller learn when streaming is about to start
  /// (runPipeline starts the consumer's step deadline only then).
  void warmUp();

  /// Run the simulation, streaming as configured; closes both streams.
  /// Blocking — call on the producer thread.
  void run();

  long iterationsStreamed() const { return iterationsStreamed_; }
  const pic::Simulation& simulation() const { return *sim_; }

 private:
  void emitIteration(long index);

  ProducerConfig cfg_;
  std::unique_ptr<pic::Simulation> sim_;
  pic::KhiSpecies species_;
  std::shared_ptr<radiation::RegionRadiationPlugin> radiationPlugin_;
  std::unique_ptr<openpmd::Series> particleSeries_;
  std::unique_ptr<openpmd::Series> radiationSeries_;
  Rng rng_;
  std::vector<std::size_t> candidates_;  ///< one region's cloud candidates
  long iterationsStreamed_ = 0;
  bool warmedUp_ = false;
};

}  // namespace artsci::core
