/// \file pipeline.hpp
/// The complete Artificial Scientist orchestration (paper Fig 3 / §III-B):
/// a producer thread streams the sample source's (core/producer.hpp)
/// particle + radiation data through two in-memory openPMD/nanoSST
/// channels into a consumer that feeds the experience-replay buffer and
/// drives n_rep data-parallel training iterations per streamed step.
/// Back-pressure from the bounded step queue stalls the simulation when
/// training lags — "some leeway to stall the running simulation if need
/// be". This module owns the wire format: which record path carries which
/// region's cloud and spectrum, written and read in pipeline.cpp.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/producer.hpp"
#include "core/trainer.hpp"
#include "openpmd/backends.hpp"  // the channels, for callers that read the wire

namespace artsci::core {

/// Record paths of a region's cloud and spectrum on the wire.
std::string cloudPath(int region);
std::string spectrumPath(int region);

struct PipelineConfig {
  ProducerConfig producer;
  TrainerConfig trainer;
  ArtificialScientistModel::Config model =
      ArtificialScientistModel::Config::reduced();
  long nRep = 4;               ///< training iterations per streamed step
  std::size_t queueLimit = 2;  ///< SST step queue (back-pressure depth)
  /// Log an obs::StepReporter line every N streamed steps (0 disables).
  long stepReportEvery = 10;

  /// Deadline for every blocking SST step call on both channels
  /// (stream::SstParams::stepTimeoutMicros; 0 = wait forever). With a
  /// deadline set, a dead or wedged peer degrades the run instead of
  /// hanging it.
  std::uint64_t streamStepTimeoutMicros = 0;
  /// Crash-consistent checkpointing (core/checkpoint.hpp): when
  /// `checkpointDir` is non-empty, the pipeline checkpoints the trainer
  /// every `checkpointEvery` streamed steps, keeping `checkpointKeep`
  /// rotations.
  std::string checkpointDir;
  long checkpointEvery = 0;
  std::size_t checkpointKeep = 2;

  /// Consistency-checked defaults for a quick run.
  static PipelineConfig quickDemo();
};

struct PipelineResult {
  TrainStats train;
  long iterationsStreamed = 0;
  std::size_t samplesReceived = 0;
  std::size_t bytesStreamed = 0;
  double wallSeconds = 0;
  double producerStallSeconds = 0;  ///< back-pressure on the simulation
  /// True when the run ended early on a stream/peer failure or an
  /// injected fault instead of end-of-stream; `faultNote` records what
  /// happened. Data streamed before the failing step has been trained on.
  /// After a stream or producer fault the trainer remains usable; after a
  /// fault on one of its ranks it stays failed (see
  /// InTransitTrainer::trainIterations), and the checkpoints it wrote
  /// restore into a fresh trainer. The caller decides between
  /// resume-from-checkpoint and accepting the shorter run.
  bool degraded = false;
  std::string faultNote;
  long checkpointsWritten = 0;
};

/// Run the full in-transit pipeline; returns metrics and leaves the
/// trained model accessible through the trainer. Stream and injected
/// faults degrade the run; any other consumer-side exception (the
/// trainer's, say) stops the producer and is rethrown here.
PipelineResult runPipeline(const PipelineConfig& cfg,
                           InTransitTrainer& trainer);

/// Convenience: construct the trainer internally and return it.
struct PipelineRun {
  std::unique_ptr<InTransitTrainer> trainer;
  PipelineResult result;
};
PipelineRun runPipeline(const PipelineConfig& cfg);

/// Run a sample source to the end on the calling thread and return every
/// sample it made, in emission order: bit for bit the samples runPipeline
/// streams for the same config — held-out ground truth for the inversion
/// evaluations. A source failure reaches the caller as thrown.
std::vector<Sample> collectSamples(const ProducerConfig& cfg);

}  // namespace artsci::core
