/// \file collectives.hpp
/// Analytic cost models for the collectives dominating the in-transit
/// training pipeline (Fig 8) and the PIC weak-scaling model (Fig 4).
#pragma once

#include "cluster/topology.hpp"

namespace artsci::cluster {

/// Ring all-reduce of `bytes` across `ranks`: 2 (p-1) steps, each moving
/// bytes/p at `bandwidth` with `latency` per step [classic alpha-beta].
double ringAllReduceSeconds(long ranks, double bytes, double bandwidth,
                            double latency);

/// Fig 8 model: per-batch wall time of the data-parallel in-transit
/// training on `gcds` GCDs. Terms:
///  * compute: fixed per-rank batch time (batch size 8/GCD, weak scaling);
///  * all-reduce: partially overlapped with backward compute (PyTorch DDP
///    buckets), straggler-amplified at scale — the paper attributes a
///    ~30% efficiency deficit to it;
///  * MMD: the two MMD losses gather activations from all ranks and
///    replicate pairwise-kernel work, cost growing ~quadratically with the
///    total batch (the naive implementation the paper describes), and the
///    all_gather breaks the graph (synchronizes execution).
struct TrainingScalingModel {
  double computeSeconds = 0.30;   ///< per-batch fwd+bwd on one GCD
  double gradientBytes = 17.2e6;  ///< ~4.3 M fp32 parameters
  double allReduceLatency = 25e-6;
  /// Fraction of the all-reduce hidden behind backward compute.
  double overlapFraction = 0.55;
  /// Straggler amplification of collective time per doubling of ranks
  /// (calibrated so the all-reduce explains the paper's ~30% deficit at
  /// 384 GCDs; the NCCL-over-sockets issues §IV-D describes make the
  /// collective far slower than the alpha-beta ideal at scale).
  double stragglerPerDoubling = 0.32;
  /// MMD replicated-work coefficient (seconds at the base batch, grows
  /// with (totalBatch/baseBatch)^2).
  double mmdBaseSeconds = 0.0030;
  long baseGcds = 32;  ///< smallest configuration (8 nodes, Fig 8)
};

struct TrainingBatchCost {
  double total = 0;
  double compute = 0;
  double allReduceExposed = 0;
  double mmd = 0;
};

TrainingBatchCost trainingBatchCost(const ClusterSpec& cluster, long gcds,
                                    const TrainingScalingModel& model);

/// Weak-scaling efficiency relative to the model's base configuration.
double trainingEfficiency(const ClusterSpec& cluster, long gcds,
                          const TrainingScalingModel& model);

/// Fig 4 model: PIC weak-scaling FOM (updates/s) for `gpus` GPUs.
/// PIConGPU's next-neighbour halo exchange keeps the efficiency loss to a
/// slowly growing logarithmic term.
double picFomModel(const ClusterSpec& cluster, long gpus);

}  // namespace artsci::cluster
