/// \file netsim.hpp
/// Virtual-time model of the streaming step at Frontier scale (Fig 6).
///
/// Each node must ingest `bytesPerNode` per step through its NIC, issued
/// as `opsPerNode` RDMA read operations by the single reader instance.
/// The data planes differ in per-operation overhead and enqueue strategy:
///
///  * libfabric/CXI, enqueue-all-at-once: lowest overhead, but the number
///    of outstanding operations grows with system size and beyond
///    ~4096 nodes exhausts provider resources — the strategy the paper
///    observed "did not scale to the full system".
///  * libfabric/CXI, batches of 10: adds one queue-drain synchronization
///    per batch — scales to full system at a throughput cost.
///  * MPI data plane (MPI_Open_port): higher per-op cost than raw
///    libfabric but the implementation's internal tuning gives the best
///    full-system throughput.
///
/// The per-step wall time is a straggler maximum over nodes (jitter grows
/// slowly with node count), plus a metadata-aggregation term at rank 0 —
/// that is why parallel *throughput per node* degrades at scale while
/// total throughput still rises.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "cluster/topology.hpp"

namespace artsci::cluster {

enum class EnqueueStrategy { kAllAtOnce, kBatched };

struct DataPlaneModel {
  std::string name;
  /// Sustained single-reader ingest rate (B/s): the paper's bottleneck is
  /// the single reader instance per node, far below the 25 GB/s NIC.
  double readerRate = 5.0e9;
  double perOpOverhead = 50e-6;  ///< seconds of setup per read op
  int batchSize = 0;             ///< 0 = enqueue everything at once
  /// Batched enqueue stalls the pipeline while each batch drains:
  /// pipeline efficiency = batchSize / (batchSize + drainPenalty).
  double batchDrainPenalty = 12.0;
  /// Fabric congestion grows with system size:
  /// factor = 1 + coeff * max(0, log2(nodes/1024)).
  double congestionCoeff = 0.02;
  /// All-at-once enqueue exhausts provider resources beyond this many
  /// nodes (observed failure mode, Fig 6a: removed outlier, then DNS).
  long maxNodesAllAtOnce = 4608;

  static DataPlaneModel libfabricAllAtOnce();
  static DataPlaneModel libfabricBatched(int batchSize = 10);
  static DataPlaneModel mpi();
};

struct StreamStepConfig {
  double bytesPerNode = 5.86e9;  ///< paper: 5.86 GB per node per step
  int opsPerNode = 96;           ///< remote-read requests per node-step
  int readersPerNode = 1;        ///< paper: single reader instance
  double jitterSigma = 0.06;     ///< relative per-node straggler spread
  double metadataPerNode = 1.5e-6;  ///< rank-0 aggregation seconds/node
};

struct StreamStepResult {
  bool completed = true;          ///< false: strategy failed at this scale
  double stepSeconds = 0;         ///< wall time of the step
  double perNodeThroughput = 0;   ///< bytes/s/node
  double totalThroughput = 0;     ///< bytes/s across all nodes
};

/// Simulate one streamed step on `nodes` nodes of `cluster`.
StreamStepResult simulateStreamStep(const ClusterSpec& cluster, long nodes,
                                    const DataPlaneModel& plane,
                                    const StreamStepConfig& cfg, Rng& rng);

/// Convenience: run `steps` steps, returning per-step total throughputs
/// (empty when the plane fails at this scale) — the Fig 6 boxplot sample.
std::vector<double> simulateStreamSeries(const ClusterSpec& cluster,
                                         long nodes,
                                         const DataPlaneModel& plane,
                                         const StreamStepConfig& cfg,
                                         int steps, Rng& rng);

}  // namespace artsci::cluster
