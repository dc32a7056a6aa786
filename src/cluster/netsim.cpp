#include "cluster/netsim.hpp"

#include <cmath>

#include "common/error.hpp"

namespace artsci::cluster {

DataPlaneModel DataPlaneModel::libfabricAllAtOnce() {
  DataPlaneModel m;
  m.name = "libfabric (enqueue all)";
  m.readerRate = 5.1e9;  // best per-node throughput observed: ~4.7 GB/s
  m.perOpOverhead = 40e-6;
  m.batchSize = 0;
  m.congestionCoeff = 0.02;
  m.maxNodesAllAtOnce = 4608;
  return m;
}

DataPlaneModel DataPlaneModel::libfabricBatched(int batchSize) {
  DataPlaneModel m;
  m.name = "libfabric (batches of " + std::to_string(batchSize) + ")";
  m.readerRate = 5.1e9;
  m.perOpOverhead = 40e-6;
  m.batchSize = batchSize;
  m.batchDrainPenalty = 9.0;  // ~2.0-2.2 GB/s effective per-node
  m.congestionCoeff = 0.02;
  m.maxNodesAllAtOnce = 0;  // unlimited
  return m;
}

DataPlaneModel DataPlaneModel::mpi() {
  DataPlaneModel m;
  m.name = "MPI (MPI_Open_port)";
  m.readerRate = 4.1e9;  // ~3.7 GB/s best at 4096 nodes
  m.perOpOverhead = 120e-6;
  m.batchSize = 0;
  m.congestionCoeff = 0.045;  // per-node throughput sags toward full scale
  m.maxNodesAllAtOnce = 0;    // implementation manages resources itself
  return m;
}

StreamStepResult simulateStreamStep(const ClusterSpec& cluster, long nodes,
                                    const DataPlaneModel& plane,
                                    const StreamStepConfig& cfg, Rng& rng) {
  ARTSCI_EXPECTS(nodes >= 1 && nodes <= cluster.nodes);
  ARTSCI_EXPECTS(cfg.bytesPerNode > 0 && cfg.opsPerNode > 0);
  StreamStepResult res;

  if (plane.batchSize == 0 && plane.maxNodesAllAtOnce > 0 &&
      nodes > plane.maxNodesAllAtOnce) {
    res.completed = false;
    return res;
  }

  // The ingest rate is capped by the NIC but in practice limited by the
  // single reader instance (paper: 1.9 - 4.7 GB/s vs 25 GB/s NIC).
  const double nic = cluster.node.nicBandwidth;
  double rate = std::min(plane.readerRate, nic);
  if (plane.batchSize > 0) {
    rate *= static_cast<double>(plane.batchSize) /
            (static_cast<double>(plane.batchSize) + plane.batchDrainPenalty);
  }

  const double transfer = cfg.bytesPerNode / rate;
  const double opCost =
      static_cast<double>(cfg.opsPerNode) * plane.perOpOverhead;
  // ADIOS2/SST gathers all block metadata (remote read addresses) to
  // writer rank 0 before the step opens.
  const double metadata = cfg.metadataPerNode * static_cast<double>(nodes);

  // Fabric congestion at scale.
  const double congestion =
      1.0 + plane.congestionCoeff *
                std::max(0.0, std::log2(static_cast<double>(nodes) / 1024.0));

  // Straggler effect: the step completes when the slowest node is done.
  // For ~Gaussian per-node jitter the expected maximum over N nodes grows
  // like sigma * sqrt(2 ln N); each simulated step samples around that.
  const double maxJitter =
      cfg.jitterSigma *
      std::sqrt(2.0 * std::log(std::max(2.0, static_cast<double>(nodes)))) *
      (1.0 + 0.25 * rng.normal());

  const double base = (transfer + opCost) * congestion + metadata;
  res.stepSeconds = base * (1.0 + std::max(0.0, maxJitter));
  res.perNodeThroughput = cfg.bytesPerNode / res.stepSeconds;
  res.totalThroughput = res.perNodeThroughput * static_cast<double>(nodes);
  return res;
}

std::vector<double> simulateStreamSeries(const ClusterSpec& cluster,
                                         long nodes,
                                         const DataPlaneModel& plane,
                                         const StreamStepConfig& cfg,
                                         int steps, Rng& rng) {
  std::vector<double> out;
  for (int s = 0; s < steps; ++s) {
    const auto r = simulateStreamStep(cluster, nodes, plane, cfg, rng);
    if (!r.completed) return {};
    out.push_back(r.totalThroughput);
  }
  return out;
}

}  // namespace artsci::cluster
