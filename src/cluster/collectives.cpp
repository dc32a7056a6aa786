#include "cluster/collectives.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace artsci::cluster {

double ringAllReduceSeconds(long ranks, double bytes, double bandwidth,
                            double latency) {
  ARTSCI_EXPECTS(ranks >= 1 && bytes >= 0 && bandwidth > 0);
  if (ranks == 1) return 0.0;
  const double p = static_cast<double>(ranks);
  return 2.0 * (p - 1.0) * (latency + (bytes / p) / bandwidth);
}

TrainingBatchCost trainingBatchCost(const ClusterSpec& cluster, long gcds,
                                    const TrainingScalingModel& model) {
  ARTSCI_EXPECTS(gcds >= 1);
  TrainingBatchCost cost;
  cost.compute = model.computeSeconds;

  // Effective collective bandwidth: intra-node links inside a node, the
  // per-GCD share of the NICs across nodes.
  const auto& node = cluster.node;
  const double interPerGcd = node.nicBandwidth *
                             static_cast<double>(node.nicsPerNode) /
                             static_cast<double>(node.gcdsPerNode);
  const double bw = gcds <= node.gcdsPerNode ? node.intraNodeBandwidth
                                             : interPerGcd;
  double ar = ringAllReduceSeconds(gcds, model.gradientBytes, bw,
                                   model.allReduceLatency);
  // Straggler amplification (jitter across many ranks synchronizing).
  const double doublings = std::log2(
      std::max(1.0, static_cast<double>(gcds) /
                        static_cast<double>(model.baseGcds)));
  ar *= 1.0 + model.stragglerPerDoubling * doublings *
                  static_cast<double>(gcds) /
                  static_cast<double>(model.baseGcds);
  cost.allReduceExposed = ar * (1.0 - model.overlapFraction);

  // MMD: gathered total batch grows linearly with ranks; pairwise kernel
  // matrices grow quadratically; the work is replicated on every rank.
  const double ratio = static_cast<double>(gcds) /
                       static_cast<double>(model.baseGcds);
  cost.mmd = model.mmdBaseSeconds * ratio * ratio;

  cost.total = cost.compute + cost.allReduceExposed + cost.mmd;
  return cost;
}

double trainingEfficiency(const ClusterSpec& cluster, long gcds,
                          const TrainingScalingModel& model) {
  const double tBase =
      trainingBatchCost(cluster, model.baseGcds, model).total;
  const double t = trainingBatchCost(cluster, gcds, model).total;
  return tBase / t;
}

double picFomModel(const ClusterSpec& cluster, long gpus) {
  ARTSCI_EXPECTS(gpus >= 1);
  // Halo exchange is next-neighbour only; the residual loss comes from
  // synchronization jitter growing logarithmically with the partition.
  // perGpuFom is calibrated from the paper's *full-system* measurement,
  // so normalize the efficiency curve to 1 at the full system.
  auto eff = [](double g) { return 1.0 / (1.0 + 0.01 * std::log2(g)); };
  const double full = static_cast<double>(cluster.totalGpus());
  return cluster.node.perGpuFom * static_cast<double>(gpus) *
         eff(static_cast<double>(gpus)) / eff(full);
}

}  // namespace artsci::cluster
