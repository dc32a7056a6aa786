/// \file topology.hpp
/// Machine models for the paper's evaluation platforms. The virtual-time
/// experiments (Figs 4/6/8 at Frontier scale) read their constants from
/// these specs; the calibration values come from the paper itself and the
/// cited OLCF documentation.
#pragma once

#include <string>

namespace artsci::cluster {

struct NodeSpec {
  int gcdsPerNode = 8;            ///< Frontier: 4x MI250X = 8 GCDs
  int nicsPerNode = 4;            ///< HPE Slingshot NICs
  double nicBandwidth = 25e9;     ///< B/s per NIC (paper §IV-B)
  double intraNodeBandwidth = 50e9;  ///< Infinity-fabric GCD<->GCD link
  /// Calibrated per-GPU PIC figure of merit in updates/s: the paper's
  /// 65.3 TeraUpdates/s over 36864 GPUs.
  double perGpuFom = 65.3e12 / 36864.0;
};

struct ClusterSpec {
  std::string name = "frontier";
  NodeSpec node;
  long nodes = 9408;
  double filesystemBandwidth = 10e12;      ///< Orion aggregate write (B/s)
  double nodeSsdAggregateBandwidth = 35e12;  ///< node-local SSDs (B/s)
  int gpusPerNode = 4;  ///< MI250X modules ("GPUs" in Fig 4's axis)

  long totalGpus() const { return nodes * gpusPerNode; }

  static ClusterSpec frontier();
  static ClusterSpec summit();
};

inline ClusterSpec ClusterSpec::frontier() { return ClusterSpec{}; }

inline ClusterSpec ClusterSpec::summit() {
  ClusterSpec s;
  s.name = "summit";
  s.nodes = 4608;
  s.gpusPerNode = 6;  // V100s
  s.node.gcdsPerNode = 6;
  s.node.nicBandwidth = 12.5e9;  // dual-rail EDR InfiniBand
  s.node.intraNodeBandwidth = 50e9;  // NVLink
  // Paper: 14.7 TeraUpdates/s on Summit (2019 run, 27648 GPUs).
  s.node.perGpuFom = 14.7e12 / 27648.0;
  s.filesystemBandwidth = 2.5e12;  // Alpine
  s.nodeSsdAggregateBandwidth = 7e12;
  return s;
}

}  // namespace artsci::cluster
