/// \file layers.hpp
/// Neural-network building blocks for the Artificial Scientist model
/// (paper Fig 7): per-point "1x1 convolution" stacks (PointNet-style
/// encoder), MLPs, and the voxel-shuffle transposed-convolution decoder
/// (kernel 2^3 = stride 2^3, so each input voxel expands into a disjoint
/// 2x2x2 block — exactly a per-voxel linear map plus a fixed permutation).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "ml/ops.hpp"
#include "ml/tensor.hpp"

namespace artsci::ml {

// Activation lives in ml/ops.hpp next to the fused linear op.

/// Base class for anything owning trainable parameters.
class Module {
 public:
  virtual ~Module() = default;
  /// Handles to all trainable tensors (shared with the module).
  virtual std::vector<Tensor> parameters() const = 0;
  /// Total number of scalar parameters.
  long parameterCount() const;
};

/// Fully-connected layer y = x W + b with Xavier-uniform init.
/// Accepts inputs of any rank; the last dimension must equal `in`.
class Linear : public Module {
 public:
  Linear(long in, long out, Rng& rng, bool bias = true);

  /// y = act(x W + b), with the activation fused into the linear node
  /// (one elementwise epilogue instead of a separate graph op — same
  /// bits, see ml::linear). Inputs of rank other than 2 are reshaped to
  /// [rows, in] and the result back to [..., out]; see ml::reshape.
  Tensor forward(const Tensor& x, Activation act = Activation::kNone) const;
  std::vector<Tensor> parameters() const override;

  long inFeatures() const { return in_; }
  long outFeatures() const { return out_; }
  Tensor& weight() { return weight_; }
  Tensor& biasTensor() { return bias_; }
  const Tensor& weight() const { return weight_; }
  const Tensor& biasTensor() const { return bias_; }

 private:
  long in_, out_;
  Tensor weight_;  ///< [in, out]
  Tensor bias_;    ///< [out] (undefined when bias == false)
};

/// Multi-layer perceptron with a shared hidden activation; the output layer
/// is linear unless `outputActivation` says otherwise.
class Mlp : public Module {
 public:
  Mlp(std::vector<long> dims, Rng& rng,
      Activation hidden = Activation::kLeakyRelu,
      Activation output = Activation::kNone);

  Tensor forward(const Tensor& x) const;
  std::vector<Tensor> parameters() const override;

  const std::vector<long>& dims() const { return dims_; }
  /// Introspection for graph-free executors (serve::InferenceEngine).
  const std::vector<Linear>& layers() const { return layers_; }
  Activation hiddenActivation() const { return hidden_; }
  Activation outputActivation() const { return output_; }

 private:
  std::vector<long> dims_;
  std::vector<Linear> layers_;
  Activation hidden_, output_;
};

/// PointNet-lite variational encoder (paper: channels 6->16->32->64->128->
/// 256->608, max-pool over particles, two MLP heads with one 544 hidden
/// layer for mu and log-variance of the 544-dim latent).
class PointNetEncoder : public Module {
 public:
  struct Config {
    std::vector<long> channels{6, 16, 32, 64, 128, 256, 608};
    long headHidden = 544;
    long latentDim = 544;
  };

  PointNetEncoder(Config cfg, Rng& rng);

  /// x: [B, N, channels.front()] -> {mu, logvar}: each [B, latentDim].
  /// The log-variance is soft-clamped to keep exp() finite early in
  /// training.
  struct Moments {
    Tensor mu;
    Tensor logvar;
  };
  Moments forward(const Tensor& x) const;

  /// Reparameterized sample z = mu + exp(logvar/2) * eps.
  Tensor sample(const Moments& m, Rng& rng) const;

  std::vector<Tensor> parameters() const override;
  const Config& config() const { return cfg_; }
  /// Introspection for graph-free executors (serve::InferenceEngine).
  const std::vector<Linear>& pointLayers() const { return pointLayers_; }
  const Mlp& muHead() const { return *muHead_; }
  const Mlp& logvarHead() const { return *logvarHead_; }

 private:
  Config cfg_;
  std::vector<Linear> pointLayers_;
  std::unique_ptr<Mlp> muHead_;
  std::unique_ptr<Mlp> logvarHead_;
};

/// Voxel-shuffle transposed-convolution decoder (paper: FC -> (4,4,4,16),
/// then 3D deconvs 16->8->6 with kernel 2^3, stride 2^3 -> 4096 points x 6).
class VoxelDecoder : public Module {
 public:
  struct Config {
    long latentDim = 544;
    long baseGrid = 4;                     ///< V: initial V^3 voxels
    std::vector<long> channels{16, 8, 6};  ///< per deconv stage
  };

  VoxelDecoder(Config cfg, Rng& rng);

  /// z: [B, latentDim] -> point cloud [B, P, channels.back()], where
  /// P = (baseGrid * 2^(stages))^3.
  Tensor forward(const Tensor& z) const;

  long pointCount() const { return pointCount_; }
  std::vector<Tensor> parameters() const override;
  const Config& config() const { return cfg_; }

 private:
  Config cfg_;
  std::unique_ptr<Linear> fc_;
  std::vector<Linear> deconvs_;               ///< per-voxel channel maps
  std::vector<std::vector<long>> shuffles_;   ///< voxel-shuffle permutations
  std::vector<long> gridSizes_;               ///< V per stage input
  long pointCount_ = 0;
};

/// Build the voxel-shuffle permutation taking the per-voxel matmul output
/// layout [V^3, 8*C] (child offset k major, channel minor) to the expanded
/// grid layout [(2V)^3, C]. Exposed for direct testing.
std::vector<long> makeVoxelShufflePermutation(long V, long channelsOut);

}  // namespace artsci::ml
