/// \file engine.hpp
/// Graph-free batched executor of ArtificialScientistModel::predictSpectra.
///
/// The autograd stack (ml/ops.hpp) allocates a result node per operation —
/// the right trade for training, but pure overhead for inference. This
/// engine walks the same architecture (PointNet conv stack -> max-pool ->
/// mu head -> INN forward -> spectrum slice) against raw weight buffers
/// with preallocated workspaces. Every dense layer is one call of the
/// fused kernels::linear_forward (register-blocked, runtime-dispatched
/// AVX-512 / AVX2+FMA / baseline), the call ml::linear trains with, and
/// the coupling arithmetic is the graph's op for op, so the outputs equal
/// the graph's bit for bit (tests/serve/test_serve.cpp).
///
/// Dispatch shape: each conv layer is one linear_forward over all
/// batch × points rows; each dense chain (mu head, INN coupling subnets)
/// is a loop of linear_forward calls through two ping-pong buffers. The
/// kernels run serially: a serving host keeps its cores busy with
/// NetServer shards, one worker and one engine each. All workspaces are
/// carved at fixed offsets from one per-engine buffer, which grows only
/// when a call needs more than every call before it.
///
/// Thread-safety: an engine owns mutable workspaces — one engine per
/// serving worker. The referenced model snapshot is immutable and shared.
#pragma once

#include <memory>
#include <vector>

#include "core/model.hpp"
#include "ml/kernels/gemm.hpp"

namespace artsci::serve {

class InferenceEngine {
 public:
  /// Binds to an immutable snapshot; the shared_ptr keeps the weight
  /// buffers alive for the engine's lifetime.
  explicit InferenceEngine(
      std::shared_ptr<const core::ArtificialScientistModel> model);

  /// clouds: [batch, points, 6] flattened, row-major. Writes spectra
  /// [batch, spectrumDim] to `out`.
  void predictSpectra(const ml::Real* clouds, long batch, long points,
                      ml::Real* out);

  /// Output spectrum length per sample.
  long spectrumDim() const { return spectrumDim_; }

 private:
  /// One dense layer: act(x · w + b), w [in, out] row-major, b may be null.
  struct Dense {
    const ml::Real* w = nullptr;
    const ml::Real* b = nullptr;
    long in = 0, out = 0;
    ml::kernels::Act act = ml::kernels::Act::kNone;
  };
  struct Coupling {
    /// Subnet MLPs as dense chains (x2 -> s,t ; y1 -> s,t).
    std::vector<Dense> s1, s2;
    long half = 0, rest = 0;
    ml::Real clamp = 0;
    const long* perm = nullptr;  ///< gather indices after the block
  };

  static void appendMlp(const ml::Mlp& mlp, std::vector<Dense>& chain);
  /// in -> chain[0] -> … -> out; intermediates alternate between
  /// scratchA and scratchB (each rows × the chain's widest layer).
  static void runChain(const std::vector<Dense>& chain, const ml::Real* in,
                       long rows, ml::Real* out, ml::Real* scratchA,
                       ml::Real* scratchB);

  std::shared_ptr<const core::ArtificialScientistModel> model_;
  std::vector<Dense> conv_;  ///< per-point layers, leaky-ReLU fused
  std::vector<Dense> muHead_;
  std::vector<Coupling> blocks_;
  long latentDim_ = 0, spectrumDim_ = 0, features_ = 0;
  long maxConvWidth_ = 0;  ///< widest conv layer (ping-pong buffer width)
  long maxSeqWidth_ = 0;   ///< widest dense-chain layer across all chains

  /// Every predictSpectra workspace, back to back; sized to the largest
  /// call so far.
  std::vector<ml::Real> workspace_;
};

}  // namespace artsci::serve
