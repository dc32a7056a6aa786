/// Ablation A2 (§IV-C "Technical Challenges"): Chamfer distance vs earth
/// mover's distance. The paper measured ~4x batch-time increase with EMD
/// (geomloss) and could not run it on Frontier at all (KeOps lacks a HIP
/// port). We time both on equal point-cloud batches and reproduce the
/// density-blindness of CD that motivates EMD.
#include <algorithm>
#include <cstdio>

#include "common/ascii.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/model.hpp"
#include "ml/losses.hpp"

using namespace artsci;
using namespace artsci::ml;

namespace {

/// Best fwd+bwd time of one loss between a [B, N, 6] target and a
/// [B, M, 6] reconstruction, the side the gradient flows to.
double timeLoss(bool useEmd, long B, long N, long M, int reps) {
  Rng rng(3);
  Tensor a = Tensor::randn({B, N, 6}, rng, 0.5);
  Tensor b = Tensor::randn({B, M, 6}, rng, 0.5);
  b.setRequiresGrad(true);
  // warm-up
  (useEmd ? emdSinkhorn(a, b) : chamferDistance(a, b)).backward();
  // Best-of-reps: robust against scheduler noise on small kernels.
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    Timer t;
    b.zeroGrad();
    Tensor loss = useEmd ? emdSinkhorn(a, b) : chamferDistance(a, b);
    loss.backward();
    best = std::min(best, t.seconds());
  }
  return best;
}

}  // namespace

int main() {
  std::printf("==============================================================\n");
  std::printf("Ablation A2 — Chamfer distance vs EMD (Sinkhorn)\n");
  std::printf("==============================================================\n\n");

  std::printf("[1] batch time (forward+backward), B=4 point clouds x 6D\n\n");
  std::vector<std::vector<std::string>> rows;
  for (long N : {64L, 128L, 256L}) {
    const double tCd = timeLoss(false, 4, N, N, 15);
    const double tEmd = timeLoss(true, 4, N, N, 15);
    rows.push_back({std::to_string(N), ascii::num(tCd * 1e3, 2) + " ms",
                    ascii::num(tEmd * 1e3, 2) + " ms",
                    ascii::num(tEmd / tCd, 1) + "x"});
  }
  std::printf("%s\n", ascii::table({"points/cloud", "Chamfer", "EMD",
                                    "ratio"},
                                   rows)
                          .c_str());

  // The paper's "~4x" compares full *training batch* times (forward +
  // backward of the whole model), where the loss is only one term. The
  // model trains on Chamfer. EMD in its place changes that term alone
  // (its gradient has the reconstruction's shape either way), so the EMD
  // batch is the Chamfer batch minus the Chamfer term plus the EMD term,
  // both terms timed on the batch's own input and reconstruction sizes.
  std::printf("[1b] full training-batch time (whole model fwd+bwd), B=8\n\n");
  {
    Rng rng(9);
    core::ArtificialScientistModel model(
        core::ArtificialScientistModel::Config::reduced(), rng);
    auto timeBatch = [&](long cloudPoints) {
      Tensor clouds = Tensor::randn({8, cloudPoints, 6}, rng, 0.4);
      Tensor spectra = Tensor::randn({8, 32}, rng, 0.1);
      model.loss(clouds, spectra, rng).backward();  // warm-up
      double best = 1e300;
      for (int r = 0; r < 6; ++r) {
        Timer t;
        model.loss(clouds, spectra, rng).backward();
        best = std::min(best, t.seconds());
      }
      return best;
    };
    std::vector<std::vector<std::string>> rows2;
    const long recon = model.cloudPoints();
    for (long n : {128L, 512L, 1024L}) {
      const double tCd = timeBatch(n);
      const double tEmd = tCd - timeLoss(false, 8, n, recon, 6) +
                          timeLoss(true, 8, n, recon, 6);
      rows2.push_back({std::to_string(n), ascii::num(tCd * 1e3, 1) + " ms",
                       ascii::num(tEmd * 1e3, 1) + " ms",
                       ascii::num(tEmd / tCd, 1) + "x"});
    }
    std::printf("%s\n", ascii::table({"cloud points", "CD batch",
                                      "EMD batch (CD - CD term + EMD term)",
                                      "ratio"},
                                     rows2)
                            .c_str());
    std::printf(
        "the ratio grows with cloud size toward the paper's ~4x (they\n"
        "train on 3e4-point inputs and 4096-point reconstructions)\n\n");
  }

  std::printf("[2] why EMD: sensitivity to point density\n\n");
  {
    // Same support, different density: 90%% of b's mass collapses to 0.
    Tensor a = Tensor::zeros({1, 10, 1});
    for (long i = 0; i < 10; ++i)
      a.data()[static_cast<std::size_t>(i)] = static_cast<Real>(i) / 9.0;
    Tensor b = Tensor::zeros({1, 10, 1});
    b.data()[9] = 1.0;
    const double cd = chamferDistance(a, b).item();
    const double emd = emdSinkhorn(a, b).item();
    std::printf("  uniform vs collapsed cloud:  CD = %.4f   EMD = %.4f\n",
                cd, emd);
    std::printf("  EMD/CD = %.1fx — CD barely notices the density defect\n\n",
                emd / std::max(cd, 1e-12));
  }
  std::printf(
      "paper: 'Perhaps the community needs a HIP version of the KeOps "
      "library.'\nHere: a dependency-free Sinkhorn EMD usable on any "
      "hardware.\n");
  return 0;
}
