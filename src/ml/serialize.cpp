#include "ml/serialize.hpp"

#include <cstdint>
#include <fstream>

#include "common/error.hpp"

namespace artsci::ml {

namespace {
constexpr std::uint64_t kMagicV1 = 0x41525453'43495031ULL;  // "ARTSCIP1"
constexpr std::uint64_t kMagicV2 = 0x41525453'43495032ULL;  // "ARTSCIP2"
constexpr std::uint64_t kVersion = 2;
/// Reject absurd header words before allocating: the in-memory Shape is a
/// fixed small buffer (ml::detail::kMaxNdim == 8), so anything larger is a
/// corrupt header by construction.
constexpr std::uint64_t kMaxNdim = 8;

std::uint64_t totalElements(const std::vector<Tensor>& params) {
  std::uint64_t n = 0;
  for (const auto& p : params) n += static_cast<std::uint64_t>(p.numel());
  return n;
}

}  // namespace

void saveParameters(const std::string& path,
                    const std::vector<Tensor>& params) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  ARTSCI_CHECK_MSG(os.good(), "cannot open '" << path << "' for writing");
  auto writeU64 = [&os](std::uint64_t v) {
    os.write(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  writeU64(kMagicV2);
  writeU64(kVersion);
  writeU64(params.size());
  writeU64(totalElements(params));
  for (const auto& p : params) {
    writeU64(p.shape().size());
    for (long d : p.shape()) writeU64(static_cast<std::uint64_t>(d));
    os.write(reinterpret_cast<const char*>(p.data().data()),
             static_cast<std::streamsize>(p.data().size() * sizeof(Real)));
  }
  ARTSCI_CHECK_MSG(os.good(), "write to '" << path << "' failed");
}

void loadParameters(const std::string& path, std::vector<Tensor>& params) {
  std::ifstream is(path, std::ios::binary);
  ARTSCI_CHECK_MSG(is.good(), "cannot open '" << path << "' for reading");
  auto readU64 = [&is, &path](const char* what) {
    std::uint64_t v = 0;
    is.read(reinterpret_cast<char*>(&v), sizeof(v));
    ARTSCI_CHECK_MSG(is.good(), "'" << path << "' is truncated (while reading "
                                    << what << ")");
    return v;
  };
  const std::uint64_t magic = readU64("magic");
  // Legacy ARTSCIP1 files predate config-derived INN permutations
  // (Inn::Config::permSeed): the permutations they trained under were
  // drawn from the weight-init RNG, which this build no longer
  // reproduces, so a restored model would predict silently different
  // values.
  ARTSCI_CHECK_MSG(magic != kMagicV1,
                   "'" << path
                       << "' is a legacy ARTSCIP1 checkpoint, written before "
                          "INN permutations were derived from the model "
                          "config; this build reads only ARTSCIP2");
  ARTSCI_CHECK_MSG(magic == kMagicV2,
                   "'" << path << "' is not an artsci checkpoint");
  const std::uint64_t version = readU64("version");
  ARTSCI_CHECK_MSG(version == kVersion,
                   "'" << path << "' has checkpoint version " << version
                       << ", this build reads version " << kVersion);
  const std::uint64_t count = readU64("tensor count");
  ARTSCI_CHECK_MSG(count == params.size(),
                   "checkpoint '" << path << "' has " << count
                                  << " tensors, expected " << params.size());
  const std::uint64_t declaredElements = readU64("element count");
  ARTSCI_CHECK_MSG(declaredElements == totalElements(params),
                   "checkpoint '" << path << "' holds " << declaredElements
                                  << " scalars, the target parameter list "
                                     "holds "
                                  << totalElements(params)
                                  << " — model architecture mismatch");
  std::size_t index = 0;
  for (auto& p : params) {
    const std::uint64_t nd = readU64("tensor rank");
    ARTSCI_CHECK_MSG(nd <= kMaxNdim, "checkpoint '"
                                         << path << "' tensor " << index
                                         << " declares rank " << nd
                                         << " — corrupt header");
    Shape shape(nd);
    for (auto& d : shape) d = static_cast<long>(readU64("tensor shape"));
    ARTSCI_CHECK_MSG(shape == p.shape(),
                     "checkpoint '" << path << "' tensor " << index
                                    << " has shape " << shapeToString(shape)
                                    << " != parameter shape "
                                    << shapeToString(p.shape()));
    is.read(reinterpret_cast<char*>(p.data().data()),
            static_cast<std::streamsize>(p.data().size() * sizeof(Real)));
    ARTSCI_CHECK_MSG(is.good(), "'" << path << "' is truncated inside tensor "
                                    << index << " payload");
    ++index;
  }
  // Trailing garbage means the file does not describe this parameter list
  // (e.g. a checkpoint of a larger model with a coincidental prefix).
  is.peek();
  ARTSCI_CHECK_MSG(is.eof(), "checkpoint '"
                                 << path
                                 << "' has trailing bytes after the last "
                                    "tensor — architecture mismatch");
}

void copyParameters(const std::vector<Tensor>& src, std::vector<Tensor>& dst) {
  ARTSCI_EXPECTS_MSG(src.size() == dst.size(),
                     "copyParameters: " << src.size() << " source vs "
                                        << dst.size() << " target tensors");
  for (std::size_t i = 0; i < src.size(); ++i) {
    ARTSCI_CHECK_MSG(src[i].shape() == dst[i].shape(),
                     "copyParameters: tensor " << i << " shape "
                                               << shapeToString(src[i].shape())
                                               << " != "
                                               << shapeToString(dst[i].shape()));
    dst[i].data() = src[i].data();
  }
}

}  // namespace artsci::ml
