#include "ml/serialize.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/crc32.hpp"
#include "fault/fault.hpp"

namespace artsci::ml {

namespace {
constexpr char kMagic[8] = {'A', 'R', 'T', 'S', 'C', 'K', 'P', '2'};
constexpr std::uint32_t kVersion = 2;
constexpr std::uint32_t kFooterMagic = 0xC4C32FEDu;
constexpr std::size_t kHeadBytes = sizeof kMagic + sizeof kVersion;
constexpr std::size_t kFooterBytes = 2 * sizeof(std::uint32_t);

static_assert(sizeof(Real) == sizeof(double),
              "the container stores parameters as doubles");

std::uint64_t totalElements(const std::vector<Tensor>& params) {
  std::uint64_t n = 0;
  for (const auto& p : params) n += static_cast<std::uint64_t>(p.numel());
  return n;
}

std::string systemError() { return std::strerror(errno); }

}  // namespace

void saveParameters(const std::string& path,
                    const std::vector<Tensor>& params) {
  ByteWriter w;
  w.parameters(params);
  w.write(path);
}

void loadParameters(const std::string& path, std::vector<Tensor>& params) {
  ByteReader r(path);
  const auto at = r.parameters(params);
  r.expectEnd();
  for (std::size_t i = 0; i < params.size(); ++i)
    r.values(at[i], params[i].data().data(), params[i].data().size());
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

// --- writing ----------------------------------------------------------------

ByteWriter::ByteWriter() : out_(kHeadBytes) {
  std::memcpy(out_.data(), kMagic, sizeof kMagic);
  std::memcpy(out_.data() + sizeof kMagic, &kVersion, sizeof kVersion);
}

void ByteWriter::raw(const void* p, std::size_t n) {
  const auto* b = static_cast<const std::uint8_t*>(p);
  out_.insert(out_.end(), b, b + n);
}

void ByteWriter::doubles(const std::vector<double>& v) {
  u64(v.size());
  raw(v.data(), v.size() * sizeof(double));
}

void ByteWriter::parameters(const std::vector<Tensor>& params) {
  u64(params.size());
  u64(totalElements(params));
  for (const auto& p : params) {
    u64(p.shape().size());
    for (long d : p.shape()) u64(static_cast<std::uint64_t>(d));
    raw(p.data().data(), p.data().size() * sizeof(Real));
  }
}

void ByteWriter::write(const std::string& path) {
  const std::uint32_t crc = crc32c(out_.data(), out_.size());
  raw(&crc, sizeof crc);
  raw(&kFooterMagic, sizeof kFooterMagic);
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0)
    throw CheckpointError("cannot create '" + tmp + "': " + systemError());

  std::size_t want = out_.size();
  if (fault::Plan::global().armed())
    want = fault::Plan::global().tornBytes("ckpt.write", out_.size());
  std::size_t done = 0;
  while (done < want) {
    const ::ssize_t w = ::write(fd, out_.data() + done, want - done);
    if (w <= 0) {
      const std::string reason = systemError();
      ::close(fd);
      throw CheckpointError("write to '" + tmp + "' failed: " + reason);
    }
    done += static_cast<std::size_t>(w);
  }
  if (want < out_.size()) {
    ::close(fd);
    throw fault::FaultInjectedError(
        "torn write: " + std::to_string(want) + " of " +
        std::to_string(out_.size()) + " bytes reached '" + tmp + "'");
  }
  ::fsync(fd);
  ::close(fd);
  if (std::rename(tmp.c_str(), path.c_str()) != 0)
    throw CheckpointError("rename '" + tmp + "' -> '" + path +
                          "' failed: " + systemError());
  // Persist the rename itself.
  const std::filesystem::path dir = std::filesystem::path(path).parent_path();
  const int dfd =
      ::open(dir.empty() ? "." : dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
}

// --- reading ----------------------------------------------------------------

ByteReader::ByteReader(const std::string& path) : path_(path) {
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec) fail("cannot be read: " + ec.message());
  bytes_ = std::make_unique_for_overwrite<std::uint8_t[]>(size);
  std::ifstream in(path, std::ios::binary);
  if (!in.read(reinterpret_cast<char*>(bytes_.get()),
               static_cast<std::streamsize>(size)))
    fail("could not be read whole");

  // Footer first: a mismatch rejects the file without interpreting any of
  // it, and a match makes every later parse error a defect the CRC missed
  // or a file written for another target.
  if (size < kHeadBytes + kFooterBytes)
    fail("is too short (" + std::to_string(size) +
         " bytes) to be an artsci checkpoint");
  end_ = size - kFooterBytes;
  std::uint32_t storedCrc, footer;
  std::memcpy(&storedCrc, bytes_.get() + end_, sizeof storedCrc);
  std::memcpy(&footer, bytes_.get() + end_ + sizeof storedCrc, sizeof footer);
  if (footer != kFooterMagic) fail("has no valid footer (torn write?)");
  if (crc32c(bytes_.get(), end_) != storedCrc)
    fail("fails its CRC-32C check");
  char magic[sizeof kMagic];
  raw(magic, sizeof magic);
  if (std::memcmp(magic, kMagic, sizeof kMagic) != 0)
    fail("is not an artsci checkpoint");
  std::uint32_t version;
  raw(&version, sizeof version);
  if (version != kVersion)
    fail("has container version " + std::to_string(version) +
         ", this build reads version " + std::to_string(kVersion));
}

void ByteReader::raw(void* dst, std::size_t n) {
  if (n > end_ - off_)
    fail("is truncated: need " + std::to_string(n) + " bytes at offset " +
         std::to_string(off_) + ", have " + std::to_string(end_ - off_));
  std::memcpy(dst, bytes_.get() + off_, n);
  off_ += n;
}

std::vector<double> ByteReader::doubles() {
  const std::uint64_t n = u64();
  if (n > (end_ - off_) / sizeof(double))
    fail("is truncated: a vector of " + std::to_string(n) +
         " values exceeds the bytes left");
  std::vector<double> v(static_cast<std::size_t>(n));
  raw(v.data(), v.size() * sizeof(double));
  return v;
}

std::vector<std::size_t> ByteReader::parameters(
    const std::vector<Tensor>& like) {
  const std::uint64_t count = u64();
  if (count != like.size())
    fail("has " + std::to_string(count) + " tensors, expected " +
         std::to_string(like.size()));
  const std::uint64_t declared = u64();
  if (declared != totalElements(like))
    fail("holds " + std::to_string(declared) +
         " scalars, the target parameter list holds " +
         std::to_string(totalElements(like)) +
         " — model architecture mismatch");
  std::vector<std::size_t> at;
  for (std::size_t i = 0; i < like.size(); ++i) {
    const std::uint64_t nd = u64();
    // Shape is a fixed small buffer: a larger rank is a corrupt header.
    if (nd > Shape::kMaxNdim)
      fail("tensor " + std::to_string(i) + " declares rank " +
           std::to_string(nd) + " — corrupt header");
    Shape shape(nd);
    for (auto& d : shape) d = static_cast<long>(u64());
    if (shape != like[i].shape())
      fail("tensor " + std::to_string(i) + " has shape " +
           shapeToString(shape) + " != parameter shape " +
           shapeToString(like[i].shape()));
    const std::size_t bytes = like[i].data().size() * sizeof(Real);
    if (bytes > end_ - off_)
      fail("is truncated inside tensor " + std::to_string(i) + "'s values");
    at.push_back(off_);
    off_ += bytes;
  }
  return at;
}

void ByteReader::values(std::size_t at, Real* dst, std::size_t n) const {
  ARTSCI_EXPECTS(at <= end_ && n <= (end_ - at) / sizeof(Real));
  std::memcpy(dst, bytes_.get() + at, n * sizeof(Real));
}

void ByteReader::expectEnd() const {
  if (off_ != end_)
    fail("has " + std::to_string(end_ - off_) +
         " trailing bytes after its last block — architecture mismatch or "
         "the other kind of file");
}

void ByteReader::fail(const std::string& what) const {
  throw CheckpointError("'" + path_ + "' " + what);
}

}  // namespace artsci::ml
