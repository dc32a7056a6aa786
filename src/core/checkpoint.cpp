#include "core/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/crc32.hpp"
#include "fault/fault.hpp"
#include "obs/metrics.hpp"

namespace artsci::core {
namespace {

namespace fs = std::filesystem;

// File layout v1 ("ARTSCKP1" | u32 version | payload | u32 crc | u32
// footer magic). All integers little-endian via memcpy on the host —
// checkpoints are node-local crash-recovery state, not an interchange
// format.
constexpr char kMagic[8] = {'A', 'R', 'T', 'S', 'C', 'K', 'P', '1'};
constexpr std::uint32_t kVersion = 1;
constexpr std::uint32_t kFooterMagic = 0xC4C32FEDu;
constexpr char kFilePrefix[] = "ckpt-";
constexpr char kFileSuffix[] = ".artsci";

// --- serialization ----------------------------------------------------------

void putBytes(std::vector<std::uint8_t>& out, const void* p, std::size_t n) {
  const auto* b = static_cast<const std::uint8_t*>(p);
  out.insert(out.end(), b, b + n);
}

void putU32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  putBytes(out, &v, sizeof v);
}

void putU64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  putBytes(out, &v, sizeof v);
}

void putI64(std::vector<std::uint8_t>& out, long v) {
  putU64(out, static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
}

void putF64(std::vector<std::uint8_t>& out, double v) {
  putBytes(out, &v, sizeof v);
}

void putDoubles(std::vector<std::uint8_t>& out,
                const std::vector<double>& v) {
  putU64(out, v.size());
  putBytes(out, v.data(), v.size() * sizeof(double));
}

void putRngState(std::vector<std::uint8_t>& out, const Rng::State& st) {
  for (std::uint64_t word : st.s) putU64(out, word);
  putF64(out, st.cached);
  out.push_back(st.hasCached ? 1 : 0);
}

void putSample(std::vector<std::uint8_t>& out, const Sample& s) {
  putDoubles(out, s.cloud);
  putDoubles(out, s.spectrum);
  putI64(out, s.region);
  putI64(out, s.step);
}

// --- bounds-checked parsing -------------------------------------------------

class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  void raw(void* dst, std::size_t n) {
    if (n > size_ - off_)
      throw CheckpointError("checkpoint truncated: need " +
                            std::to_string(n) + " bytes at offset " +
                            std::to_string(off_) + ", have " +
                            std::to_string(size_ - off_));
    std::memcpy(dst, data_ + off_, n);
    off_ += n;
  }

  std::uint32_t u32() {
    std::uint32_t v;
    raw(&v, sizeof v);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v;
    raw(&v, sizeof v);
    return v;
  }
  long i64() { return static_cast<long>(static_cast<std::int64_t>(u64())); }
  double f64() {
    double v;
    raw(&v, sizeof v);
    return v;
  }
  std::uint8_t u8() {
    std::uint8_t v;
    raw(&v, sizeof v);
    return v;
  }

  /// Length-prefixed double vector; the length is validated against the
  /// remaining bytes before allocating, so a bit flip in a length field
  /// cannot trigger a huge allocation.
  std::vector<double> doubles() {
    const std::uint64_t n = u64();
    if (n > (size_ - off_) / sizeof(double))
      throw CheckpointError("checkpoint corrupt: vector length " +
                            std::to_string(n) + " exceeds remaining bytes");
    std::vector<double> v(static_cast<std::size_t>(n));
    raw(v.data(), v.size() * sizeof(double));
    return v;
  }

  Rng::State rngState() {
    Rng::State st;
    for (auto& word : st.s) word = u64();
    st.cached = f64();
    const std::uint8_t flag = u8();
    if (flag > 1)
      throw CheckpointError("checkpoint corrupt: RNG cache flag " +
                            std::to_string(flag));
    st.hasCached = flag == 1;
    return st;
  }

  Sample sample() {
    Sample s;
    s.cloud = doubles();
    s.spectrum = doubles();
    s.region = static_cast<int>(i64());
    s.step = i64();
    return s;
  }

  std::size_t remaining() const { return size_ - off_; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t off_ = 0;
};

// --- file I/O ---------------------------------------------------------------

/// write + CRC footer + fsync + rename. The torn-write fault site
/// truncates the payload mid-file and throws, leaving the tmp artifact
/// behind exactly like a crash would.
void atomicWriteFile(const std::string& path,
                     const std::vector<std::uint8_t>& bytes) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0)
    throw CheckpointError("cannot create '" + tmp +
                          "': " + std::strerror(errno));

  std::size_t want = bytes.size();
  if (fault::Plan::global().armed())
    want = fault::Plan::global().tornBytes("ckpt.write", bytes.size());
  std::size_t done = 0;
  while (done < want) {
    const ::ssize_t w = ::write(fd, bytes.data() + done, want - done);
    if (w <= 0) {
      ::close(fd);
      throw CheckpointError("write to '" + tmp +
                            "' failed: " + std::strerror(errno));
    }
    done += static_cast<std::size_t>(w);
  }
  if (want < bytes.size()) {
    ::close(fd);
    throw fault::FaultInjectedError(
        "torn checkpoint write: " + std::to_string(want) + " of " +
        std::to_string(bytes.size()) + " bytes reached '" + tmp + "'");
  }
  ::fsync(fd);
  ::close(fd);
  if (std::rename(tmp.c_str(), path.c_str()) != 0)
    throw CheckpointError("rename '" + tmp + "' -> '" + path +
                          "' failed: " + std::strerror(errno));
  // Persist the rename itself.
  const fs::path dir = fs::path(path).parent_path();
  const int dfd =
      ::open(dir.empty() ? "." : dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
}

std::vector<std::uint8_t> readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw CheckpointError("cannot open checkpoint '" + path + "'");
  std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>(in),
                                  std::istreambuf_iterator<char>()};
  if (!in.good() && !in.eof())
    throw CheckpointError("read of checkpoint '" + path + "' failed");
  return bytes;
}

/// Steps encoded into a checkpoint file name, or empty for other files.
std::optional<long> stepsFromName(const std::string& name) {
  const std::size_t prefix = sizeof(kFilePrefix) - 1;
  const std::size_t suffix = sizeof(kFileSuffix) - 1;
  if (name.size() <= prefix + suffix) return std::nullopt;
  if (name.compare(0, prefix, kFilePrefix) != 0) return std::nullopt;
  if (name.compare(name.size() - suffix, suffix, kFileSuffix) != 0)
    return std::nullopt;
  const std::string digits = name.substr(prefix, name.size() - prefix - suffix);
  if (digits.empty()) return std::nullopt;
  long steps = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    steps = steps * 10 + (c - '0');
  }
  return steps;
}

}  // namespace

std::vector<std::uint8_t> serializePipelineCheckpoint(
    const InTransitTrainer& trainer, const CheckpointMeta& meta) {
  static_assert(sizeof(ml::Real) == sizeof(double),
                "checkpoint format stores parameters as doubles");
  const TrainerCheckpointState s = trainer.captureCheckpointState();

  std::vector<std::uint8_t> out;
  putBytes(out, kMagic, sizeof kMagic);
  putU32(out, kVersion);
  putI64(out, meta.streamedSteps);
  putI64(out, meta.trainerIterations);

  putU64(out, s.rankRngs.size());  // trainer ranks
  putU64(out, s.params.size());
  for (const auto& tensor : s.params) putDoubles(out, tensor);
  putDoubles(out, s.adamPacked);
  putI64(out, s.adamStep);
  for (const auto& st : s.rankRngs) putRngState(out, st);

  putU64(out, s.buffer.now.size());
  for (const auto& sample : s.buffer.now) putSample(out, sample);
  putU64(out, s.buffer.ep.size());
  for (const auto& sample : s.buffer.ep) putSample(out, sample);
  putRngState(out, s.buffer.rng);
  putU64(out, s.buffer.received);
  putU64(out, s.buffer.batchesSampled);
  putI64(out, s.iterations);

  putU32(out, crc32(out.data(), out.size()));
  putU32(out, kFooterMagic);
  return out;
}

void savePipelineCheckpoint(const std::string& path,
                            const InTransitTrainer& trainer,
                            const CheckpointMeta& meta) {
  FAULT_POINT("ckpt.save");
  atomicWriteFile(path, serializePipelineCheckpoint(trainer, meta));
  obs::Registry::global().counter("ckpt.saved").add();
}

CheckpointMeta loadPipelineCheckpoint(const std::string& path,
                                      InTransitTrainer& trainer) {
  const std::vector<std::uint8_t> bytes = readFile(path);
  constexpr std::size_t kFooterBytes = 2 * sizeof(std::uint32_t);
  if (bytes.size() < sizeof kMagic + sizeof(std::uint32_t) + kFooterBytes)
    throw CheckpointError("checkpoint '" + path + "' too short (" +
                          std::to_string(bytes.size()) + " bytes)");

  // Footer first: a CRC match makes every later parse error a logic bug
  // rather than corruption, and a mismatch rejects the file in O(n)
  // without interpreting any of it.
  const std::size_t body = bytes.size() - kFooterBytes;
  std::uint32_t storedCrc, storedFooter;
  std::memcpy(&storedCrc, bytes.data() + body, sizeof storedCrc);
  std::memcpy(&storedFooter, bytes.data() + body + sizeof storedCrc,
              sizeof storedFooter);
  if (storedFooter != kFooterMagic)
    throw CheckpointError("checkpoint '" + path +
                          "' has no valid footer (torn write?)");
  if (crc32(bytes.data(), body) != storedCrc)
    throw CheckpointError("checkpoint '" + path + "' fails CRC-32 check");

  ByteReader r(bytes.data(), body);
  char magic[sizeof kMagic];
  r.raw(magic, sizeof magic);
  if (std::memcmp(magic, kMagic, sizeof kMagic) != 0)
    throw CheckpointError("'" + path + "' is not an artsci checkpoint");
  const std::uint32_t version = r.u32();
  if (version != kVersion)
    throw CheckpointError("checkpoint '" + path + "' has version " +
                          std::to_string(version) + ", reader supports " +
                          std::to_string(kVersion));

  CheckpointMeta meta;
  meta.streamedSteps = r.i64();
  meta.trainerIterations = r.i64();

  // Parse the complete state into staging storage, validating every
  // length against both the file and the restoring trainer, BEFORE
  // touching the trainer: a defect anywhere leaves it untouched.
  TrainerCheckpointState s;
  const std::uint64_t ranks = r.u64();
  if (ranks != trainer.config().ranks)
    throw CheckpointError("checkpoint '" + path + "' was written with " +
                          std::to_string(ranks) + " ranks, trainer has " +
                          std::to_string(trainer.config().ranks));
  const std::uint64_t tensorCount = r.u64();
  const auto tensors = trainer.model(0).parameters();
  if (tensorCount != tensors.size())
    throw CheckpointError("checkpoint '" + path + "' holds " +
                          std::to_string(tensorCount) +
                          " parameter tensors, model has " +
                          std::to_string(tensors.size()));
  std::size_t paramTotal = 0;
  for (std::size_t i = 0; i < tensorCount; ++i) {
    s.params.push_back(r.doubles());
    if (s.params.back().size() != tensors[i].data().size())
      throw CheckpointError(
          "checkpoint '" + path + "' tensor " + std::to_string(i) + " has " +
          std::to_string(s.params.back().size()) + " values, model tensor has " +
          std::to_string(tensors[i].data().size()));
    paramTotal += s.params.back().size();
  }
  s.adamPacked = r.doubles();
  if (s.adamPacked.size() != 2 * paramTotal)
    throw CheckpointError("checkpoint '" + path + "' Adam state has " +
                          std::to_string(s.adamPacked.size()) +
                          " values, expected " +
                          std::to_string(2 * paramTotal));
  s.adamStep = r.i64();
  if (s.adamStep < 0)
    throw CheckpointError("checkpoint '" + path +
                          "' has negative Adam step count");
  for (std::uint64_t rk = 0; rk < ranks; ++rk)
    s.rankRngs.push_back(r.rngState());

  const std::uint64_t nowCount = r.u64();
  const auto& bufCfg = trainer.config().buffer;
  if (nowCount > bufCfg.nowCapacity)
    throw CheckpointError("checkpoint '" + path + "' now-buffer holds " +
                          std::to_string(nowCount) + " samples, capacity is " +
                          std::to_string(bufCfg.nowCapacity));
  for (std::uint64_t i = 0; i < nowCount; ++i)
    s.buffer.now.push_back(r.sample());
  const std::uint64_t epCount = r.u64();
  if (epCount > bufCfg.epCapacity)
    throw CheckpointError("checkpoint '" + path + "' EP-buffer holds " +
                          std::to_string(epCount) + " samples, capacity is " +
                          std::to_string(bufCfg.epCapacity));
  for (std::uint64_t i = 0; i < epCount; ++i)
    s.buffer.ep.push_back(r.sample());
  s.buffer.rng = r.rngState();
  s.buffer.received = static_cast<std::size_t>(r.u64());
  s.buffer.batchesSampled = static_cast<std::size_t>(r.u64());
  s.iterations = r.i64();
  if (r.remaining() != 0)
    throw CheckpointError("checkpoint '" + path + "' has " +
                          std::to_string(r.remaining()) +
                          " trailing bytes after the state");

  trainer.restoreCheckpointState(s);
  obs::Registry::global().counter("ckpt.loaded").add();
  return meta;
}

// --- CheckpointManager ------------------------------------------------------

CheckpointManager::CheckpointManager(std::string dir, std::size_t keep)
    : dir_(std::move(dir)), keep_(keep) {
  ARTSCI_EXPECTS(keep_ >= 1);
  fs::create_directories(dir_);
}

std::vector<std::string> CheckpointManager::list() const {
  std::vector<std::pair<long, std::string>> found;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const auto steps = stepsFromName(entry.path().filename().string());
    if (steps) found.emplace_back(*steps, entry.path().string());
  }
  std::sort(found.begin(), found.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<std::string> paths;
  for (auto& [steps, path] : found) paths.push_back(std::move(path));
  return paths;
}

std::string CheckpointManager::save(const InTransitTrainer& trainer,
                                    const CheckpointMeta& meta) {
  const std::string path = dir_ + "/" + kFilePrefix +
                           std::to_string(meta.streamedSteps) + kFileSuffix;
  savePipelineCheckpoint(path, trainer, meta);
  const auto paths = list();
  for (std::size_t i = keep_; i < paths.size(); ++i) {
    std::error_code ec;
    fs::remove(paths[i], ec);  // best effort; stale files are harmless
  }
  return path;
}

std::optional<CheckpointMeta> CheckpointManager::loadLatest(
    InTransitTrainer& trainer) {
  for (const auto& path : list()) {
    try {
      return loadPipelineCheckpoint(path, trainer);
    } catch (const CheckpointError&) {
      // Torn or corrupt — fall back to the next-newest intact file.
      obs::Registry::global().counter("ckpt.load_fallbacks").add();
    }
  }
  return std::nullopt;
}

}  // namespace artsci::core
