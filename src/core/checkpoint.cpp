#include "core/checkpoint.hpp"

#include <algorithm>
#include <charconv>
#include <filesystem>

#include "fault/fault.hpp"
#include "obs/metrics.hpp"

namespace artsci::core {
namespace {

namespace fs = std::filesystem;

constexpr char kFilePrefix[] = "ckpt-";
constexpr char kFileSuffix[] = ".artsci";

// --- the trainer-state block ------------------------------------------------

void putRngState(ml::ByteWriter& w, const Rng::State& st) {
  for (std::uint64_t word : st.s) w.u64(word);
  w.f64(st.cached);
  w.u64(st.hasCached ? 1 : 0);
}

void putSample(ml::ByteWriter& w, const Sample& s) {
  w.doubles(s.cloud);
  w.doubles(s.spectrum);
  w.i64(s.region);
  w.i64(s.step);
}

Rng::State readRngState(ml::ByteReader& r) {
  Rng::State st;
  for (auto& word : st.s) word = r.u64();
  st.cached = r.f64();
  const std::uint64_t flag = r.u64();
  if (flag > 1) r.fail("has RNG cache flag " + std::to_string(flag));
  st.hasCached = flag == 1;
  return st;
}

Sample readSample(ml::ByteReader& r) {
  Sample s;
  s.cloud = r.doubles();
  s.spectrum = r.doubles();
  s.region = static_cast<int>(r.i64());
  s.step = r.i64();
  return s;
}

/// `count` samples of a buffer half holding at most `capacity`.
std::vector<Sample> readBufferHalf(ml::ByteReader& r, const char* half,
                                   std::size_t capacity) {
  const std::uint64_t count = r.u64();
  if (count > capacity)
    r.fail(std::string("has ") + std::to_string(count) + " " + half +
           "-buffer samples, capacity is " + std::to_string(capacity));
  std::vector<Sample> samples;
  for (std::uint64_t i = 0; i < count; ++i) samples.push_back(readSample(r));
  return samples;
}

/// Steps encoded into a checkpoint file name, or empty for other files
/// (including a digit run too long for a long).
std::optional<long> stepsFromName(const std::string& name) {
  const std::size_t prefix = sizeof(kFilePrefix) - 1;
  const std::size_t suffix = sizeof(kFileSuffix) - 1;
  if (name.size() <= prefix + suffix) return std::nullopt;
  if (name.compare(0, prefix, kFilePrefix) != 0) return std::nullopt;
  if (name.compare(name.size() - suffix, suffix, kFileSuffix) != 0)
    return std::nullopt;
  const char* first = name.data() + prefix;
  const char* last = name.data() + name.size() - suffix;
  long steps = 0;
  const auto [end, ec] = std::from_chars(first, last, steps);
  if (*first == '-' || ec != std::errc{} || end != last) return std::nullopt;
  return steps;
}

}  // namespace

void savePipelineCheckpoint(const std::string& path,
                            const InTransitTrainer& trainer,
                            const CheckpointMeta& meta) {
  FAULT_POINT("ckpt.save");
  const TrainerCheckpointState s = trainer.captureCheckpointState();
  ml::ByteWriter w;
  w.parameters(trainer.model(0).parameters());
  w.i64(meta.streamedSteps);
  w.i64(meta.trainerIterations);
  w.u64(s.rankRngs.size());  // trainer ranks
  w.doubles(s.adamPacked);
  w.i64(s.adamStep);
  for (const auto& st : s.rankRngs) putRngState(w, st);
  w.u64(s.buffer.now.size());
  for (const auto& sample : s.buffer.now) putSample(w, sample);
  w.u64(s.buffer.ep.size());
  for (const auto& sample : s.buffer.ep) putSample(w, sample);
  putRngState(w, s.buffer.rng);
  w.u64(s.buffer.received);
  w.u64(s.buffer.batchesSampled);
  w.i64(s.iterations);
  w.write(path);
  obs::Registry::global().counter("ckpt.saved").add();
}

CheckpointMeta loadPipelineCheckpoint(const std::string& path,
                                      InTransitTrainer& trainer) {
  ml::ByteReader r(path);
  // Parse the complete state into staging storage, validating every
  // length against both the file and the restoring trainer, BEFORE
  // touching the trainer: a defect anywhere leaves it untouched.
  TrainerCheckpointState s;
  const auto tensors = trainer.model(0).parameters();
  const auto at = r.parameters(tensors);
  for (std::size_t i = 0; i < tensors.size(); ++i) {
    auto& values = s.params.emplace_back(tensors[i].data().size());
    r.values(at[i], values.data(), values.size());
  }
  CheckpointMeta meta;
  meta.streamedSteps = r.i64();
  meta.trainerIterations = r.i64();
  const std::uint64_t ranks = r.u64();
  if (ranks != trainer.config().ranks)
    r.fail("was written with " + std::to_string(ranks) +
           " ranks, trainer has " + std::to_string(trainer.config().ranks));
  std::size_t paramTotal = 0;
  for (const auto& tensor : s.params) paramTotal += tensor.size();
  s.adamPacked = r.doubles();
  if (s.adamPacked.size() != 2 * paramTotal)
    r.fail("has " + std::to_string(s.adamPacked.size()) +
           " Adam state values, expected " + std::to_string(2 * paramTotal));
  s.adamStep = r.i64();
  if (s.adamStep < 0) r.fail("has a negative Adam step count");
  for (std::uint64_t rk = 0; rk < ranks; ++rk)
    s.rankRngs.push_back(readRngState(r));
  const auto& bufCfg = trainer.config().buffer;
  s.buffer.now = readBufferHalf(r, "now", bufCfg.nowCapacity);
  s.buffer.ep = readBufferHalf(r, "EP", bufCfg.epCapacity);
  s.buffer.rng = readRngState(r);
  s.buffer.received = static_cast<std::size_t>(r.u64());
  s.buffer.batchesSampled = static_cast<std::size_t>(r.u64());
  s.iterations = r.i64();
  r.expectEnd();

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
