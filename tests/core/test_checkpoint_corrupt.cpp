/// Fuzz-style corruption battery for the one on-disk container
/// (ml/serialize.hpp), run over both kinds of file it holds: a pipeline
/// checkpoint (core/checkpoint.hpp) and a weights file
/// (ml::saveParameters). Truncations at every stride and at each block
/// boundary, single-bit flips across the file, wrong magic/version and
/// trailing bytes with a *valid* CRC (exercising the semantic checks, not
/// just the checksum), an empty or missing file, rank mismatches, and each
/// kind of file loaded as the other. Every defect must surface as a typed
/// CheckpointError and leave the restoring target bit-for-bit untouched —
/// never UB, never a partial restore. The CRC-32C both loops compute is
/// checked here too.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>

#include "common/crc32.hpp"
#include "core/checkpoint.hpp"

namespace artsci::core {
namespace {

enum class Kind { kCheckpoint, kWeights };

std::string kindName(const ::testing::TestParamInfo<Kind>& info) {
  return info.param == Kind::kCheckpoint ? "Checkpoint" : "Weights";
}

Sample smallSample(long index) {
  Rng rng(0x77ULL + static_cast<std::uint64_t>(index));
  Sample s;
  s.cloud.resize(64 * 6);
  for (auto& v : s.cloud) v = rng.uniform(-1, 1);
  s.spectrum.resize(32);
  for (auto& v : s.spectrum) v = 0.5 + 0.1 * rng.normal();
  s.region = static_cast<int>(index % 3);
  s.step = index;
  return s;
}

std::vector<std::uint8_t> readBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::vector<std::vector<ml::Real>> paramsOf(const InTransitTrainer& t) {
  std::vector<std::vector<ml::Real>> out;
  for (const auto& p : t.model(0).parameters()) out.push_back(p.data());
  return out;
}

TrainerConfig oneRank(std::uint64_t seed) {
  TrainerConfig cfg;
  cfg.ranks = 1;
  cfg.seed = seed;
  return cfg;
}

class ContainerCorruptTest : public ::testing::TestWithParam<Kind> {
 protected:
  // One source trainer and its two files for the whole battery: the
  // mutations are cheap, the model build is not. The target is another
  // trainer whose every weight differs from the files', so a partial
  // restore would show.
  static void SetUpTestSuite() {
    InTransitTrainer source(ArtificialScientistModel::Config::reduced(),
                            oneRank(777));
    for (long i = 0; i < 6; ++i) source.buffer().push(smallSample(i));
    source.trainIterations(4);
    const std::string path = ::testing::TempDir() + "artsci_corrupt_src";
    savePipelineCheckpoint(path, source, {6, 4});
    checkpoint_ = readBytes(path);
    ml::saveParameters(path, source.model(0).parameters());
    weights_ = readBytes(path);
    std::remove(path.c_str());
    sourceParams_ = paramsOf(source);
    target_ = new InTransitTrainer(ArtificialScientistModel::Config::reduced(),
                                   oneRank(778));
  }

  static void TearDownTestSuite() {
    delete target_;
    target_ = nullptr;
  }

  void TearDown() override {
    for (const auto& p : written_) std::remove(p.c_str());
    written_.clear();
  }

  static const std::vector<std::uint8_t>& bytesOf(Kind kind) {
    return kind == Kind::kCheckpoint ? checkpoint_ : weights_;
  }

  std::string writeFile(const std::vector<std::uint8_t>& bytes) {
    const std::string path = ::testing::TempDir() + "artsci_corrupt_" +
                             std::to_string(written_.size()) + ".artsci";
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    out.close();
    written_.push_back(path);
    return path;
  }

  static void load(const std::string& path, Kind kind,
                   InTransitTrainer& into) {
    if (kind == Kind::kCheckpoint) {
      loadPipelineCheckpoint(path, into);
    } else {
      auto params = into.model(0).parameters();
      ml::loadParameters(path, params);
    }
  }

  /// The defect contract: typed error, untouched target.
  void expectRejected(const std::vector<std::uint8_t>& bytes,
                      const std::string& what, Kind kind) {
    const auto before = paramsOf(*target_);
    const std::string path = writeFile(bytes);
    EXPECT_THROW(load(path, kind, *target_), CheckpointError) << what;
    const auto after = paramsOf(*target_);
    ASSERT_EQ(after.size(), before.size()) << what;
    for (std::size_t t = 0; t < after.size(); ++t)
      ASSERT_EQ(after[t], before[t]) << what << ": tensor " << t
                                     << " was modified";
  }
  void expectRejected(const std::vector<std::uint8_t>& bytes,
                      const std::string& what) {
    expectRejected(bytes, what, GetParam());
  }

  /// Everything before the CRC of an intact file of this kind.
  static std::vector<std::uint8_t> body() {
    const auto& bytes = bytesOf(GetParam());
    return {bytes.begin(), bytes.end() - 8};
  }

  /// Rebuild a valid CRC footer over `body` so mutations *before* the
  /// footer survive the checksum and reach the semantic validators. The
  /// footer magic is lifted from an intact file rather than duplicating
  /// the constant here.
  static std::vector<std::uint8_t> withValidFooter(
      std::vector<std::uint8_t> body) {
    const std::uint32_t crc = crc32c(body.data(), body.size());
    std::uint8_t buf[4];
    std::memcpy(buf, &crc, 4);
    body.insert(body.end(), buf, buf + 4);
    body.insert(body.end(), weights_.end() - 4, weights_.end());
    return body;
  }

  /// Where the blocks begin and end: the head (magic and version), the
  /// parameters block's two count words, each tensor's header and values,
  /// the end of the parameters block, the end of the body and of the CRC.
  static std::vector<std::size_t> blockBoundaries(Kind kind) {
    std::vector<std::size_t> at{12, 20, 28};
    std::size_t off = 28;
    for (const auto& p : target_->model(0).parameters()) {
      off += 8 * (1 + p.shape().size());
      at.push_back(off);
      off += 8 * static_cast<std::size_t>(p.numel());
      at.push_back(off);
    }
    const std::size_t n = bytesOf(kind).size();
    at.push_back(n - 8);
    at.push_back(n - 4);
    return at;
  }

  static InTransitTrainer* target_;
  static std::vector<std::uint8_t> checkpoint_;
  static std::vector<std::uint8_t> weights_;
  static std::vector<std::vector<ml::Real>> sourceParams_;
  std::vector<std::string> written_;
};

InTransitTrainer* ContainerCorruptTest::target_ = nullptr;
std::vector<std::uint8_t> ContainerCorruptTest::checkpoint_;
std::vector<std::uint8_t> ContainerCorruptTest::weights_;
std::vector<std::vector<ml::Real>> ContainerCorruptTest::sourceParams_;

TEST_P(ContainerCorruptTest, IntactFileLoadsCleanly) {
  // Guards the battery against vacuity: the unmutated bytes restore the
  // source's weights into a fresh trainer.
  InTransitTrainer fresh(ArtificialScientistModel::Config::reduced(),
                         oneRank(778));
  ASSERT_NE(paramsOf(fresh), sourceParams_);
  load(writeFile(bytesOf(GetParam())), GetParam(), fresh);
  EXPECT_EQ(paramsOf(fresh), sourceParams_);
}

TEST_P(ContainerCorruptTest, TruncationAtEveryStrideRejected) {
  const auto& bytes = bytesOf(GetParam());
  const std::size_t n = bytes.size();
  std::vector<std::size_t> cuts{0, 1, 7, 8, 11, 12, n - 9, n - 4, n - 1};
  for (std::size_t frac = 1; frac <= 7; ++frac) cuts.push_back(n * frac / 8);
  for (const std::size_t cut : blockBoundaries(GetParam())) cuts.push_back(cut);
  for (const std::size_t cut : cuts) {
    expectRejected({bytes.begin(), bytes.begin() + static_cast<long>(cut)},
                   "truncated to " + std::to_string(cut) + " bytes");
  }
}

TEST_P(ContainerCorruptTest, BodyCutAtEachBlockBoundaryWithValidCrcRejected) {
  // The body cut short at a block boundary, under a valid footer: the
  // parser itself must find the block missing.
  const auto full = body();
  for (const std::size_t cut : blockBoundaries(GetParam())) {
    if (cut >= full.size()) continue;
    expectRejected(withValidFooter({full.begin(),
                                    full.begin() + static_cast<long>(cut)}),
                   "body cut at " + std::to_string(cut) + " bytes");
  }
}

TEST_P(ContainerCorruptTest, SingleBitFlipAnywhereRejected) {
  // Strided sweep across the whole file, footer included: every flip must
  // fail the CRC (body), the CRC comparison (stored CRC) or the footer
  // magic check — all typed, none UB.
  const auto& bytes = bytesOf(GetParam());
  const std::size_t stride = std::max<std::size_t>(1, bytes.size() / 29);
  for (std::size_t off = 0; off < bytes.size(); off += stride) {
    auto copy = bytes;
    copy[off] ^= 0x10;
    expectRejected(copy, "bit flip at offset " + std::to_string(off));
  }
}

TEST_P(ContainerCorruptTest, WrongMagicWithValidCrcRejected) {
  auto b = body();
  b[0] = 'X';
  expectRejected(withValidFooter(std::move(b)), "wrong magic");
}

TEST_P(ContainerCorruptTest, WrongVersionWithValidCrcRejected) {
  auto b = body();
  const std::uint32_t version = 99;
  std::memcpy(b.data() + 8, &version, 4);  // version follows the magic
  expectRejected(withValidFooter(std::move(b)), "version 99");
}

TEST_P(ContainerCorruptTest, TrailingGarbageWithValidCrcRejected) {
  auto b = body();
  b.insert(b.end(), 16, std::uint8_t{0});
  expectRejected(withValidFooter(std::move(b)), "trailing garbage");
}

TEST_P(ContainerCorruptTest, EmptyFileRejected) {
  expectRejected({}, "empty file");
}

TEST_P(ContainerCorruptTest, MissingFileRejected) {
  const auto before = paramsOf(*target_);
  EXPECT_THROW(load(::testing::TempDir() + "does_not_exist.artsci",
                    GetParam(), *target_),
               CheckpointError);
  EXPECT_EQ(paramsOf(*target_), before);
}

TEST_P(ContainerCorruptTest, OtherKindOfFileRejected) {
  // No kind word: each reader requires the body to end where its own
  // blocks do, so the weights file is a truncated checkpoint and the
  // checkpoint a weights file with trailing bytes.
  const Kind other =
      GetParam() == Kind::kCheckpoint ? Kind::kWeights : Kind::kCheckpoint;
  expectRejected(bytesOf(other), "the other kind of file", GetParam());
}

INSTANTIATE_TEST_SUITE_P(BothKinds, ContainerCorruptTest,
                         ::testing::Values(Kind::kCheckpoint, Kind::kWeights),
                         kindName);

using CheckpointCorruptTest = ContainerCorruptTest;

TEST_F(CheckpointCorruptTest, WeightsCutInsideTheSecondTensorRestoresNothing) {
  // The first tensor is whole, the second cut short: nothing may be
  // restored, not even the first.
  const auto bounds = blockBoundaries(Kind::kWeights);
  const std::size_t cut = bounds[5] + 8;  // 8 bytes into tensor 1's values
  ASSERT_LT(cut, bounds[6]);
  expectRejected({weights_.begin(), weights_.begin() + static_cast<long>(cut)},
                 "cut inside tensor 1", Kind::kWeights);
  const std::vector<std::uint8_t> b(weights_.begin(),
                                    weights_.begin() + static_cast<long>(cut));
  expectRejected(withValidFooter(b), "cut inside tensor 1, valid CRC",
                 Kind::kWeights);
}

TEST_F(CheckpointCorruptTest, RankMismatchRejectedBeforeAnyRestore) {
  const std::string path = writeFile(checkpoint_);  // written with ranks=1
  TrainerConfig tcfg;
  tcfg.ranks = 2;
  InTransitTrainer two(ArtificialScientistModel::Config::reduced(), tcfg);
  const auto before = paramsOf(two);
  EXPECT_THROW(loadPipelineCheckpoint(path, two), CheckpointError);
  const auto after = paramsOf(two);
  for (std::size_t t = 0; t < after.size(); ++t)
    ASSERT_EQ(after[t], before[t]) << "tensor " << t;
}

// --- CRC-32C ----------------------------------------------------------------

std::vector<detail::Crc32cLoop> hostLoops() {
  std::vector<detail::Crc32cLoop> loops{detail::crc32cByteTable};
#if defined(__x86_64__)
  if (__builtin_cpu_supports("sse4.2")) loops.push_back(detail::crc32cSse42);
#endif
  return loops;
}

TEST(Crc32c, CheckValueOnEveryLoop) {
  const char digits[] = "123456789";
  for (const auto loop : hostLoops())
    EXPECT_EQ(loop(digits, 9), 0xE3069283u);
  EXPECT_EQ(crc32c(digits, 9), 0xE3069283u);
}

TEST(Crc32c, LoopsAgreeAtEveryLengthAndOffset) {
  Rng rng(91);
  std::vector<std::uint8_t> buf(64 + 8);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.uniformInt(256));
  const auto loops = hostLoops();
  for (std::size_t offset = 0; offset < 8; ++offset)
    for (std::size_t n = 0; n <= 64; ++n) {
      const std::uint32_t want = detail::crc32cByteTable(&buf[offset], n);
      for (const auto loop : loops)
        EXPECT_EQ(loop(&buf[offset], n), want)
            << "offset " << offset << ", length " << n;
    }
}

TEST(Crc32c, HardwareLoopChosenWhereTheHostHasIt) {
#if defined(__x86_64__)
  if (__builtin_cpu_supports("sse4.2")) {
    EXPECT_EQ(detail::crc32cLoop(), &detail::crc32cSse42);
    return;
  }
#endif
  EXPECT_EQ(detail::crc32cLoop(), &detail::crc32cByteTable);
}

}  // namespace
}  // namespace artsci::core
