#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>

#include "common/crc32.hpp"
#include "common/error.hpp"
#include "core/model.hpp"
#include "ml/serialize.hpp"

namespace artsci::ml {
namespace {

class SerializeTest : public ::testing::Test {
 protected:
  std::string path_;

  void SetUp() override {
    path_ = ::testing::TempDir() + "artsci_serialize_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".ckpt";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  static std::vector<Tensor> makeParams() {
    std::vector<Tensor> ps;
    ps.push_back(Tensor::fromVector({2, 3}, {1, 2, 3, 4, 5, 6}));
    ps.push_back(Tensor::fromVector({4}, {-1, 0, 1, 2}));
    return ps;
  }

  static std::vector<Tensor> makeZeroedLike(const std::vector<Tensor>& ps) {
    std::vector<Tensor> out;
    for (const auto& p : ps) out.push_back(Tensor::zeros(p.shape()));
    return out;
  }

  std::vector<std::uint8_t> readFile() const {
    std::ifstream is(path_, std::ios::binary);
    return {std::istreambuf_iterator<char>(is),
            std::istreambuf_iterator<char>()};
  }

  /// Everything before the CRC of a file saveParameters wrote for `params`
  /// (the empty list by default: just the magic, version and two counts).
  std::vector<std::uint8_t> validBody(
      const std::vector<Tensor>& params = {}) const {
    saveParameters(path_, params);
    auto bytes = readFile();
    bytes.resize(bytes.size() - 8);
    return bytes;
  }

  /// Write `body` under a valid CRC-32C and the footer magic of a real
  /// file, so the loader gets past its footer and CRC checks to the check
  /// under test.
  void writeWithValidFooter(std::vector<std::uint8_t> body) const {
    saveParameters(path_, {});
    const auto valid = readFile();
    const std::uint32_t crc = crc32c(body.data(), body.size());
    const auto* c = reinterpret_cast<const std::uint8_t*>(&crc);
    body.insert(body.end(), c, c + sizeof crc);
    body.insert(body.end(), valid.end() - 4, valid.end());
    std::ofstream os(path_, std::ios::binary | std::ios::trunc);
    os.write(reinterpret_cast<const char*>(body.data()),
             static_cast<std::streamsize>(body.size()));
  }

  /// The magic and version of a real file, then `words`: a hand-written
  /// parameters block.
  std::vector<std::uint8_t> bodyOf(
      const std::vector<std::uint64_t>& words) const {
    auto body = validBody();
    body.resize(12);
    for (std::uint64_t w : words) {
      const auto* b = reinterpret_cast<const std::uint8_t*>(&w);
      body.insert(body.end(), b, b + sizeof w);
    }
    return body;
  }
};

TEST_F(SerializeTest, RoundTripPreservesValues) {
  const auto src = makeParams();
  saveParameters(path_, src);
  auto dst = makeZeroedLike(src);
  loadParameters(path_, dst);
  for (std::size_t i = 0; i < src.size(); ++i)
    EXPECT_EQ(src[i].data(), dst[i].data());
}

TEST_F(SerializeTest, RejectsBadMagic) {
  auto body = validBody(makeParams());
  const std::uint64_t bad = 0xdeadbeefULL;
  std::memcpy(body.data(), &bad, sizeof bad);
  writeWithValidFooter(body);
  auto dst = makeZeroedLike(makeParams());
  try {
    loadParameters(path_, dst);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("not an artsci checkpoint"),
              std::string::npos);
  }
}

TEST_F(SerializeTest, RejectsFutureVersion) {
  auto body = validBody();
  const std::uint32_t version = 99;
  std::memcpy(body.data() + 8, &version, sizeof version);
  writeWithValidFooter(body);
  std::vector<Tensor> dst;
  try {
    loadParameters(path_, dst);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST_F(SerializeTest, RejectsTensorCountMismatch) {
  const auto src = makeParams();
  saveParameters(path_, src);
  std::vector<Tensor> dst{Tensor::zeros({2, 3})};  // one tensor, not two
  try {
    loadParameters(path_, dst);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("tensors"), std::string::npos);
  }
}

TEST_F(SerializeTest, RejectsElementCountMismatchBeforeReadingPayload) {
  const auto src = makeParams();
  saveParameters(path_, src);
  // Same tensor count, different total scalar count.
  std::vector<Tensor> dst{Tensor::zeros({2, 3}), Tensor::zeros({5})};
  try {
    loadParameters(path_, dst);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("architecture mismatch"),
              std::string::npos);
  }
}

TEST_F(SerializeTest, RejectsShapeMismatch) {
  const auto src = makeParams();
  saveParameters(path_, src);
  std::vector<Tensor> dst{Tensor::zeros({3, 2}), Tensor::zeros({4})};
  try {
    loadParameters(path_, dst);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("shape"), std::string::npos);
  }
}

TEST_F(SerializeTest, RejectsTruncatedHeader) {
  writeWithValidFooter(bodyOf({}));  // stops before the tensor count
  std::vector<Tensor> dst{Tensor::zeros({1})};
  try {
    loadParameters(path_, dst);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos);
  }
}

TEST_F(SerializeTest, RejectsTruncatedPayload) {
  const auto src = makeParams();
  // Chop the last 8 bytes off the payload.
  auto body = validBody(src);
  body.resize(body.size() - 8);
  writeWithValidFooter(body);
  auto dst = makeZeroedLike(src);
  try {
    loadParameters(path_, dst);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos);
  }
}

TEST_F(SerializeTest, RejectsCorruptRankWord) {
  // Rank word of 1e6 must fail fast instead of allocating a huge shape.
  writeWithValidFooter(bodyOf({1, 1, 1000000}));
  std::vector<Tensor> dst{Tensor::zeros({1})};
  try {
    loadParameters(path_, dst);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("corrupt"), std::string::npos);
  }
}

TEST_F(SerializeTest, RejectsTrailingBytes) {
  const auto src = makeParams();
  auto body = validBody(src);
  const double extra = 1.0;
  const auto* b = reinterpret_cast<const std::uint8_t*>(&extra);
  body.insert(body.end(), b, b + sizeof extra);
  writeWithValidFooter(body);
  auto dst = makeZeroedLike(src);
  EXPECT_THROW(loadParameters(path_, dst), CheckpointError);
}

TEST_F(SerializeTest, RejectsMissingFile) {
  std::vector<Tensor> params;
  EXPECT_THROW(loadParameters(path_ + ".missing", params), CheckpointError);
}

TEST_F(SerializeTest, CopyParametersCopiesValues) {
  const auto src = makeParams();
  auto dst = makeZeroedLike(src);
  copyParameters(src, dst);
  for (std::size_t i = 0; i < src.size(); ++i)
    EXPECT_EQ(src[i].data(), dst[i].data());
  // Deep copy: mutating the destination leaves the source untouched.
  dst[0].data()[0] = 999;
  EXPECT_EQ(src[0].data()[0], 1);
}

TEST_F(SerializeTest, CopyParametersRejectsShapeMismatch) {
  const auto src = makeParams();
  std::vector<Tensor> dst{Tensor::zeros({3, 2}), Tensor::zeros({4})};
  EXPECT_THROW(copyParameters(src, dst), ContractError);
}

TEST_F(SerializeTest, FullModelCheckpointRoundTripIsBitIdentical) {
  // The paper's one deliberate file write: checkpoint the full reduced
  // model, restore into a freshly initialized replica, and demand
  // bit-identical forward predictions.
  Rng rngA(123);
  core::ArtificialScientistModel trained(
      core::ArtificialScientistModel::Config::reduced(), rngA);
  saveParameters(path_, trained.parameters());

  Rng rngB(456);  // different init — every weight differs before the load
  core::ArtificialScientistModel restored(
      core::ArtificialScientistModel::Config::reduced(), rngB);
  auto params = restored.parameters();
  loadParameters(path_, params);

  Rng dataRng(7);
  const Tensor clouds = Tensor::randn({3, 16, 6}, dataRng);
  const Tensor expected = trained.predictSpectra(clouds);
  const Tensor got = restored.predictSpectra(clouds);
  ASSERT_EQ(expected.shape(), got.shape());
  for (long i = 0; i < expected.numel(); ++i)
    EXPECT_EQ(expected.at(i), got.at(i)) << "flat index " << i;
}

}  // namespace
}  // namespace artsci::ml
