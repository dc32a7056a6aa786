#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>

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

  void writeRaw(const std::vector<std::uint64_t>& words,
                const std::vector<Real>& payload = {}) const {
    std::ofstream os(path_, std::ios::binary | std::ios::trunc);
    for (std::uint64_t w : words)
      os.write(reinterpret_cast<const char*>(&w), sizeof(w));
    os.write(reinterpret_cast<const char*>(payload.data()),
             static_cast<std::streamsize>(payload.size() * sizeof(Real)));
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

TEST_F(SerializeTest, RejectsLegacyUnversionedFormat) {
  // Hand-written "ARTSCIP1" file: magic, count, then ndim/dims/data per
  // tensor — what saveParameters wrote before the versioned header. Its
  // weights pair with INN permutations this build no longer draws, so
  // the load must fail by name and leave the target untouched.
  writeRaw({0x41525453'43495031ULL, 1, 2, 2, 2}, {10, 20, 30, 40});
  std::vector<Tensor> dst{Tensor::zeros({2, 2})};
  try {
    loadParameters(path_, dst);
    FAIL() << "expected ContractError";
  } catch (const ContractError& e) {
    EXPECT_NE(std::string(e.what()).find("ARTSCIP1"), std::string::npos);
  }
  EXPECT_EQ(dst[0].data(), (std::vector<Real>{0, 0, 0, 0}));
}

TEST_F(SerializeTest, RejectsBadMagic) {
  writeRaw({0xdeadbeefULL, 1, 1, 1}, {0});
  std::vector<Tensor> dst{Tensor::zeros({1})};
  try {
    loadParameters(path_, dst);
    FAIL() << "expected ContractError";
  } catch (const ContractError& e) {
    EXPECT_NE(std::string(e.what()).find("not an artsci checkpoint"),
              std::string::npos);
  }
}

TEST_F(SerializeTest, RejectsFutureVersion) {
  writeRaw({0x41525453'43495032ULL, 99, 0, 0});
  std::vector<Tensor> dst;
  try {
    loadParameters(path_, dst);
    FAIL() << "expected ContractError";
  } catch (const ContractError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST_F(SerializeTest, RejectsTensorCountMismatch) {
  const auto src = makeParams();
  saveParameters(path_, src);
  std::vector<Tensor> dst{Tensor::zeros({2, 3})};  // one tensor, not two
  try {
    loadParameters(path_, dst);
    FAIL() << "expected ContractError";
  } catch (const ContractError& e) {
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
    FAIL() << "expected ContractError";
  } catch (const ContractError& e) {
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
    FAIL() << "expected ContractError";
  } catch (const ContractError& e) {
    EXPECT_NE(std::string(e.what()).find("shape"), std::string::npos);
  }
}

TEST_F(SerializeTest, RejectsTruncatedHeader) {
  writeRaw({0x41525453'43495032ULL, 2});  // stops inside the header
  std::vector<Tensor> dst{Tensor::zeros({1})};
  try {
    loadParameters(path_, dst);
    FAIL() << "expected ContractError";
  } catch (const ContractError& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos);
  }
}

TEST_F(SerializeTest, RejectsTruncatedPayload) {
  const auto src = makeParams();
  saveParameters(path_, src);
  // Chop the last 8 bytes off the payload.
  std::ifstream is(path_, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(is)),
                    std::istreambuf_iterator<char>());
  is.close();
  std::ofstream os(path_, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 8));
  os.close();
  auto dst = makeZeroedLike(src);
  try {
    loadParameters(path_, dst);
    FAIL() << "expected ContractError";
  } catch (const ContractError& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos);
  }
}

TEST_F(SerializeTest, RejectsCorruptRankWord) {
  // Rank word of 1e6 must fail fast instead of allocating a huge shape.
  writeRaw({0x41525453'43495032ULL, 2, 1, 1, 1000000});
  std::vector<Tensor> dst{Tensor::zeros({1})};
  try {
    loadParameters(path_, dst);
    FAIL() << "expected ContractError";
  } catch (const ContractError& e) {
    EXPECT_NE(std::string(e.what()).find("corrupt"), std::string::npos);
  }
}

TEST_F(SerializeTest, RejectsTrailingBytes) {
  const auto src = makeParams();
  saveParameters(path_, src);
  std::ofstream os(path_, std::ios::binary | std::ios::app);
  const double extra = 1.0;
  os.write(reinterpret_cast<const char*>(&extra), sizeof(extra));
  os.close();
  auto dst = makeZeroedLike(src);
  EXPECT_THROW(loadParameters(path_, dst), ContractError);
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
