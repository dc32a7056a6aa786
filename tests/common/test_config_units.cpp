#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/error.hpp"
#include "common/units.hpp"

namespace artsci {
namespace {

TEST(Config, ParsesKeyValues) {
  const char* argv[] = {"prog", "nodes=8", "beta=0.2", "stream=off"};
  const Config cfg = Config::fromArgs(4, argv, {"nodes", "beta", "stream"});
  EXPECT_EQ(cfg.getInt("nodes", 0), 8);
  EXPECT_DOUBLE_EQ(cfg.getDouble("beta", 0.0), 0.2);
  EXPECT_FALSE(cfg.getBool("stream", true));
}

TEST(Config, FallbacksUsedWhenMissing) {
  const char* argv[] = {"prog"};
  const Config cfg = Config::fromArgs(1, argv, {"missing"});
  EXPECT_EQ(cfg.getInt("missing", 17), 17);
  EXPECT_EQ(cfg.getString("missing", "abc"), "abc");
  EXPECT_TRUE(cfg.getBool("missing", true));
}

TEST(Config, RejectsUnknownKeysNamingTheAcceptedOnes) {
  const std::vector<std::string> keys = {"steps", "ranks", "nrep"};
  for (const char* bad : {"stepz=2", "run"}) {
    SCOPED_TRACE(bad);
    const char* argv[] = {"prog", "steps=2", bad};
    try {
      (void)Config::fromArgs(3, argv, keys);
      ADD_FAILURE() << "no ContractError";
    } catch (const ContractError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(std::string("'") + bad + "'"), std::string::npos)
          << what;
      EXPECT_NE(what.find("steps, ranks, nrep"), std::string::npos) << what;
    }
  }
}

TEST(Config, MalformedNumberThrows) {
  const char* argv[] = {"prog", "n=12x"};
  const Config cfg = Config::fromArgs(2, argv, {"n"});
  EXPECT_THROW(cfg.getInt("n", 0), ContractError);
}

TEST(Config, BoolSpellings) {
  for (const char* t : {"b=1", "b=true", "b=yes", "b=on"}) {
    const char* argv[] = {"prog", t};
    EXPECT_TRUE(Config::fromArgs(2, argv, {"b"}).getBool("b", false)) << t;
  }
  for (const char* f : {"b=0", "b=false", "b=no", "b=off"}) {
    const char* argv[] = {"prog", f};
    EXPECT_FALSE(Config::fromArgs(2, argv, {"b"}).getBool("b", true)) << f;
  }
}

TEST(Units, PlasmaFrequencyAtPaperDensity) {
  // n0 = 1e25 m^-3 -> omega_pe ~ 1.78e14 rad/s.
  const double wpe = units::plasmaFrequency(1e25);
  EXPECT_NEAR(wpe, 1.784e14, 0.01e14);
}

TEST(Units, SkinDepthAtPaperDensity) {
  // c/omega_pe ~ 1.68 um at n0 = 1e25 m^-3.
  EXPECT_NEAR(units::skinDepth(1e25) * 1e6, 1.68, 0.02);
}

TEST(Units, PaperSetupCflIsStable) {
  // dt = 17.9 fs on a 93.5 um cubic cell: CFL = c dt sqrt(3)/dx < 1.
  const units::PaperKhiSetup setup;
  EXPECT_LT(setup.cflNumber(), 1.0);
  EXPECT_GT(setup.cflNumber(), 0.05);
}

TEST(Units, GammaOfBeta) {
  EXPECT_DOUBLE_EQ(units::gammaOfBeta(0.0), 1.0);
  EXPECT_NEAR(units::gammaOfBeta(0.2), 1.0206, 1e-4);
  EXPECT_NEAR(units::gammaOfBeta(0.6), 1.25, 1e-12);
}

TEST(Units, RoundTripLengthConversion) {
  const double metres = 5.0e-5;
  const double plasma = units::lengthToPlasma(metres, 1e25);
  EXPECT_NEAR(plasma * units::skinDepth(1e25), metres, 1e-18);
}

}  // namespace
}  // namespace artsci
