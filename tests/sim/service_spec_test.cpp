#include "sim/service_spec.hpp"

#include <gtest/gtest.h>

#include "rng/philox.hpp"
#include "stats/accumulator.hpp"

namespace ksw::sim {
namespace {

/// One long counter-mode draw sequence, as an engine would use per
/// (cycle, port).
rng::LaneSeq lanes(std::uint64_t seed) {
  return rng::LaneSeq(rng::philox_key(seed), 0, 0, rng::Site::kService);
}

TEST(ServiceSpec, DeterministicSamplesConstant) {
  const auto spec = ServiceSpec::deterministic(4);
  rng::LaneSeq gen = lanes(1);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(spec.sample(gen), 4u);
  EXPECT_DOUBLE_EQ(spec.mean(), 4.0);
  EXPECT_FALSE(spec.is_unit());
  EXPECT_TRUE(ServiceSpec::deterministic(1).is_unit());
  EXPECT_THROW(ServiceSpec::deterministic(0), std::invalid_argument);
}

TEST(ServiceSpec, MultiSizeFrequenciesMatch) {
  const auto spec = ServiceSpec::multi_size({{4, 0.25}, {8, 0.75}});
  EXPECT_DOUBLE_EQ(spec.mean(), 7.0);
  rng::LaneSeq gen = lanes(2);
  int fours = 0, eights = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const auto v = spec.sample(gen);
    if (v == 4)
      ++fours;
    else if (v == 8)
      ++eights;
    else
      FAIL() << "unexpected size " << v;
  }
  EXPECT_NEAR(static_cast<double>(fours) / n, 0.25, 0.01);
  EXPECT_NEAR(static_cast<double>(eights) / n, 0.75, 0.01);
}

TEST(ServiceSpec, MultiSizeValidates) {
  EXPECT_THROW(ServiceSpec::multi_size({{4, 0.5}, {8, 0.6}}),
               std::invalid_argument);
}

TEST(ServiceSpec, GeometricMomentsMatch) {
  const auto spec = ServiceSpec::geometric(0.25);
  EXPECT_DOUBLE_EQ(spec.mean(), 4.0);
  rng::LaneSeq gen = lanes(3);
  stats::Accumulator acc;
  for (int i = 0; i < 200000; ++i)
    acc.add(static_cast<double>(spec.sample(gen)));
  EXPECT_NEAR(acc.mean(), 4.0, 0.05);
  EXPECT_NEAR(acc.variance(), 0.75 / (0.25 * 0.25), 0.4);
  EXPECT_THROW(ServiceSpec::geometric(0.0), std::invalid_argument);
}

TEST(ServiceSpec, ToModelRoundTripsMoments) {
  const auto det = ServiceSpec::deterministic(3).to_model();
  EXPECT_DOUBLE_EQ(det->mean_service(), 3.0);
  const auto multi =
      ServiceSpec::multi_size({{2, 0.5}, {6, 0.5}}).to_model();
  EXPECT_DOUBLE_EQ(multi->mean_service(), 4.0);
  const auto geo = ServiceSpec::geometric(0.5).to_model();
  EXPECT_DOUBLE_EQ(geo->mean_service(), 2.0);
}

}  // namespace
}  // namespace ksw::sim
