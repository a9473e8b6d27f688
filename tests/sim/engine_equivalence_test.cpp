// The production engine (one cycle loop per feature policy, flat SoA
// queue pool, active-set scheduler with a busy-expiry wheel) must be
// bit-identical to the seed engine kept as run_network_reference — not
// just statistically close. Both engines share the same RNG draw sequence
// and the same accumulator add order, so every derived quantity (Welford
// moments, histograms, covariances, telemetry) matches exactly for a fixed
// seed. Any divergence here means the hot-path rewrite changed semantics.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/report.hpp"
#include "sim/network.hpp"
#include "sim/network_reference.hpp"
#include "simd/simd.hpp"

namespace ksw::sim {
namespace {

std::string stable_report(const NetworkResults& r) {
  obs::ReportOptions opts;
  opts.include_wall = false;  // wall-clock timers are the only legit diff
  return obs::registry_to_json(r.metrics, opts).to_string(2) + "\n" +
         obs::trace_to_json(r.convergence).to_string(2) + "\n";
}

void expect_bit_identical(const NetworkConfig& cfg) {
  const NetworkResults fast = run_network(cfg);
  const NetworkResults ref = run_network_reference(cfg);

  EXPECT_EQ(fast.packets_injected, ref.packets_injected);
  EXPECT_EQ(fast.packets_delivered, ref.packets_delivered);
  EXPECT_EQ(fast.packets_dropped, ref.packets_dropped);

  ASSERT_EQ(fast.stage_wait.size(), ref.stage_wait.size());
  for (std::size_t s = 0; s < fast.stage_wait.size(); ++s) {
    SCOPED_TRACE("stage " + std::to_string(s));
    EXPECT_EQ(fast.stage_wait[s].count(), ref.stage_wait[s].count());
    // Bit-identity, not tolerance: Welford updates happened in the same
    // order, so the doubles agree exactly.
    EXPECT_EQ(fast.stage_wait[s].mean(), ref.stage_wait[s].mean());
    EXPECT_EQ(fast.stage_wait[s].variance(), ref.stage_wait[s].variance());
    EXPECT_EQ(fast.stage_wait[s].skewness(), ref.stage_wait[s].skewness());
    EXPECT_EQ(fast.stage_wait[s].min(), ref.stage_wait[s].min());
    EXPECT_EQ(fast.stage_wait[s].max(), ref.stage_wait[s].max());
    EXPECT_EQ(fast.stage_depth[s].count(), ref.stage_depth[s].count());
    EXPECT_EQ(fast.stage_depth[s].mean(), ref.stage_depth[s].mean());
    EXPECT_EQ(fast.stage_depth[s].variance(),
              ref.stage_depth[s].variance());
  }

  ASSERT_EQ(fast.stage_hist.size(), ref.stage_hist.size());
  for (std::size_t s = 0; s < fast.stage_hist.size(); ++s) {
    SCOPED_TRACE("stage_hist " + std::to_string(s));
    EXPECT_EQ(fast.stage_hist[s].total(), ref.stage_hist[s].total());
    EXPECT_EQ(fast.stage_hist[s].max_value(), ref.stage_hist[s].max_value());
    for (std::int64_t v = 0; v <= ref.stage_hist[s].max_value(); ++v)
      EXPECT_EQ(fast.stage_hist[s].count(v), ref.stage_hist[s].count(v));
  }

  ASSERT_EQ(fast.total_wait.size(), ref.total_wait.size());
  for (std::size_t c = 0; c < fast.total_wait.size(); ++c) {
    SCOPED_TRACE("checkpoint " + std::to_string(c));
    EXPECT_EQ(fast.total_wait[c].total(), ref.total_wait[c].total());
    EXPECT_EQ(fast.total_wait[c].max_value(), ref.total_wait[c].max_value());
    for (std::int64_t v = 0; v <= ref.total_wait[c].max_value(); ++v)
      EXPECT_EQ(fast.total_wait[c].count(v), ref.total_wait[c].count(v));
  }

  ASSERT_EQ(fast.stage_covariance.has_value(),
            ref.stage_covariance.has_value());
  if (ref.stage_covariance) {
    const auto& f = *fast.stage_covariance;
    const auto& r = *ref.stage_covariance;
    ASSERT_EQ(f.dims(), r.dims());
    EXPECT_EQ(f.count(), r.count());
    for (std::size_t i = 0; i < r.dims(); ++i) {
      EXPECT_EQ(f.mean(i), r.mean(i));
      for (std::size_t j = i; j < r.dims(); ++j)
        EXPECT_EQ(f.covariance(i, j), r.covariance(i, j));
    }
  }

  // Telemetry and convergence trace, serialized without wall-clock noise.
  EXPECT_EQ(stable_report(fast), stable_report(ref));
}

NetworkConfig base_config() {
  NetworkConfig cfg;
  cfg.k = 2;
  cfg.stages = 4;
  cfg.p = 0.6;
  cfg.warmup_cycles = 300;
  cfg.measure_cycles = 2'000;
  cfg.seed = 1234;
  cfg.track_stage_histograms = true;
  cfg.total_checkpoints = {2, 4};
  cfg.obs.enabled = true;
  cfg.obs.stride = 16;
  cfg.obs.trace_points = 6;
  return cfg;
}

TEST(EngineEquivalence, UniformTraffic) { expect_bit_identical(base_config()); }

TEST(EngineEquivalence, UniformOmega) {
  NetworkConfig cfg = base_config();
  cfg.topology = TopologyKind::kOmega;
  cfg.seed = 77;
  expect_bit_identical(cfg);
}

TEST(EngineEquivalence, NonPowerOfTwoSwitchDegree) {
  // k = 3 exercises the div/mod routing path instead of the shift/mask
  // fast path.
  NetworkConfig cfg = base_config();
  cfg.k = 3;
  cfg.stages = 3;
  cfg.total_checkpoints = {1, 3};
  cfg.seed = 5;
  expect_bit_identical(cfg);
}

TEST(EngineEquivalence, HotspotTraffic) {
  NetworkConfig cfg = base_config();
  cfg.hotspot = 0.08;
  cfg.hotspot_target = 13;  // valid: < 2^4 ports
  cfg.q = 0.1;
  cfg.seed = 42;
  expect_bit_identical(cfg);
}

TEST(EngineEquivalence, BulkArrivalsMultiCycleService) {
  // bulk > 1 plus a multi-size service distribution keeps queues deep and
  // services long, exercising the busy-expiry wheel and ring growth.
  NetworkConfig cfg = base_config();
  cfg.bulk = 3;
  cfg.p = 0.15;
  cfg.service = ServiceSpec::multi_size({{2, 0.7}, {5, 0.3}});
  cfg.measure_cycles = 1'500;
  cfg.seed = 9;
  cfg.track_correlations = true;
  expect_bit_identical(cfg);
}

TEST(EngineEquivalence, FiniteBuffersWithDrops) {
  // Small buffers at high load: injections get dropped and interior
  // transfers block, so the blocked/drop bookkeeping must match too.
  NetworkConfig cfg = base_config();
  cfg.buffer_capacity = 2;
  cfg.p = 0.9;
  cfg.service = ServiceSpec::deterministic(2);
  cfg.seed = 3;
  expect_bit_identical(cfg);
}

TEST(EngineEquivalence, StoreAndForwardFlowControl) {
  // SAF stamps downstream arrivals at t + m, a different eligibility path
  // than cut-through; multi-cycle service makes the difference live.
  NetworkConfig cfg = base_config();
  cfg.buffer_capacity = 3;
  cfg.p = 0.45;
  cfg.service = ServiceSpec::deterministic(2);
  cfg.flow = FlowControl::kStoreAndForward;
  cfg.seed = 11;
  expect_bit_identical(cfg);
}

TEST(EngineEquivalence, CreditFlowControl) {
  // Shallow buffers under pressure: credits exhaust, the latency ring
  // carries in-flight returns, and credit_stalls telemetry is live.
  NetworkConfig cfg = base_config();
  cfg.buffer_capacity = 1;
  cfg.p = 0.85;
  cfg.flow = FlowControl::kCredit;
  cfg.credit_latency = 3;
  cfg.seed = 17;
  expect_bit_identical(cfg);
}

TEST(EngineEquivalence, CorrelationTracking) {
  NetworkConfig cfg = base_config();
  cfg.track_correlations = true;
  cfg.p = 0.75;
  cfg.seed = 21;
  expect_bit_identical(cfg);
}

TEST(EngineEquivalence, GeometricServiceNoObs) {
  // Telemetry off: the sample_busy-gated path must not perturb results.
  NetworkConfig cfg;
  cfg.k = 4;
  cfg.stages = 3;
  cfg.p = 0.2;
  cfg.service = ServiceSpec::geometric(0.6);
  cfg.warmup_cycles = 200;
  cfg.measure_cycles = 1'500;
  cfg.seed = 64;
  cfg.total_checkpoints = {1, 3};
  expect_bit_identical(cfg);
}

// ---- Stripped-policy coverage ----------------------------------------
// base_config() turns on histograms and telemetry, so it runs the kFull
// instrument policy. The configs below reach the stripped ones (no
// instruments, or telemetry alone), and run_network_reference remains the
// oracle.

/// Unit service, infinite queues, every instrument off.
NetworkConfig fast_config() {
  NetworkConfig cfg;
  cfg.k = 2;
  cfg.stages = 4;
  cfg.p = 0.6;
  cfg.warmup_cycles = 300;
  cfg.measure_cycles = 2'000;
  cfg.seed = 1234;
  cfg.total_checkpoints = {2, 4};
  return cfg;
}

TEST(EngineEquivalence, FastEngineUniformTraffic) {
  expect_bit_identical(fast_config());
}

TEST(EngineEquivalence, FastEngineMixedTrafficWideSwitch) {
  NetworkConfig cfg = fast_config();
  cfg.k = 4;
  cfg.stages = 3;
  cfg.p = 0.8;
  cfg.q = 0.1;
  cfg.hotspot = 0.05;
  cfg.hotspot_target = 60;  // valid: < 4^3 ports
  cfg.total_checkpoints = {1, 3};
  cfg.seed = 99;
  expect_bit_identical(cfg);
}

TEST(EngineEquivalence, FastEngineBulkArrivals) {
  NetworkConfig cfg = fast_config();
  cfg.bulk = 2;
  cfg.p = 0.35;
  cfg.seed = 31;
  expect_bit_identical(cfg);
}

TEST(EngineEquivalence, FastEngineForcedScalarMatchesWidestSimd) {
  // The dispatch level must never change a single bit: run the identical
  // config once per level and compare through the reference oracle. This
  // is the in-process version of the CI forced-scalar (KSW_SIMD=off) job.
  const NetworkConfig cfg = fast_config();
  NetworkResults scalar, widest;
  {
    simd::ScopedForceLevel force(simd::Level::kScalar);
    scalar = run_network(cfg);
    expect_bit_identical(cfg);
  }
  {
    simd::ScopedForceLevel force(simd::Level::kAvx2);  // clamps if absent
    widest = run_network(cfg);
  }
  EXPECT_EQ(scalar.packets_delivered, widest.packets_delivered);
  ASSERT_EQ(scalar.stage_wait.size(), widest.stage_wait.size());
  for (std::size_t s = 0; s < scalar.stage_wait.size(); ++s) {
    EXPECT_EQ(scalar.stage_wait[s].count(), widest.stage_wait[s].count());
    EXPECT_EQ(scalar.stage_wait[s].mean(), widest.stage_wait[s].mean());
    EXPECT_EQ(scalar.stage_wait[s].variance(),
              widest.stage_wait[s].variance());
  }
}

TEST(EngineEquivalence, BookTotalDelayShapeDeterministic4) {
  // The book's total-delay section: k=2, 9 stages, det:4 at rho=0.5,
  // totals recorded after 3, 6 and 9 stages. Every service start goes
  // through the expiry wheel.
  NetworkConfig cfg = fast_config();
  cfg.stages = 9;
  cfg.p = 0.125;
  cfg.service = ServiceSpec::deterministic(4);
  cfg.total_checkpoints = {3, 6, 9};
  cfg.warmup_cycles = 400;
  cfg.measure_cycles = 2'500;
  cfg.seed = 86;
  expect_bit_identical(cfg);
}

TEST(EngineEquivalence, GeometricTailBeyondWheelSpan) {
  // geo:0.05 has mean 20; about 4% of services outlast the 64-slot wheel
  // and take the overflow heap, interleaved with wheel releases.
  NetworkConfig cfg = fast_config();
  cfg.k = 4;
  cfg.stages = 3;
  cfg.p = 0.03;
  cfg.service = ServiceSpec::geometric(0.05);
  cfg.total_checkpoints = {1, 3};
  cfg.measure_cycles = 6'000;
  cfg.seed = 105;
  expect_bit_identical(cfg);
}

TEST(EngineEquivalence, ConstantServiceBeyondWheelSpan) {
  // det:100 exceeds the wheel's 64-slot cap: every busy period is an
  // overflow-heap entry.
  NetworkConfig cfg = fast_config();
  cfg.stages = 3;
  cfg.p = 0.006;
  cfg.service = ServiceSpec::deterministic(100);
  cfg.total_checkpoints = {3};
  cfg.measure_cycles = 8'000;
  cfg.seed = 100;
  expect_bit_identical(cfg);
}

TEST(EngineEquivalence, ConstantServiceCutThroughBuffers) {
  NetworkConfig cfg = fast_config();
  cfg.p = 0.3;
  cfg.service = ServiceSpec::deterministic(3);
  cfg.buffer_capacity = 2;
  cfg.seed = 303;
  expect_bit_identical(cfg);
}

TEST(EngineEquivalence, ConstantServiceCreditBuffers) {
  NetworkConfig cfg = fast_config();
  cfg.p = 0.4;
  cfg.service = ServiceSpec::deterministic(2);
  cfg.buffer_capacity = 2;
  cfg.flow = FlowControl::kCredit;
  cfg.credit_latency = 2;
  cfg.seed = 202;
  expect_bit_identical(cfg);
}

TEST(EngineEquivalence, TelemetryWithConstantService) {
  // Telemetry alone (no histograms or correlations) selects the
  // telemetry instrument policy; utilization samples must see the
  // wheel-tracked busy periods exactly as the full sweep does.
  NetworkConfig cfg = fast_config();
  cfg.p = 0.2;
  cfg.service = ServiceSpec::deterministic(4);
  cfg.obs.enabled = true;
  cfg.obs.stride = 8;
  cfg.obs.trace_points = 5;
  cfg.seed = 404;
  expect_bit_identical(cfg);
}

TEST(EngineEquivalence, EveryPolicyCombination) {
  // One small config per (service, buffers, instruments) policy, so each
  // compiled instantiation of the cycle loop meets the oracle.
  const ServiceSpec services[] = {
      ServiceSpec::deterministic(1), ServiceSpec::deterministic(3),
      ServiceSpec::multi_size({{1, 0.5}, {4, 0.5}}),
      ServiceSpec::geometric(0.4)};
  struct Buffers {
    unsigned capacity;
    FlowControl flow;
  };
  const Buffers buffers[] = {{0, FlowControl::kCutThrough},
                             {3, FlowControl::kCutThrough},
                             {3, FlowControl::kStoreAndForward},
                             {2, FlowControl::kCredit}};
  std::uint64_t seed = 1;
  for (const ServiceSpec& service : services)
    for (const Buffers& b : buffers)
      for (int instruments = 0; instruments < 3; ++instruments) {
        NetworkConfig cfg = fast_config();
        cfg.stages = 3;
        cfg.total_checkpoints = {1, 3};
        cfg.measure_cycles = 1'200;
        cfg.service = service;
        cfg.p = 0.7 / service.mean();
        cfg.buffer_capacity = b.capacity;
        cfg.flow = b.flow;
        cfg.obs.enabled = instruments >= 1;
        cfg.obs.stride = 4;
        cfg.obs.trace_points = 4;
        cfg.track_stage_histograms = instruments == 2;
        cfg.track_correlations = instruments == 2;
        cfg.seed = seed++;
        SCOPED_TRACE("seed " + std::to_string(cfg.seed));
        expect_bit_identical(cfg);
      }
}

}  // namespace
}  // namespace ksw::sim
