// sim: single-threaded sim::run_network over six fixed configs, one pass
// after another with fresh seeds, isolating the cycle loop from threads,
// sweep and serve.
//
// Each (config, seed) call is one op. Infinite-queue configs must drop no
// packet and their stage-1 mean wait must agree with Theorem 1
// (core::FirstStage) within |sim - exact| <= 0.02 + 5% of exact; the
// credit-flow config must deliver packets and never deliver more than it
// injected. Every call prints a digest of all returned statistics.
#include <algorithm>
#include <cstdio>
#include <iostream>

#include "checks.hpp"
#include "core/first_stage.hpp"
#include "core/models.hpp"
#include "rng/philox.hpp"
#include "sim/network.hpp"
#include "simd/inject.hpp"
#include "simd/simd.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace sim = ksw::sim;

struct SimConfig {
  std::string name;
  sim::NetworkConfig cfg;
  double exact_stage1 = -1.0;  ///< Theorem 1 mean wait; <0 = not gated
};

std::vector<SimConfig> make_configs() {
  const auto base = [](unsigned k, unsigned stages, double p,
                       std::int64_t cycles) {
    sim::NetworkConfig c;
    c.k = k;
    c.stages = stages;
    c.p = p;
    c.measure_cycles = cycles;
    c.warmup_cycles = cycles / 4;
    return c;
  };
  // 256-port networks: their state stays in a core's own L2 cache, so a
  // call's time is the cycle loop's. A 4096-port network spills into the
  // L3 that neighbouring tenants share, and one call of the same config
  // then varied by up to 2.3x within a minute.
  std::vector<SimConfig> v;
  v.push_back({"k2s8-r50", base(2, 8, 0.5, 8'000)});
  v.push_back({"k4s4-r80", base(4, 4, 0.8, 6'400)});
  // The Theorem-1 check below is statistical, and every run makes 15-20
  // calls per config. At 12800 cycles the stage-1 error of this config
  // had a standard deviation of 0.20 of the tolerance and once exceeded
  // it; 48000 cycles bring that to 0.11. Near saturation the queues relax
  // over ~1/(1-rho)^2 = 400 cycles, so 3200 warm-up cycles keep the
  // empty-start bias out.
  v.push_back({"k4s4-r95", base(4, 4, 0.95, 48'000)});
  v.back().cfg.warmup_cycles = 3'200;
  v.push_back({"k4s4-r80-obs", base(4, 4, 0.8, 6'400)});
  v.back().cfg.obs.enabled = true;
  v.back().cfg.obs.stride = 64;
  // det:4 service: error deviation 0.18 of the tolerance at 12800 cycles,
  // 0.12 at 25600.
  v.push_back({"k4s4-r80-m4", base(4, 4, 0.2, 25'600)});
  v.back().cfg.warmup_cycles = 3'200;
  v.back().cfg.service = sim::ServiceSpec::deterministic(4);
  v.push_back({"k4s4-r80-credit4", base(4, 4, 0.8, 6'400)});
  v.back().cfg.buffer_capacity = 4;
  v.back().cfg.flow = sim::FlowControl::kCredit;
  for (SimConfig& c : v) {
    if (c.cfg.buffer_capacity != 0) continue;
    const ksw::core::QueueSpec spec{
        ksw::core::make_bulk_arrivals(c.cfg.k, c.cfg.k, c.cfg.p, c.cfg.bulk),
        c.cfg.service.to_model()};
    c.exact_stage1 = ksw::core::FirstStage(spec).moments().mean;
  }
  return v;
}

struct Call {
  double secs = 0.0;
  std::uint64_t delivered = 0;
};

/// One run_network call with its checks and digest line.
Call run_one(const SimConfig& c, std::uint64_t seed, std::uint64_t pass,
             Result& res, Recorder* rec) {
  sim::NetworkConfig cfg = c.cfg;
  cfg.seed = seed;
  obs::Span s;
  if (rec != nullptr) {
    s = span(*rec, "sim.run_network");
    s.label("config", c.name);
  }
  const Clock::time_point t0 = Clock::now();
  const sim::NetworkResults r = sim::run_network(cfg);
  Call call{seconds_since(t0), r.packets_delivered};
  s.end();

  bool ok = r.packets_delivered > 0 &&
            r.packets_delivered <= r.packets_injected;
  if (c.exact_stage1 >= 0.0) {
    const double mean = r.stage_wait.at(0).mean();
    const double tol = 0.02 + 0.05 * c.exact_stage1;
    if (r.packets_dropped != 0 || std::abs(mean - c.exact_stage1) > tol) {
      std::cerr << "sim: " << c.name << " seed " << seed << ": stage-1 mean "
                << mean << " vs Theorem 1 " << c.exact_stage1 << ", dropped "
                << r.packets_dropped << "\n";
      ok = false;
    }
  }
  res.count(1, ok ? 0 : 1);
  char digest[32];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(sim_digest(r)));
  std::cout << "sim.digest " << c.name << " pass " << pass << " seed " << seed
            << " " << digest << "\n";
  return call;
}

/// ns per port of one injection kernel over `cycles` x `ports`, as the
/// median of `reps` spans; `out` receives the last batch for comparison.
double time_inject(Recorder& rec, const char* name,
                   void (*kernel)(const ksw::simd::InjectParams&, std::int64_t,
                                  std::uint32_t, std::uint32_t,
                                  std::uint32_t*),
                   const ksw::simd::InjectParams& prm,
                   std::vector<std::uint32_t>& out) {
  constexpr int kReps = 5;
  constexpr std::int64_t kCycles = 400;
  const auto ports = static_cast<std::uint32_t>(out.size());
  std::vector<double> ns;
  for (int r = 0; r < kReps; ++r) {
    obs::Span s = span(rec, name);
    const Clock::time_point t0 = Clock::now();
    for (std::int64_t cycle = 0; cycle < kCycles; ++cycle)
      kernel(prm, cycle, 0, ports, out.data());
    ns.push_back(1e9 * seconds_since(t0) /
                 static_cast<double>(kCycles * ports));
  }
  return median(ns);
}

void layer_probes(std::uint64_t seed, Result& res, Recorder& rec) {
  ksw::simd::InjectParams prm;
  prm.key = ksw::rng::philox_key(seed);
  prm.thr_arrival = ksw::rng::bernoulli_threshold(0.8);
  prm.ports = 4096;
  std::vector<std::uint32_t> fast(4096), scalar(4096);
  const double simd_ns = time_inject(rec, "simd.inject_batch",
                                     &ksw::simd::inject_batch, prm, fast);
  const double scalar_ns =
      time_inject(rec, "simd.inject_batch_scalar",
                  &ksw::simd::detail::inject_batch_scalar, prm, scalar);
  res.count(1, fast == scalar ? 0 : 1);  // the kernels must agree exactly
  res.set("simd.inject_ns_per_port", simd_ns);
  res.set("simd.inject_scalar_ns_per_port", scalar_ns);
  res.set("simd.speedup", scalar_ns / simd_ns);

  constexpr std::uint32_t kBlocks = 1u << 20;
  std::vector<double> ns;
  std::uint32_t sink = 0;
  for (int r = 0; r < 5; ++r) {
    obs::Span s = span(rec, "rng.philox_block");
    const Clock::time_point t0 = Clock::now();
    for (std::uint32_t i = 0; i < kBlocks; ++i)
      sink ^= ksw::rng::Philox4x32::block({i, 0, 0, 0}, prm.key)[0];
    ns.push_back(1e9 * seconds_since(t0) / kBlocks);
  }
  res.set("rng.philox_ns_per_block", median(ns));
  if (sink == 0x5eed) std::cout << "\n";  // keeps the loop observable
}

}  // namespace

void run_sim(const Options& opt, Result& res, Recorder& rec) {
  std::vector<SimConfig> configs;
  // Set-up: build the configs, evaluate Theorem 1 for each, and run a
  // 1000-cycle warm-up call per config (allocation, page faults, caches).
  // 100-cycle calls were tried first: a set-up of about 10 ms, mostly
  // allocation, whose median moved by 20% between sets of runs.
  res.set("setup_s", median_setup(7, [&] { configs.clear(); }, [&](int) {
            configs = make_configs();
            for (const SimConfig& c : configs) {
              sim::NetworkConfig cfg = c.cfg;
              cfg.measure_cycles = 1'000;
              cfg.warmup_cycles = 0;
              (void)sim::run_network(cfg);
            }
          }));

  // Per config: untraced call wall and CPU times, packets, and traced pps.
  const std::size_t n = configs.size();
  std::vector<std::vector<double>> wall(n), cpu(n), packets(n), traced_pps(n);
  std::vector<double> untraced_s, traced_s;
  const Clock::time_point start = Clock::now();
  for (std::uint64_t pass = 0;
       pass < 2 || seconds_since(start) < opt.seconds; ++pass) {
    // A traced run alternates untraced and traced passes (same work).
    const bool traced = rec.enabled() && pass % 2 == 1;
    double pass_s = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t seed = mix64(opt.seed * 1000003 + pass * 64 + i);
      const double cpu0 = process_cpu_s();
      const Call call =
          run_one(configs[i], seed, pass, res, traced ? &rec : nullptr);
      pass_s += call.secs;
      if (traced) {
        traced_pps[i].push_back(static_cast<double>(call.delivered) /
                                call.secs);
        continue;
      }
      wall[i].push_back(call.secs);
      cpu[i].push_back(process_cpu_s() - cpu0);
      packets[i].push_back(static_cast<double>(call.delivered));
    }
    (traced ? traced_s : untraced_s).push_back(pass_s);
  }
  // One pass over the six configs, each config at its fastest call. On a
  // shared machine a call only ever runs slower than its own cost, so the
  // fastest of a run's 15-20 calls per config is steadier than their
  // median.
  const auto fastest = [](const std::vector<double>& v) {
    return *std::min_element(v.begin(), v.end());
  };
  double pass_wall = 0.0, pass_cpu = 0.0, pass_packets = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    pass_wall += fastest(wall[i]);
    pass_cpu += fastest(cpu[i]);
    pass_packets += median(packets[i]);
  }
  std::cout << "sim: sim_pps " << pass_packets / pass_wall << " over "
            << wall[0].size() << " passes\n";
  res.set("wall_s", pass_wall);
  res.set("cpu_s", pass_cpu);

  if (rec.enabled()) {
    for (std::size_t i = 0; i < configs.size(); ++i)
      res.set("sim.pps." + configs[i].name, median(traced_pps[i]));
    res.set("sim.obs_ratio",
            res.get("sim.pps.k4s4-r80-obs") / res.get("sim.pps.k4s4-r80"));
    res.set("trace.overhead_share",
            median(traced_s) / median(untraced_s) - 1.0);
    layer_probes(opt.seed, res, rec);
  }
}

}  // namespace perfbench
