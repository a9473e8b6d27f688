// The four perfbench workloads. Each fills `res` with every end-to-end
// metric (and, when `rec` is enabled, the per-layer metrics of the layers
// it exercises) and counts its correctness checks as ops.
#pragma once

#include "checks.hpp"
#include "gen.hpp"
#include "harness.hpp"
#include "serve/service.hpp"

namespace perfbench {

void run_book(const Options& opt, Result& res, Recorder& rec);
void run_sim(const Options& opt, Result& res, Recorder& rec);
void run_serve(const Options& opt, Result& res, Recorder& rec);
void run_fleet(const Options& opt, Result& res, Recorder& rec);

/// Shared by serve and fleet: the request stream settings.
inline constexpr std::size_t kServeThreads = 2;   ///< pool threads
inline constexpr std::uint64_t kWarmup = 10000;   ///< set-up requests
inline constexpr std::size_t kPass = 2000;        ///< closed-loop pass size
static_assert(kWarmup % kPass == 0, "the warm-up is whole passes");
/// The closed loop is a fixed number of passes, so the open loop always
/// starts at the same stream position: the cache is still filling, and a
/// time-bounded loop would start the open loop at a speed-dependent state.
inline constexpr std::size_t kClosedPasses = 20;
inline constexpr double kOpenRate = 2000.0;       ///< open-loop requests/s
inline constexpr double kOpenShare = 0.8;         ///< of --seconds

struct PassTime {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

/// One closed-loop pass of requests [first, first + count) through
/// Service::run (the whole block is available up front); every response
/// goes through `checker` after the clock stops.
PassTime serve_pass(ksw::serve::Service& svc, const QueryGen& gen,
                    std::uint64_t first, std::size_t count,
                    ResponseChecker* checker);

/// Median of `reps` timed calls of `setup` (seconds); the set-up each
/// workload repeats so that setup_s is a median, not one sample. `teardown`
/// runs before each call, outside the clock, so that stopping or freeing
/// the previous instance is not counted as set-up.
template <typename Teardown, typename F>
double median_setup(int reps, Teardown&& teardown, F&& setup) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    teardown();
    const Clock::time_point t0 = Clock::now();
    setup(i);
    times.push_back(seconds_since(t0));
  }
  return median(times);
}

}  // namespace perfbench
