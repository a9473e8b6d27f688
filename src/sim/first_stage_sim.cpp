#include "sim/first_stage_sim.hpp"

#include <stdexcept>

#include "rng/philox.hpp"
#include "sim/queue_pool.hpp"

namespace ksw::sim {

namespace {

struct Waiting {
  std::int64_t arrival = 0;
  std::uint32_t service = 1;
};

}  // namespace

void FirstStageResults::merge(const FirstStageResults& other) {
  waiting.merge(other.waiting);
  histogram.merge(other.histogram);
  queue_depth.merge(other.queue_depth);
  messages += other.messages;
}

FirstStageResults run_first_stage(const FirstStageConfig& cfg) {
  if (cfg.k == 0 || cfg.s == 0)
    throw std::invalid_argument("run_first_stage: k and s must be >= 1");
  if (!(cfg.p >= 0.0 && cfg.p <= 1.0))
    throw std::invalid_argument("run_first_stage: p outside [0,1]");
  if (!(cfg.q >= 0.0 && cfg.q <= 1.0))
    throw std::invalid_argument("run_first_stage: q outside [0,1]");
  if (cfg.bulk == 0)
    throw std::invalid_argument("run_first_stage: bulk == 0");
  if (!(cfg.hotspot >= 0.0 && cfg.hotspot <= 1.0))
    throw std::invalid_argument("run_first_stage: hotspot outside [0,1]");
  // Range-checked on every construction path, even when hotspot == 0 —
  // mirrors validate_hotspot_target in the network engine.
  if (cfg.hotspot_target >= cfg.s)
    throw std::invalid_argument(
        "run_first_stage: hotspot_target must name an output < s");

  // Counter-mode thresholds. The single switch is small (k inputs), so
  // arrivals stay scalar — one Philox block per (cycle, input) in the
  // first-stage draw domain.
  const rng::Philox4x32::Key key = rng::philox_key(cfg.seed);
  const std::uint64_t thr_arrival = rng::bernoulli_threshold(cfg.p);
  const std::uint64_t thr_hotspot =
      cfg.hotspot > 0.0 ? rng::bernoulli_threshold(cfg.hotspot) : 0;
  const std::uint64_t thr_favorite =
      cfg.q > 0.0 ? rng::bernoulli_threshold(cfg.q) : 0;

  QueuePool<Waiting> queues(cfg.s);
  std::vector<std::int64_t> busy_until(cfg.s, 0);

  FirstStageResults out;
  const std::int64_t total = cfg.warmup_cycles + cfg.measure_cycles;
  constexpr std::int64_t kDepthSampleStride = 64;

  for (std::int64_t t = 0; t < total; ++t) {
    // Arrivals: each input independently delivers one batch; destinations
    // are the input's favorite output with probability q, else uniform.
    for (unsigned input = 0; input < cfg.k; ++input) {
      const auto block = rng::Philox4x32::block(
          rng::philox_counter(t, input, rng::Site::kFsInject), key);
      if (static_cast<std::uint64_t>(block[rng::kLaneArrival]) >=
          thr_arrival)
        continue;
      const unsigned dest =
          (thr_hotspot != 0 &&
           static_cast<std::uint64_t>(block[rng::kLaneHotspot]) <
               thr_hotspot)
              ? static_cast<unsigned>(cfg.hotspot_target)
          : (thr_favorite != 0 &&
             static_cast<std::uint64_t>(block[rng::kLaneFavorite]) <
                 thr_favorite)
              ? input % cfg.s
              : rng::uniform_below(block[rng::kLaneDest], cfg.s);
      rng::LaneSeq svc(key, t, input, rng::Site::kFsService);
      for (unsigned pkt = 0; pkt < cfg.bulk; ++pkt)
        queues.push(dest, Waiting{t, cfg.service.sample(svc)});
    }

    // Service: each queue begins at most one service per cycle.
    const bool measuring = t >= cfg.warmup_cycles;
    for (unsigned qi = 0; qi < cfg.s; ++qi) {
      if (busy_until[qi] > t || queues.empty(qi)) continue;
      const Waiting head = queues.front(qi);
      queues.pop(qi);
      busy_until[qi] = t + head.service;
      if (measuring) {
        const std::int64_t w = t - head.arrival;
        out.waiting.add(w);
        out.histogram.add(w);
        ++out.messages;
      }
    }

    if (measuring && t % kDepthSampleStride == 0)
      for (unsigned qi = 0; qi < cfg.s; ++qi)
        out.queue_depth.add(static_cast<std::int64_t>(queues.size(qi)));
  }
  return out;
}

}  // namespace ksw::sim
