#include "sim/network_detail.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace ksw::sim {

const char* to_string(FlowControl flow) noexcept {
  switch (flow) {
    case FlowControl::kCutThrough:
      return "vct";
    case FlowControl::kStoreAndForward:
      return "saf";
    case FlowControl::kCredit:
      return "credit";
  }
  return "?";
}

FlowControl parse_flow_control(const std::string& name) {
  if (name == "vct") return FlowControl::kCutThrough;
  if (name == "saf") return FlowControl::kStoreAndForward;
  if (name == "credit") return FlowControl::kCredit;
  throw std::invalid_argument("flow control: expected vct|saf|credit, got \"" +
                              name + "\"");
}

}  // namespace ksw::sim

namespace ksw::sim::detail {

void FlowState::init(const NetworkConfig& cfg, unsigned stages,
                     std::uint32_t ports) {
  scheme = cfg.flow;
  capacity = cfg.buffer_capacity;
  latency = cfg.credit_latency;
  if (capacity == 0 || scheme != FlowControl::kCredit) return;
  credits_.assign(static_cast<std::size_t>(stages) * ports, capacity);
  // Ring of latency + 1 buckets: a return scheduled at t for t + latency is
  // drained before cycle t + latency schedules anything new into its slot.
  pending_.assign(latency + 1, {});
}

void FlowState::begin_cycle(std::int64_t t) {
  if (pending_.empty()) return;
  auto& bucket = pending_[static_cast<std::size_t>(
      t % static_cast<std::int64_t>(pending_.size()))];
  for (const std::uint32_t q : bucket) ++credits_[q];
  bucket.clear();
}

void validate(const NetworkConfig& cfg) {
  if (cfg.k < 2) throw std::invalid_argument("run_network: k must be >= 2");
  if (cfg.stages == 0)
    throw std::invalid_argument("run_network: stages must be >= 1");
  if (!(cfg.p >= 0.0 && cfg.p <= 1.0))
    throw std::invalid_argument("run_network: p outside [0,1]");
  if (!(cfg.q >= 0.0 && cfg.q <= 1.0))
    throw std::invalid_argument("run_network: q outside [0,1]");
  if (cfg.bulk == 0) throw std::invalid_argument("run_network: bulk == 0");
  if (!(cfg.hotspot >= 0.0 && cfg.hotspot <= 1.0))
    throw std::invalid_argument("run_network: hotspot outside [0,1]");
  if (cfg.track_correlations && cfg.stages > kMaxTrackedStages)
    throw std::invalid_argument(
        "run_network: correlation tracking limited to " +
        std::to_string(kMaxTrackedStages) + " stages");
  for (unsigned c : cfg.total_checkpoints)
    if (c == 0 || c > cfg.stages)
      throw std::invalid_argument(
          "run_network: total checkpoint outside [1, stages]");
  if (cfg.obs.enabled && cfg.obs.occupancy_buckets == 0)
    throw std::invalid_argument(
        "run_network: obs.occupancy_buckets must be >= 1");
  if (cfg.flow != FlowControl::kCutThrough && cfg.buffer_capacity == 0)
    throw std::invalid_argument(
        std::string("run_network: flow control \"") + to_string(cfg.flow) +
        "\" requires a finite buffer_capacity");
  if (cfg.flow == FlowControl::kCredit && cfg.credit_latency == 0)
    throw std::invalid_argument(
        "run_network: credit_latency must be >= 1");
}

void validate_hotspot_target(const NetworkConfig& cfg, std::uint32_t ports) {
  if (cfg.hotspot_target >= ports)
    throw std::invalid_argument(
        "run_network: hotspot_target " + std::to_string(cfg.hotspot_target) +
        " outside [0, ports) with ports = " + std::to_string(ports));
}

std::string stage_metric(unsigned stage, const char* what) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "sim.stage%02u.%s", stage, what);
  return buf;
}

void ObsState::init(const NetworkConfig& cfg, unsigned n,
                    std::int64_t total_cycles, NetworkResults& out) {
  on = obs::kEnabled && cfg.obs.enabled;
  tally.assign(on ? n : 0, StageTally{});
  if (on) {
    sobs.resize(n);
    for (unsigned s = 0; s < n; ++s) {
      const unsigned label = s + 1;
      sobs[s].occupancy =
          &out.metrics.histogram(stage_metric(label, "occupancy"), 0.0, 1.0,
                                 cfg.obs.occupancy_buckets);
      sobs[s].peak = &out.metrics.gauge(stage_metric(label, "peak_depth"));
      sobs[s].starts =
          &out.metrics.counter(stage_metric(label, "service_starts"));
      sobs[s].idle =
          &out.metrics.counter(stage_metric(label, "idle_samples"));
      sobs[s].busy =
          &out.metrics.counter(stage_metric(label, "busy_samples"));
      sobs[s].blocked =
          &out.metrics.counter(stage_metric(label, "blocked_transfers"));
      // Credit stalls are a kCredit-only breakdown of blocked_transfers;
      // registering the counter conditionally keeps every other run's
      // report byte-identical to what it was before credits existed.
      if (cfg.flow == FlowControl::kCredit)
        sobs[s].credit_stalls =
            &out.metrics.counter(stage_metric(label, "credit_stalls"));
    }
    dropped0 = &out.metrics.counter(stage_metric(1, "dropped"));
  }

  if (on && cfg.obs.trace_points > 0 && total_cycles > 0)
    for (unsigned j = 1; j <= cfg.obs.trace_points; ++j) {
      const std::int64_t c =
          total_cycles * static_cast<std::int64_t>(j) /
          static_cast<std::int64_t>(cfg.obs.trace_points);
      if (c > 0 && (conv_grid.empty() || c > conv_grid.back()))
        conv_grid.push_back(c);
    }
  trace_on = !conv_grid.empty();
  conv_sum.assign(trace_on ? n : 0, 0);
  conv_cnt.assign(trace_on ? n : 0, 0);
}

void ObsState::checkpoint(std::int64_t t, NetworkResults& out) {
  if (trace_on && next_cp < conv_grid.size() && t + 1 == conv_grid[next_cp]) {
    out.convergence.cycles.push_back(t + 1);
    out.convergence.wait_sum.emplace_back(conv_sum.begin(), conv_sum.end());
    out.convergence.wait_count.push_back(conv_cnt);
    ++next_cp;
  }
}

void ObsState::flush(std::int64_t warmup_end, std::int64_t total_cycles,
                     NetworkResults& out) const {
  if (!on) return;
  for (std::size_t s = 0; s < tally.size(); ++s) {
    sobs[s].starts->inc(tally[s].starts);
    sobs[s].idle->inc(tally[s].idle);
    sobs[s].busy->inc(tally[s].busy);
    sobs[s].blocked->inc(tally[s].blocked);
    if (sobs[s].credit_stalls != nullptr)
      sobs[s].credit_stalls->inc(tally[s].credit_stalls);
    sobs[s].peak->record_max(static_cast<double>(tally[s].peak));
  }
  // Drops only ever happen at first-stage injection, so the per-stage
  // counter equals the run total.
  dropped0->inc(out.packets_dropped);
  out.metrics.counter("sim.cycles.warmup")
      .inc(static_cast<std::uint64_t>(warmup_end));
  out.metrics.counter("sim.cycles.measure")
      .inc(static_cast<std::uint64_t>(total_cycles - warmup_end));
  out.metrics.counter("sim.replicates").inc(1);
  out.metrics.counter("sim.packets.injected").inc(out.packets_injected);
  out.metrics.counter("sim.packets.delivered").inc(out.packets_delivered);
  out.metrics.counter("sim.packets.dropped").inc(out.packets_dropped);
}

}  // namespace ksw::sim::detail
