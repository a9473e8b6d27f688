// Cycle-accurate simulation of a full n-stage banyan (butterfly/delta)
// network of k x k output-queued switches — the system the paper's tables
// and figures are measured on.
//
// Topology. With N = k^n input ports, the queue a packet occupies after its
// s-th routing step is the butterfly node address
//
//   addr_s = dst[0..s] ++ src[s+1..n-1]        (base-k digits, MSB first)
//
// so no explicit wiring tables are needed: moving from stage s to s+1
// replaces digit s+1 of the address with the corresponding destination
// digit. The k queues feeding a given queue differ in exactly one digit —
// the banyan property.
//
// Timing (paper Section II idealization):
//   * every queue accepts any number of packets per cycle;
//   * a queue starts at most one service per cycle; a service of length m
//     occupies cycles t..t+m-1;
//   * cut-through forwarding: the head packet reaches the next stage's
//     queue at cycle t+1, so waiting there can overlap the tail of the
//     previous service (total network service = n + m - 1);
//   * a packet arriving at cycle t can start service at cycle t (waiting
//     time 0).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "sim/service_spec.hpp"
#include "sim/topology.hpp"
#include "stats/covariance.hpp"
#include "stats/histogram.hpp"
#include "stats/moment_tally.hpp"

namespace ksw::sim {

/// Maximum stages for which per-packet stage waits can be tracked (used by
/// correlation collection).
inline constexpr unsigned kMaxTrackedStages = 16;

/// Flow-control discipline applied when buffer_capacity is finite. The
/// schemes differ in when a head-of-line packet may leave its queue and
/// when it becomes eligible downstream (Graphite's flow_control_schemes
/// are the modeling reference):
///   * kCutThrough — virtual cut-through: the transfer is admitted when
///     the downstream queue has a free slot at the attempt, and the packet
///     is eligible downstream one cycle later (the paper's timing). This
///     is the historic finite-buffer behavior and the default.
///   * kStoreAndForward — same occupancy-based admission, but the packet
///     only becomes eligible downstream after its full service time
///     (arrival is stamped t + m instead of t + 1), so waiting cannot
///     overlap the tail of the upstream transmission. Identical to
///     kCutThrough under det:1 service.
///   * kCredit — credit-based backpressure: each upstream holds one credit
///     per downstream slot, a transfer consumes a credit, and the credit
///     returns credit_latency cycles after the downstream queue starts a
///     service. More conservative than cut-through (in-flight returns are
///     invisible), so it blocks earlier at the same depth.
enum class FlowControl {
  kCutThrough,
  kStoreAndForward,
  kCredit,
};

/// Canonical scheme names: "vct", "saf", "credit".
[[nodiscard]] const char* to_string(FlowControl flow) noexcept;

/// Parse a canonical scheme name; throws std::invalid_argument otherwise.
[[nodiscard]] FlowControl parse_flow_control(const std::string& name);

/// Telemetry knobs for run_network. Everything here is additive: results
/// used by the paper-reproduction paths are untouched whether or not
/// telemetry is on, and the whole block is dead code when observability
/// is compiled out (KSW_OBS_ENABLED=0).
struct ObsConfig {
  /// Collect per-stage telemetry (occupancy histograms, peak depth,
  /// service starts, drops/blocks) and phase timers into
  /// NetworkResults::metrics.
  bool enabled = false;
  /// Cycle stride for occupancy/utilization sampling; 0 disables periodic
  /// sampling but keeps event counters. Stride 64 keeps the enabled-mode
  /// overhead under ~5% (see scripts/check_obs_overhead.sh).
  unsigned stride = 64;
  /// Number of warmup-convergence checkpoints spread evenly over the whole
  /// run (warmup + measurement); 0 disables the trace.
  unsigned trace_points = 24;
  /// Fixed occupancy-histogram range: buckets 0,1,...,occupancy_buckets-1
  /// waiting packets, deeper queues land in the overflow bucket.
  unsigned occupancy_buckets = 64;
};

struct NetworkConfig {
  unsigned k = 2;       ///< switch degree; network has k^stages ports
  unsigned stages = 8;  ///< number of switch stages
  /// Wiring pattern; butterfly and Omega are isomorphic, so statistics
  /// agree in distribution, but queue addresses differ.
  TopologyKind topology = TopologyKind::kButterfly;
  double p = 0.5;       ///< per-input batch probability per cycle
  unsigned bulk = 1;    ///< packets per batch (same destination)
  double q = 0.0;       ///< probability a batch targets dst == src
  /// Hot-spot extension (Pfister-Norton tree saturation, referenced by the
  /// RP3 work): with this probability a batch targets `hotspot_target`
  /// regardless of q. The paper does not analyze this pattern; it is
  /// provided for simulation studies.
  double hotspot = 0.0;
  std::uint32_t hotspot_target = 0;
  ServiceSpec service = ServiceSpec::deterministic(1);
  std::int64_t warmup_cycles = 10'000;
  std::int64_t measure_cycles = 100'000;
  std::uint64_t seed = 1;

  /// 0 = infinite queues (the paper's model). Otherwise, a queue holds at
  /// most this many waiting packets: interior transfers block the upstream
  /// service, and injections at full first-stage queues are dropped.
  /// Occupancy is evaluated at the moment a transfer is attempted and
  /// counts in-flight packets — a one-cycle-granularity approximation of
  /// real switch flow control.
  unsigned buffer_capacity = 0;

  /// Flow-control scheme for finite buffers. Schemes other than the
  /// default cut-through require buffer_capacity > 0 (they are meaningless
  /// without backpressure), so every infinite-queue config is untouched.
  FlowControl flow = FlowControl::kCutThrough;

  /// kCredit only: cycles between a downstream service start and the
  /// credit becoming visible upstream again. Must be >= 1; at 1 the
  /// return is as prompt as the cycle model allows, larger values model
  /// slower reverse links and stall upstreams earlier.
  unsigned credit_latency = 2;

  /// Collect the stage-by-stage waiting covariance matrix (Table VI).
  /// Requires stages <= kMaxTrackedStages.
  bool track_correlations = false;

  /// Collect a full waiting-time histogram per stage (used to check the
  /// paper's observation that the per-stage distributions are nearly the
  /// same at every stage).
  bool track_stage_histograms = false;

  /// Record the total waiting time accumulated over the first c stages for
  /// each c listed here (Tables VII-XII / Figs. 3-8 use {3,6,9,12}).
  std::vector<unsigned> total_checkpoints;

  /// Observability/telemetry settings (off by default).
  ObsConfig obs;

  /// Traffic intensity rho = p * bulk * mean service.
  [[nodiscard]] double rho() const {
    return p * static_cast<double>(bulk) * service.mean();
  }
};

struct NetworkResults {
  /// Per-stage waiting-time tallies (index 0 = first stage). Exact
  /// integer moment sums — order-independent, merge-exact, and cheap on
  /// the hot path (see stats/moment_tally.hpp).
  std::vector<stats::MomentTally> stage_wait;
  /// Per-stage sampled queue depth (waiting packets only).
  std::vector<stats::MomentTally> stage_depth;
  /// Per-stage waiting-time histograms (only when track_stage_histograms).
  std::vector<stats::IntHistogram> stage_hist;
  /// Histograms of total waiting over the first c stages, one per
  /// checkpoint (same order as NetworkConfig::total_checkpoints).
  std::vector<stats::IntHistogram> total_wait;
  /// Stage-by-stage waiting covariance (only when track_correlations).
  std::optional<stats::CovarianceMatrix> stage_covariance;

  std::uint64_t packets_injected = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t packets_dropped = 0;  ///< finite buffers only

  /// Telemetry registry (populated only when NetworkConfig::obs.enabled):
  /// per-stage "sim.stageNN.*" occupancy histograms, peak depths, service
  /// starts, idle/busy samples, drop/block counters, plus "sim.phase.*"
  /// timers and cycle counters. Merged deterministically in replicate
  /// index order; only timer wall-clock durations are nondeterministic.
  obs::Registry metrics;
  /// Warmup-convergence trace (when obs.enabled and obs.trace_points > 0).
  obs::ConvergenceTrace convergence;

  void merge(const NetworkResults& other);
};

/// Run the network simulation: one cycle loop, instantiated per
/// service/buffer/instrument policy and chosen once per call (see
/// network.cpp). Random draws are Philox streams addressed by (seed,
/// cycle, port, site), so results are a pure function of cfg.
[[nodiscard]] NetworkResults run_network(const NetworkConfig& cfg);

}  // namespace ksw::sim
