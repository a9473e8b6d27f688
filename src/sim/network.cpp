// The network engine: one cycle loop, compiled once per feature policy.
// Produces bit-identical results (statistics, histograms, covariances,
// telemetry) to the seed engine kept as a test oracle
// (tests/sim/network_reference.cpp); tests/sim/engine_equivalence_test.cpp
// enforces the equivalence.
//
// run_network picks a Policy once per call, from three axes:
//
//   service      kUnit (det:1), kConstant (det:m, m >= 2), kSampled
//   buffers      kInfinite, kOccupancy (vct/saf), kCredit
//   instruments  kNone, kTelemetry (obs on), kFull (correlations and/or
//                stage histograms; telemetry checked at run time)
//
// Every disabled feature compiles out of its instantiation, so each config
// runs a loop carrying only what it uses. Layout decisions, in order of
// measured impact:
//   * Packets are 16 bytes (24 when they carry a sampled service time or
//     a correlation row): a fresh queue's 4-slot ring is one or two cache
//     lines. The per-stage waits correlation runs need live in a
//     side table (CorrTable); packets carry a row index.
//   * All stages x ports queues live in one QueuePool — flat metadata
//     arrays indexed by stage * ports + port, element storage carved from
//     a shared arena (see queue_pool.hpp).
//   * Each stage keeps an ActiveSet (occupied/busy bitmaps + busy-expiry
//     timing wheel), so the per-cycle service scan touches only occupied,
//     non-busy ports instead of sweeping the whole topology. Bits are
//     walked in ascending port order — the exact order of the seed
//     engine's full sweep, which is what makes bit-identity possible.
//   * Each stage's service walk is a chunked two-pass sweep over the
//     materialized candidate list: pass A reads each head (ring slots
//     prefetched kLookahead queues ahead), records waits, and builds the
//     re-stamped outgoing packet; pass B pops and pushes one block later,
//     while those lines are still resident. Finite-buffer policies
//     forward each packet as soon as it is admitted instead, because the
//     next admission must see every earlier transfer.
#include "sim/network.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <type_traits>
#include <variant>
#include <vector>

#include "obs/metrics.hpp"
#include "rng/philox.hpp"
#include "sim/active_set.hpp"
#include "sim/network_detail.hpp"
#include "sim/queue_pool.hpp"
#include "sim/topology.hpp"
#include "simd/inject.hpp"

namespace ksw::sim {

namespace {

enum class ServiceKind { kUnit, kConstant, kSampled };
enum class BufferKind { kInfinite, kOccupancy, kCredit };
enum class InstrumentKind { kNone, kTelemetry, kFull };

template <ServiceKind S, BufferKind B, InstrumentKind I>
struct Policy {
  static constexpr bool kUnit = S == ServiceKind::kUnit;
  static constexpr bool kSampled = S == ServiceKind::kSampled;
  static constexpr bool kFinite = B != BufferKind::kInfinite;
  static constexpr bool kCredit = B == BufferKind::kCredit;
  static constexpr InstrumentKind kInstruments = I;
  static constexpr bool kFull = I == InstrumentKind::kFull;
};

/// Hot per-packet state; one ring-buffer slot, copied on every hop. Cycle
/// stamps are kept modulo 2^32: differences are exact while every wait
/// and service stays below 2^31 cycles, which the 32-bit total_wait
/// already assumes.
struct Packet {
  std::uint32_t arrival = 0;   // cycle available at the current queue
  std::uint32_t dst = 0;
  std::int32_t total_wait = 0;
  std::uint32_t measured = 0;  // injected after warmup: counts in stats
};
static_assert(sizeof(Packet) == 16, "Packet must stay a quarter cache line");

/// Packet plus the fields only sampled-service and correlation runs read.
/// (Optional members as [[no_unique_address]] empties kept the size but
/// cost the unit loop 15% in copies, so the narrow type stays plain.)
struct WidePacket : Packet {
  std::uint32_t service = 1;
  std::uint32_t corr = 0;  // CorrTable row (track_correlations only)
};

template <class P>
using PacketFor =
    std::conditional_t<P::kSampled || P::kFull, WidePacket, Packet>;

/// Signed distance from cycle stamp `from` to `to` (see Packet).
inline std::int32_t cycles_between(std::uint32_t from,
                                   std::uint32_t to) noexcept {
  return static_cast<std::int32_t>(to - from);
}

/// Side table of per-stage waits for in-flight packets, allocated only in
/// correlation-tracking runs. Rows are recycled through a free list; a row
/// is live from injection to delivery.
class CorrTable {
 public:
  explicit CorrTable(unsigned stages) : stages_(stages) {}

  std::uint32_t allocate() {
    if (free_.empty()) {
      const std::uint32_t r = rows_++;
      pool_.resize(static_cast<std::size_t>(rows_) * stages_, 0);
      return r;
    }
    const std::uint32_t r = free_.back();
    free_.pop_back();
    std::fill_n(row(r), stages_, 0);
    return r;
  }

  void release(std::uint32_t r) { free_.push_back(r); }

  /// Pointer valid until the next allocate().
  [[nodiscard]] std::int32_t* row(std::uint32_t r) noexcept {
    return pool_.data() + static_cast<std::size_t>(r) * stages_;
  }

 private:
  unsigned stages_;
  std::uint32_t rows_ = 0;
  std::vector<std::int32_t> pool_;
  std::vector<std::uint32_t> free_;
};

template <class P>
NetworkResults run_cycles(const NetworkConfig& cfg, const Topology& topo) {
  using Pkt = PacketFor<P>;
  const std::uint32_t ports = topo.ports();
  const unsigned n = cfg.stages;
  const simd::InjectParams inj = detail::make_inject_params(cfg, ports);

  // Queue id for (stage s, address a) is s * ports + a: one flat index
  // into the pool and every per-queue side array. Finite-buffer runs
  // freeze the pool at the buffer depth: admission bounds occupancy, so
  // the rings never grow.
  QueuePool<Pkt> pool(static_cast<std::size_t>(n) * ports,
                      P::kFinite ? cfg.buffer_capacity : 4, P::kFinite);
  std::vector<ActiveSet> active(
      n, ActiveSet(ports, P::kUnit ? 0
                                   : ActiveSet::span_for(
                                         cfg.service.max_cycles())));
  const std::uint32_t constant_m = cfg.service.constant_cycles();

  // Checkpoint lookup: after completing c stages, record into
  // total_wait[checkpoint_of[c]].
  std::vector<int> checkpoint_of(n + 1, -1);
  for (std::size_t i = 0; i < cfg.total_checkpoints.size(); ++i)
    checkpoint_of[cfg.total_checkpoints[i]] = static_cast<int>(i);

  NetworkResults out;
  out.stage_wait.resize(n);
  out.stage_depth.resize(n);
  out.total_wait.resize(cfg.total_checkpoints.size());
  const bool track_hist = P::kFull && cfg.track_stage_histograms;
  const bool track_corr = P::kFull && cfg.track_correlations;
  if (track_hist) out.stage_hist.resize(n);
  if (track_corr) out.stage_covariance.emplace(n);
  CorrTable corr(track_corr ? n : 1);
  std::vector<double> corr_scratch(track_corr ? n : 0, 0.0);

  const std::int64_t total_cycles = cfg.warmup_cycles + cfg.measure_cycles;
  const std::int64_t warmup_end =
      std::clamp<std::int64_t>(cfg.warmup_cycles, 0, total_cycles);
  constexpr std::int64_t kDepthSampleStride = 64;
  detail::FlowState flow;
  if constexpr (P::kFinite) flow.init(cfg, n, ports);

  detail::ObsState ob;
  ob.init(cfg, n, total_cycles, out);
  const bool obs_on = P::kInstruments == InstrumentKind::kTelemetry ||
                      (P::kFull && ob.on);
  const bool trace_on = P::kInstruments != InstrumentKind::kNone && ob.trace_on;
  // Telemetry samples (occupancy histogram, utilization) every
  // obs.stride cycles. A server is busy at a sample when its busy bit is
  // set after the walk (a service of m >= 2 still running) or it started
  // a service that cycle; the walk records only the latter, and only on
  // sample cycles. Depths are tallied per stage and recorded once per
  // distinct value.
  const bool sample_telemetry = obs_on && cfg.obs.stride != 0;
  std::vector<std::uint8_t> started_now(
      sample_telemetry ? static_cast<std::size_t>(n) * ports : 0, 0);
  std::vector<std::uint64_t> depth_count(
      sample_telemetry ? cfg.obs.occupancy_buckets : 0, 0);

  // Swept on the bench workload (k=4, 6 stages, rho=0.8): lookahead 4
  // beat 2/8/16, block 64 beat 16/32/128, and prefetching the downstream
  // tail slot was a net loss (the write misses overlap fine on their own).
  constexpr std::size_t kLookahead = 4;
  constexpr std::size_t kBlock =
      P::kFinite ? std::numeric_limits<std::size_t>::max() : 64;
  struct Move {
    Pkt pkt;                      // already re-stamped for the next stage
    std::uint32_t addr = 0;       // port within stage s
    std::uint32_t next_addr = 0;  // port within stage s+1 (exit: unused)
  };
  std::vector<std::uint32_t> inject_dst(ports);
  std::vector<std::uint32_t> cand;
  cand.reserve(ports);
  std::vector<Move> moves;
  if constexpr (!P::kFinite) moves.reserve(kBlock);

  // One simulated cycle; called with strictly increasing t.
  const auto step = [&](const std::int64_t t, const bool measuring) {
    const auto now = static_cast<std::uint32_t>(t);
    const bool sample_cycle =
        sample_telemetry && measuring &&
        t % static_cast<std::int64_t>(cfg.obs.stride) == 0;
    if constexpr (P::kCredit) flow.begin_cycle(t);

    // --- Injection at the first stage ------------------------------------
    // Per-cycle injections are decided for every port at once by the
    // batched Philox kernel — draws are addressed by (cycle, port, site),
    // so the batch is bit-identical to port-at-a-time evaluation.
    simd::inject_batch(inj, t, 0, ports, inject_dst.data());
    std::uint64_t injected = 0;
    for (std::uint32_t src = 0; src < ports; ++src) {
      const std::uint32_t dst = inject_dst[src];
      if (dst == simd::kNoArrival) continue;
      const std::uint32_t addr0 = topo.entry_queue(src, dst);  // qid(0, .)
      [[maybe_unused]] rng::LaneSeq svc(inj.key, t, src, rng::Site::kService);
      Pkt pkt;
      pkt.arrival = now;
      pkt.dst = dst;
      pkt.measured = measuring;
      for (unsigned b = 0; b < cfg.bulk; ++b) {
        if constexpr (P::kFinite)
          if (pool.size(addr0) >= cfg.buffer_capacity) {
            if (measuring) ++out.packets_dropped;
            continue;
          }
        if constexpr (P::kSampled) pkt.service = cfg.service.sample(svc);
        if constexpr (P::kFull)
          if (track_corr) pkt.corr = corr.allocate();
        pool.push(addr0, pkt);
        active[0].mark_occupied(addr0);
        ++injected;
      }
    }
    if (measuring) out.packets_injected += injected;

    // --- Service, stage by stage -----------------------------------------
    for (unsigned s = 0; s < n; ++s) {
      ActiveSet& sched = active[s];
      if constexpr (!P::kUnit) sched.expire(t);
      cand.clear();
      sched.for_each_candidate([&](std::uint32_t a) { cand.push_back(a); });
      const std::size_t base = static_cast<std::size_t>(s) * ports;
      stats::MomentTally& wait = out.stage_wait[s];
      const int cp = checkpoint_of[s + 1];
      const bool exit_stage = s + 1 == n;
      ActiveSet& down = active[exit_stage ? s : s + 1];
      const std::size_t count = cand.size();
      // Per-stage telemetry tallies live in locals through the walk, so
      // the per-start increments do not chain through memory. The peak
      // depth is read before pops: between two pops a queue only grows,
      // so its largest size after any push is its size before the next
      // pop (or, after its last pop, its size at the end of the run).
      std::uint64_t starts = 0;
      std::uint64_t waits = 0;
      std::int64_t wait_sum = 0;
      std::size_t peak = 0;

      // Pass B, per move: pop stage s and (interior stages) push stage
      // s+1. Ascending port order keeps the downstream FIFO interleave of
      // the full sweep.
      const auto pop_head = [&](std::uint32_t a) {
        const std::size_t q = base + a;
        const std::size_t before = pool.size(q);
        if (obs_on) peak = std::max(peak, before);
        pool.pop(q);
        if (before == 1) sched.clear_occupied(a);
      };
      const auto forward = [&](const Move& mv) {
        pop_head(mv.addr);
        const std::size_t nq = base + ports + mv.next_addr;
        if constexpr (P::kCredit) flow.on_forward(nq);
        pool.push(nq, mv.pkt);
        down.mark_occupied(mv.next_addr);
      };

      for (std::size_t blk = 0; blk < count; blk += kBlock) {
        const std::size_t end = blk + std::min(kBlock, count - blk);
        moves.clear();
        // Pass A: read heads, admit, record, re-stamp.
        for (std::size_t i = blk; i < end; ++i) {
          if (i + kLookahead < count)
            pool.prefetch_front(base + cand[i + kLookahead]);
          const std::uint32_t a = cand[i];
          const std::size_t q = base + a;
          const Pkt& head = pool.front(q);
          if (cycles_between(now, head.arrival) > 0)
            continue;  // delivered later this cycle
          Move mv;
          mv.addr = a;
          mv.pkt = head;
          // Finite buffers: block upstream service when the flow-control
          // scheme denies the transfer (full downstream queue, or no
          // credit under kCredit).
          if (P::kFinite && !exit_stage) {
            mv.next_addr = topo.next_queue(s, a, head.dst);
            const std::size_t nq = base + ports + mv.next_addr;
            if (!flow.admit(nq, pool.size(nq))) {
              if (obs_on && measuring) {
                ++ob.tally[s].blocked;
                if (P::kCredit) ++ob.tally[s].credit_stalls;
              }
              continue;
            }
          }

          const std::int32_t w = cycles_between(head.arrival, now);
          if (trace_on) {
            wait_sum += w;
            ++waits;
          }
          if (obs_on && measuring) ++starts;
          if (head.measured) {
            wait.add(w);
            if (track_hist) out.stage_hist[s].add(w);
            mv.pkt.total_wait += w;
            if constexpr (P::kFull)
              if (track_corr) corr.row(head.corr)[s] = w;
            if (cp >= 0)
              out.total_wait[static_cast<std::size_t>(cp)].add(
                  mv.pkt.total_wait);
            if (exit_stage) {
              ++out.packets_delivered;
              if constexpr (P::kFull)
                if (track_corr) {
                  const std::int32_t* row = corr.row(head.corr);
                  for (unsigned j = 0; j < n; ++j)
                    corr_scratch[j] = static_cast<double>(row[j]);
                  out.stage_covariance->add(corr_scratch);
                }
            }
          }
          if constexpr (P::kFull)
            if (track_corr && exit_stage) corr.release(head.corr);

          std::uint32_t service = 1;
          if constexpr (P::kSampled)
            service = head.service;
          else if constexpr (!P::kUnit)
            service = constant_m;
          if (sample_cycle) started_now[q] = 1;
          if constexpr (P::kCredit) flow.on_service_start(s, q, t);
          mv.pkt.arrival = static_cast<std::uint32_t>(
              P::kFinite ? flow.arrival_stamp(t, service) : t + 1);
          // Unit services never block the next cycle; only m >= 2
          // enters the busy set (and its expiry wheel).
          if constexpr (!P::kUnit)
            if (service > 1) sched.mark_busy(a, t + service);
          // Infinite queues route last: routing ahead of the statistics
          // measured a few percent slower on the unit-service loop.
          if (!P::kFinite && !exit_stage)
            mv.next_addr = topo.next_queue(s, a, head.dst);
          // Finite buffers forward at once: the next admission must see
          // this transfer.
          if constexpr (P::kFinite) {
            if (exit_stage)
              pop_head(a);
            else
              forward(mv);
          } else {
            moves.push_back(mv);
          }
        }

        if constexpr (!P::kFinite) {
          if (exit_stage)
            for (const Move& mv : moves) pop_head(mv.addr);
          else
            for (const Move& mv : moves) forward(mv);
        }
      }

      if constexpr (P::kInstruments != InstrumentKind::kNone) {
        if (trace_on) {
          ob.conv_sum[s] += wait_sum;
          ob.conv_cnt[s] += waits;
        }
        if (obs_on) {
          ob.tally[s].starts += starts;
          ob.tally[s].peak = std::max(ob.tally[s].peak, peak);
        }
      }
    }

    // Waiting packets at queue q: in-flight arrivals (stamped after now)
    // sit at the tail and are excluded.
    const auto present_at = [&](std::size_t q) {
      std::size_t present = pool.size(q);
      while (present > 0 &&
             cycles_between(now, pool.at(q, present - 1).arrival) > 0)
        --present;
      return present;
    };

    // --- Occupancy and telemetry sampling --------------------------------
    const bool depth_cycle = measuring && t % kDepthSampleStride == 0;
    if (depth_cycle || sample_cycle)
      for (unsigned s = 0; s < n; ++s) {
        std::uint64_t busy = 0;
        for (std::uint32_t a = 0; a < ports; ++a) {
          const std::size_t q = static_cast<std::size_t>(s) * ports + a;
          const std::size_t present = present_at(q);
          if (depth_cycle)
            out.stage_depth[s].add(static_cast<std::int64_t>(present));
          if (!sample_cycle) continue;
          if (present < depth_count.size())
            ++depth_count[present];
          else
            ob.sobs[s].occupancy->record(static_cast<double>(present));
          busy += started_now[q] | active[s].busy(a);
          started_now[q] = 0;
        }
        if (!sample_cycle) continue;
        for (std::size_t v = 0; v < depth_count.size(); ++v)
          if (depth_count[v] != 0) {
            ob.sobs[s].occupancy->record(static_cast<double>(v),
                                         depth_count[v]);
            depth_count[v] = 0;
          }
        ob.tally[s].busy += busy;
        ob.tally[s].idle += ports - busy;
      }

    if constexpr (P::kInstruments != InstrumentKind::kNone) {
      // --- Convergence checkpoint ----------------------------------------
      ob.checkpoint(t, out);
    }
  };

  // --- Phased main loop: warmup then measurement, each timed -------------
  for (const bool measuring : {false, true}) {
    obs::ScopedTimer timer(
        obs_on ? &out.metrics.timer(measuring ? "sim.phase.measure"
                                              : "sim.phase.warmup")
               : nullptr);
    const std::int64_t end = measuring ? total_cycles : warmup_end;
    for (std::int64_t t = measuring ? warmup_end : 0; t < end; ++t)
      step(t, measuring);
  }

  // Queues never popped again keep their final size as a peak candidate.
  if (obs_on)
    for (unsigned s = 0; s < n; ++s)
      for (std::uint32_t a = 0; a < ports; ++a)
        ob.tally[s].peak =
            std::max(ob.tally[s].peak,
                     pool.size(static_cast<std::size_t>(s) * ports + a));
  ob.flush(warmup_end, total_cycles, out);
  return out;
}

/// Lift a runtime enum value into the matching std::integral_constant
/// alternative, so std::visit instantiates one engine per combination.
template <auto... Kinds, typename E>
std::variant<std::integral_constant<E, Kinds>...> lift(E value) {
  std::variant<std::integral_constant<E, Kinds>...> out;
  (void)((value == Kinds
              ? (out = std::integral_constant<E, Kinds>{}, true)
              : false) ||
         ...);
  return out;
}

ServiceKind service_kind(const ServiceSpec& service) {
  if (service.is_unit()) return ServiceKind::kUnit;
  return service.constant_cycles() != 0 ? ServiceKind::kConstant
                                        : ServiceKind::kSampled;
}

BufferKind buffer_kind(const NetworkConfig& cfg) {
  if (cfg.buffer_capacity == 0) return BufferKind::kInfinite;
  return cfg.flow == FlowControl::kCredit ? BufferKind::kCredit
                                          : BufferKind::kOccupancy;
}

InstrumentKind instrument_kind(const NetworkConfig& cfg) {
  if (cfg.track_correlations || cfg.track_stage_histograms)
    return InstrumentKind::kFull;
  return obs::kEnabled && cfg.obs.enabled ? InstrumentKind::kTelemetry
                                          : InstrumentKind::kNone;
}

}  // namespace

void NetworkResults::merge(const NetworkResults& other) {
  if (stage_wait.size() != other.stage_wait.size() ||
      stage_depth.size() != other.stage_depth.size() ||
      total_wait.size() != other.total_wait.size())
    throw std::invalid_argument("NetworkResults::merge: shape mismatch");
  if (stage_hist.size() != other.stage_hist.size())
    throw std::invalid_argument(
        "NetworkResults::merge: stage_hist shape mismatch");
  for (std::size_t i = 0; i < stage_wait.size(); ++i) {
    stage_wait[i].merge(other.stage_wait[i]);
    stage_depth[i].merge(other.stage_depth[i]);
  }
  for (std::size_t i = 0; i < stage_hist.size(); ++i)
    stage_hist[i].merge(other.stage_hist[i]);
  for (std::size_t i = 0; i < total_wait.size(); ++i)
    total_wait[i].merge(other.total_wait[i]);
  if (stage_covariance && other.stage_covariance)
    stage_covariance->merge(*other.stage_covariance);
  packets_injected += other.packets_injected;
  packets_delivered += other.packets_delivered;
  packets_dropped += other.packets_dropped;
  metrics.merge(other.metrics);
  convergence.merge(other.convergence);
}

NetworkResults run_network(const NetworkConfig& cfg) {
  detail::validate(cfg);
  const Topology topo(cfg.topology, cfg.k, cfg.stages);
  detail::validate_hotspot_target(cfg, topo.ports());
  return std::visit(
      [&](auto service, auto buffers, auto instruments) {
        return run_cycles<Policy<decltype(service)::value,
                                 decltype(buffers)::value,
                                 decltype(instruments)::value>>(cfg, topo);
      },
      lift<ServiceKind::kUnit, ServiceKind::kConstant, ServiceKind::kSampled>(
          service_kind(cfg.service)),
      lift<BufferKind::kInfinite, BufferKind::kOccupancy,
           BufferKind::kCredit>(buffer_kind(cfg)),
      lift<InstrumentKind::kNone, InstrumentKind::kTelemetry,
           InstrumentKind::kFull>(instrument_kind(cfg)));
}

}  // namespace ksw::sim
