// fleet: the serve request stream (its own seed stream) over TCP to
// `kswsim fleet --workers=2 --threads=1` on an ephemeral port, one client
// thread driving 2 connections.
//
//   set-up      spawn the fleet, connect, warm up with kWarmup requests
//   closed loop passes of kPass requests, at most kWindow unanswered per
//               connection -> wall_s, cpu_s (client + supervisor + workers)
//   open loop   kOpenRate requests/s, latency from due time -> p50/p99
//
// A refused or shed (overload) request counts as failed. Traced runs add
// closed-loop passes with a span per request (alternating with untraced
// ones), the same requests through an in-process serve::Service (same-run
// ratio), and the routing probe.
#include <algorithm>
#include <iostream>
#include <memory>

#include <unistd.h>

#include "client.hpp"
#include "fleet/routing.hpp"
#include "serve/query.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr unsigned kWorkers = 2;
constexpr unsigned kWorkerThreads = 1;
constexpr std::size_t kConns = 2;
constexpr std::size_t kWindow = 32;    ///< unanswered per connection
constexpr double kIoTimeout_s = 60.0;

/// Seed stream of its own, so fleet and serve never share inputs.
std::uint64_t fleet_seed(std::uint64_t seed) { return mix64(seed ^ 0xf1ee7); }

struct Fleet {
  FleetProc proc;
  std::vector<Conn> conns;

  ~Fleet() {
    for (Conn& c : conns)
      if (c.rfd >= 0) ::close(c.rfd);
  }
  [[nodiscard]] double cpu_s() const {
    double s = proc_cpu_s(proc.pid());
    for (const pid_t w : proc.workers()) s += proc_cpu_s(w);
    return s;
  }
};

std::unique_ptr<Fleet> start_fleet(const Options& opt) {
  auto fleet = std::make_unique<Fleet>();
  if (!fleet->proc.start(opt.kswsim, kWorkers, kWorkerThreads, 30.0))
    throw std::runtime_error("kswsim fleet did not start");
  for (std::size_t i = 0; i < kConns; ++i) {
    const int fd = connect_tcp(fleet->proc.port(), 5.0);
    if (fd < 0) throw std::runtime_error("cannot connect to the fleet");
    Conn c;
    c.wfd = c.rfd = fd;
    fleet->conns.push_back(std::move(c));
  }
  return fleet;
}

void closed(Fleet& fleet, const QueryGen& gen, std::uint64_t first,
            std::size_t count, const OnResponse& on_response,
            const OnSend& on_send = {}) {
  if (!run_closed(fleet.conns, gen, first, count, kWindow, kIoTimeout_s,
                  on_response, on_send))
    throw std::runtime_error("fleet connection failed or timed out");
}

double routing_imbalance(const QueryGen& gen, std::uint64_t first,
                         std::uint64_t count, Recorder& rec) {
  obs::Span s = span(rec, "fleet.shard_hash+route");
  std::vector<double> per_worker(kWorkers, 0.0);
  for (std::uint64_t i = first; i < first + count; ++i) {
    if (gen.malformed(i)) continue;
    const auto req = ksw::serve::Request::parse(gen.line(i));
    per_worker[ksw::fleet::route(ksw::fleet::shard_hash(req.query),
                                 kWorkers)] += 1.0;
  }
  const double mean = (per_worker[0] + per_worker[1]) / kWorkers;
  return *std::max_element(per_worker.begin(), per_worker.end()) / mean;
}

}  // namespace

void run_fleet(const Options& opt, Result& res, Recorder& rec) {
  if (opt.kswsim.empty() || ::access(opt.kswsim.c_str(), X_OK) != 0)
    throw std::runtime_error("--kswsim must name the kswsim binary");
  const QueryGen gen(fleet_seed(opt.seed));
  std::unique_ptr<Fleet> fleet;
  const auto ignore = [](std::uint64_t, std::string_view, Clock::time_point) {};
  res.set("setup_s", median_setup(3, [&] { fleet.reset(); }, [&](int) {
            fleet = start_fleet(opt);
            closed(*fleet, gen, 0, kWarmup, ignore);
          }));

  ResponseChecker checker(gen, opt.seed);
  const OnResponse check = [&](std::uint64_t i, std::string_view line,
                               Clock::time_point) { checker.check(i, line); };
  std::vector<double> walls;
  // /proc CPU times tick at 10 ms, too coarse for one pass: CPU is summed
  // over the closed loop and reported per pass.
  double sup_cpu = 0.0, worker_cpu = 0.0, client_cpu = 0.0, closed_wall = 0.0;
  std::uint64_t next = kWarmup;
  for (std::size_t pass = 0; pass < kClosedPasses; ++pass) {
    const double sup0 = proc_cpu_s(fleet->proc.pid());
    const double all0 = fleet->cpu_s();
    const double self0 = process_cpu_s();
    const Clock::time_point t0 = Clock::now();
    closed(*fleet, gen, next, kPass, check);
    const double wall = seconds_since(t0);
    const double all = fleet->cpu_s() - all0;
    const double sup = proc_cpu_s(fleet->proc.pid()) - sup0;
    walls.push_back(wall);
    client_cpu += process_cpu_s() - self0;
    closed_wall += wall;
    sup_cpu += sup;
    worker_cpu += all - sup;
    next += kPass;
  }
  const std::uint64_t closed_first = kWarmup, closed_end = next;

  OpenLoopStats open;
  const double open_s = std::max(1.0, kOpenShare * opt.seconds);
  if (!run_open(fleet->conns, gen, next, kOpenRate, open_s, 10.0, check,
                &open))
    std::cerr << "fleet: open loop did not finish cleanly\n";
  for (std::uint64_t i = open.answered; i < open.sent; ++i)
    checker.check(next + i, "");  // unanswered requests fail
  next += open.sent;

  if (rec.enabled()) {
    // Untraced passes alternate with passes that record a span per
    // request, from send to response.
    obs::Tracer* tracer = rec.tracer();
    std::vector<std::uint64_t> sent_ns(kPass);
    std::vector<double> plain_s, traced_s;
    for (int round = 0; round < 5; ++round) {
      Clock::time_point t0 = Clock::now();
      closed(*fleet, gen, next, kPass, check);
      plain_s.push_back(seconds_since(t0));
      next += kPass;
      const std::uint64_t first = next;
      t0 = Clock::now();
      closed(*fleet, gen, first, kPass,
             [&](std::uint64_t i, std::string_view line, Clock::time_point) {
               obs::SpanRecord span_rec;
               span_rec.name = "fleet.request";
               span_rec.span_id = tracer->next_span_id();
               span_rec.trace_id = span_rec.span_id;
               span_rec.start_ns = sent_ns[i - first];
               span_rec.dur_ns = tracer->now_ns() - span_rec.start_ns;
               tracer->emit(std::move(span_rec));
               checker.check(i, line);
             },
             [&](std::uint64_t i) { sent_ns[i - first] = tracer->now_ns(); });
      traced_s.push_back(seconds_since(t0));
      next += kPass;
    }
    res.set("trace.overhead_share", median(traced_s) / median(plain_s) - 1.0);

    // The same closed-loop requests through an in-process Service.
    ksw::serve::ServeOptions so;
    so.threads = kServeThreads;
    ksw::serve::Service svc(so);
    ResponseChecker local(gen, opt.seed);
    for (std::uint64_t f = 0; f < kWarmup; f += kPass)
      (void)serve_pass(svc, gen, f, kPass, &local);
    std::vector<double> local_walls;
    for (std::uint64_t f = closed_first; f < closed_end; f += kPass)
      local_walls.push_back(serve_pass(svc, gen, f, kPass, &local).wall_s);
    res.count(local.attempted(), local.failed());
    res.set("fleet.vs_serve_qps", median(local_walls) / median(walls));
    res.set("fleet.shard_imbalance",
            routing_imbalance(gen, closed_first, closed_end - closed_first,
                              rec));
  }

  double rss = self_peak_rss_mb() + proc_peak_rss_mb(fleet->proc.pid());
  for (const pid_t w : fleet->proc.workers()) rss += proc_peak_rss_mb(w);
  fleet.reset();

  (void)checker.verify_sample(32);
  res.count(checker.attempted(), checker.failed());
  res.set("peak_rss_mb", rss);
  res.set("fleet.supervisor_cpu_share", sup_cpu / closed_wall);
  res.set("fleet.worker_cpu_share", worker_cpu / (closed_wall * kWorkers));
  res.set("fleet.overload", static_cast<double>(checker.overload()) /
                                static_cast<double>(checker.attempted()));
  res.set("fleet.cached_flag_divergent",
          static_cast<double>(checker.divergent()) /
              static_cast<double>(checker.valid()));
  res.set("gen.late_us_p99", quantile(open.late_us, 0.99));

  std::cout << "fleet: fleet_qps " << static_cast<double>(kPass) / median(walls)
            << " (" << walls.size() << " passes of " << kPass
            << "), fleet_p50_ms " << open.window_quantile(0.5)
            << " fleet_p99_ms " << open.window_quantile(0.99)
            << " (medians of 0.5-s windows), open loop " << kOpenRate
            << " q/s x " << open.sent
            << " requests, p50 " << quantile(open.latency_ms, 0.5)
            << " ms p99 " << quantile(open.latency_ms, 0.99) << " ms, "
            << checker.overload() << " shed of " << checker.attempted()
            << "\n";
  res.set("wall_s", median(walls));
  res.set("cpu_s", (client_cpu + sup_cpu + worker_cpu) /
                       static_cast<double>(walls.size()));
}

}  // namespace perfbench
