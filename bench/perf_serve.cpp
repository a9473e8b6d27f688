// Serve-path throughput probe: queries/sec with the evaluation cache on
// vs off, over a repeated-tuple ksw.query/v1 workload.
//
//   perf_serve [--requests=N] [--tuples=T] [--threads=W] [--quick]
//              [--out=FILE] [--no-gate] [--access-log=FILE]
//
// The workload repeats T distinct first_stage distribution queries (the
// most expensive analytic kernel) across N requests, the shape a client
// sweeping a dashboard or re-rendering a table produces. The cold
// service runs with --cache-mb=0 semantics (every request re-evaluates);
// the cached service uses the default cache, so all but the first
// occurrence of each tuple are hits returning memoized bytes.
//
// Prints a human summary plus one machine-readable line prefixed
// "BENCH_serve.json" (also written to --out=FILE when given) — including
// per-request service-time p50/p99/p999 read back from the service's
// serve.service_us histogram. --access-log additionally enables the
// request-telemetry path (JSONL access log + span tracer) so
// scripts/check_obs_overhead.sh can price it against the plain run.
// Unless --no-gate, exits 3 when the cached/cold speedup falls below
// 10x — the acceptance floor for the serving layer.
#include <cstdio>
#include <sstream>
#include <string>

#include "bench_common.hpp"
#include "io/json.hpp"
#include "obs/span.hpp"
#include "serve/service.hpp"

namespace {

struct Options {
  std::size_t requests = 2000;
  std::size_t tuples = 8;
  std::size_t threads = 0;
  std::string out_path;
  std::string access_log;
  bool gate = true;
};

/// Per-request service-time quantiles (microseconds).
struct Latency {
  double p50 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
};

std::string build_workload(const Options& opt) {
  std::ostringstream os;
  for (std::size_t i = 0; i < opt.requests; ++i) {
    // T distinct tuples, interleaved; distribution=2048 makes the cold
    // evaluation do real PGF inversion work per request.
    os << R"({"kernel":"first_stage","id":)" << i
       << R"(,"params":{"p":0.)" << (i % opt.tuples + 1)
       << R"(,"k":4,"service":"det:2","distribution":2048}})" << "\n";
  }
  return os.str();
}

double run_once(const Options& opt, std::uint64_t cache_mb,
                ksw::serve::ServeSummary* summary, Latency* latency) {
  ksw::serve::ServeOptions sopts;
  sopts.threads = opt.threads;
  sopts.cache_mb = cache_mb;
  sopts.batch = 64;
  ksw::obs::Tracer tracer;
  if (!opt.access_log.empty()) {
    sopts.access_log = opt.access_log;
    sopts.tracer = &tracer;
  }
  ksw::serve::Service service(sopts);
  std::istringstream in(build_workload(opt));
  std::ostringstream sink;
  const auto start = ksw::bench::Clock::now();
  *summary = service.run(in, sink, nullptr);
  const double wall = ksw::bench::seconds_since(start);
  const auto& hists = service.registry().histograms();
  if (const auto it = hists.find("serve.service_us"); it != hists.end()) {
    latency->p50 = it->second->quantile(0.5);
    latency->p99 = it->second->quantile(0.99);
    latency->p999 = it->second->quantile(0.999);
  }
  return wall;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      opt.requests = 300;
    } else if (arg == "--no-gate") {
      opt.gate = false;
    } else if (ksw::bench::size_flag(arg, "--requests", &opt.requests) ||
               ksw::bench::size_flag(arg, "--tuples", &opt.tuples) ||
               ksw::bench::size_flag(arg, "--threads", &opt.threads)) {
    } else if (const auto out = ksw::bench::flag_value(arg, "--out")) {
      opt.out_path = *out;
    } else if (const auto log = ksw::bench::flag_value(arg,
                                                       "--access-log")) {
      opt.access_log = *log;
    } else {
      std::fprintf(stderr,
                   "perf_serve: unknown option %s\n"
                   "usage: perf_serve [--requests=N] [--tuples=T] "
                   "[--threads=W] [--quick] [--out=FILE] [--no-gate] "
                   "[--access-log=FILE]\n",
                   arg.c_str());
      return 2;
    }
  }
  if (opt.tuples == 0 || opt.requests < opt.tuples) {
    std::fprintf(stderr, "perf_serve: need requests >= tuples >= 1\n");
    return 2;
  }

  ksw::serve::ServeSummary cold_summary;
  ksw::serve::ServeSummary cached_summary;
  Latency cold_lat;
  Latency cached_lat;
  const double cold_s = run_once(opt, /*cache_mb=*/0, &cold_summary,
                                 &cold_lat);
  const double cached_s = run_once(opt, /*cache_mb=*/64, &cached_summary,
                                   &cached_lat);

  const double qps_cold = static_cast<double>(opt.requests) / cold_s;
  const double qps_cached = static_cast<double>(opt.requests) / cached_s;
  const double speedup = qps_cached / qps_cold;

  std::printf("serve throughput (%zu requests over %zu tuples%s):\n",
              opt.requests, opt.tuples,
              opt.access_log.empty() ? "" : ", access log on");
  std::printf(
      "  cold    %.4f s  (%.3e queries/sec, cache off)  "
      "p50/p99/p999 %.1f/%.1f/%.1f us\n",
      cold_s, qps_cold, cold_lat.p50, cold_lat.p99, cold_lat.p999);
  std::printf(
      "  cached  %.4f s  (%.3e queries/sec)  "
      "p50/p99/p999 %.1f/%.1f/%.1f us\n",
      cached_s, qps_cached, cached_lat.p50, cached_lat.p99, cached_lat.p999);
  std::printf("  speedup %.1fx\n", speedup);

  ksw::io::Json j = ksw::io::Json::object();
  j.set("requests", static_cast<std::uint64_t>(opt.requests));
  j.set("tuples", static_cast<std::uint64_t>(opt.tuples));
  j.set("threads", static_cast<std::uint64_t>(opt.threads));
  j.set("cold_wall_s", cold_s);
  j.set("cached_wall_s", cached_s);
  j.set("qps_cold", qps_cold);
  j.set("qps_cached", qps_cached);
  j.set("speedup", speedup);
  j.set("responses_cold", cold_summary.responses);
  j.set("responses_cached", cached_summary.responses);
  j.set("access_log", !opt.access_log.empty());
  j.set("cold_p50_us", cold_lat.p50);
  j.set("cold_p99_us", cold_lat.p99);
  j.set("cold_p999_us", cold_lat.p999);
  j.set("cached_p50_us", cached_lat.p50);
  j.set("cached_p99_us", cached_lat.p99);
  j.set("cached_p999_us", cached_lat.p999);
  ksw::bench::emit_record("BENCH_serve.json", j, opt.out_path);

  if (opt.gate && !(speedup >= 10.0)) {
    std::fprintf(stderr,
                 "perf_serve: GATE FAILED: cached/cold speedup %.2fx < "
                 "10x floor\n",
                 speedup);
    return 3;
  }
  return 0;
}
