// serve: one seeded ksw.query/v1 stream into one serve::Service (2 pool
// threads, default batch of 64, default 64 MB cache).
//
//   set-up      new Service + kWarmup requests in passes of kPass
//   closed loop passes of kPass requests through Service::run -> wall_s
//   open loop   kOpenRate requests/s through Service::run_fd over a pipe
//               pair, latency from each request's due time -> p50/p99
//
// Traced runs add serve_batch rounds with spans (alternating with the
// same rounds without) and per-call spans around the hit path
// (parse, key, lookup, render), the kernels (evaluate_bytes per kernel)
// and core::FirstStage::distribution(2048).
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

#include <fcntl.h>
#include <unistd.h>

#include "client.hpp"
#include "core/first_stage.hpp"
#include "core/models.hpp"
#include "serve/cache.hpp"
#include "serve/kernels.hpp"
#include "serve/query.hpp"
#include "sim/service_spec.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace serve = ksw::serve;

namespace {

/// Keeps Service::run's output as written, one string per write (one per
/// batch). An ostringstream would regrow by doubling and then be copied
/// whole, so peak RSS would jump by tens of MB whenever a pass's output
/// crossed a power of two.
class WriteSink : public std::streambuf {
 public:
  std::vector<std::string> writes;

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    writes.emplace_back(s, static_cast<std::size_t>(n));
    return n;
  }
  int_type overflow(int_type ch) override {
    if (!traits_type::eq_int_type(ch, traits_type::eof()))
      writes.emplace_back(1, traits_type::to_char_type(ch));
    return ch;
  }
};

}  // namespace

PassTime serve_pass(serve::Service& svc, const QueryGen& gen,
                    std::uint64_t first, std::size_t count,
                    ResponseChecker* checker) {
  std::istringstream in(gen.block(first, count));
  WriteSink sink;
  std::ostream out(&sink);
  PassTime t;
  const double cpu0 = process_cpu_s();
  const Clock::time_point t0 = Clock::now();
  (void)svc.run(in, out);
  t.wall_s = seconds_since(t0);
  t.cpu_s = process_cpu_s() - cpu0;
  std::uint64_t index = first;
  std::string pending;  // a line split across writes
  for (std::string& piece : sink.writes) {
    pending += piece;
    std::string().swap(piece);
    std::size_t start = 0;
    for (std::size_t nl; (nl = pending.find('\n', start)) != std::string::npos;
         start = nl + 1)
      checker->check(index++,
                     std::string_view(pending).substr(start, nl - start));
    pending.erase(0, start);
  }
  if (index != first + count) {  // missing responses fail their requests
    for (; index < first + count; ++index) checker->check(index, "");
  }
  return t;
}

namespace {


serve::ServeOptions serve_options() {
  serve::ServeOptions o;
  o.threads = kServeThreads;
  return o;  // batch 64 and cache 64 MB are the service defaults
}

std::uint64_t responses_counted(const serve::Service& svc) {
  std::uint64_t n = 0;
  for (const auto& [name, counter] : svc.registry().counters())
    if (name == "serve.responses.ok" || name == "serve.responses.error")
      n += counter->value();
  return n;
}

/// Open loop through Service::run_fd on a pipe pair, served by its own
/// thread while this thread writes on schedule and reads responses.
OpenLoopStats open_loop(serve::Service& svc, const QueryGen& gen,
                        std::uint64_t first, double seconds,
                        ResponseChecker& checker) {
  int req[2], resp[2];
  if (::pipe(req) != 0 || ::pipe(resp) != 0)
    throw std::runtime_error("pipe failed");
  for (int fd : {req[1], resp[1]}) ::fcntl(fd, F_SETPIPE_SZ, 1 << 20);
  std::string server_error;
  std::thread server([&] {
    try {
      (void)svc.run_fd(req[0], resp[1], nullptr);
    } catch (const std::exception& e) {
      server_error = e.what();
    }
  });
  std::vector<Conn> conns(1);
  conns[0].wfd = req[1];
  conns[0].rfd = resp[0];
  OpenLoopStats stats;
  bool ok = false;
  try {
    ok = run_open(
        conns, gen, first, kOpenRate, seconds, /*drain_s=*/10.0,
        [&](std::uint64_t i, std::string_view line, Clock::time_point) {
          checker.check(i, line);
        },
        &stats);
  } catch (...) {
    ::close(req[1]);
    server.join();
    throw;
  }
  ::close(req[1]);  // EOF ends run_fd once every request is answered
  server.join();
  for (int fd : {req[0], resp[0], resp[1]}) ::close(fd);
  for (std::uint64_t i = stats.answered; i < stats.sent; ++i)
    checker.check(first + i, "");  // unanswered requests fail
  if (!ok || !server_error.empty())
    std::cerr << "serve: open loop did not finish cleanly " << server_error
              << "\n";
  return stats;
}

/// `batches` batches of 64 through serve_batch (the public call
/// Service::run makes per batch), each inside a span of `rec`; with `rec`
/// disabled the spans are no-ops. The requests are generated and parsed
/// before the clock starts and the responses checked after each call, so
/// `*busy_s` holds only serve_batch and its span. Returns the requests
/// served.
std::uint64_t batch_spans(serve::Service& svc, const QueryGen& gen,
                          std::uint64_t first, std::size_t batches,
                          Recorder& rec, ResponseChecker& checker,
                          double* busy_s) {
  constexpr std::size_t kBatch = 64;
  std::vector<std::vector<serve::Request>> parsed(batches);
  for (std::size_t b = 0; b < batches; ++b)
    for (std::size_t j = 0; j < kBatch; ++j)
      parsed[b].push_back(
          serve::Request::parse(gen.line(first + b * kBatch + j)));
  std::uint64_t index = first;
  *busy_s = 0.0;
  for (std::vector<serve::Request>& batch : parsed) {
    std::string out;
    const Clock::time_point t0 = Clock::now();
    {
      obs::Span s = span(rec, "serve.serve_batch");
      svc.serve_batch(std::move(batch), &out, nullptr);
    }
    *busy_s += seconds_since(t0);
    std::size_t pos = 0;
    for (std::size_t nl; (nl = out.find('\n', pos)) != std::string::npos;
         pos = nl + 1)
      checker.check(index++, std::string_view(out).substr(pos, nl - pos));
  }
  return index - first;
}

ksw::core::QueueSpec queue_of(const serve::Query& q) {
  std::shared_ptr<const ksw::core::ArrivalModel> arrivals;
  if (q.q > 0.0)
    arrivals = ksw::core::make_nonuniform_arrivals(q.k, q.p, q.q, q.bulk);
  else
    arrivals = ksw::core::make_bulk_arrivals(q.k, q.s, q.p, q.bulk);
  return {std::move(arrivals),
          ksw::sim::ServiceSpec::parse(q.service).to_model()};
}

/// Per-call spans around the layers of the request path, over a sample of
/// the stream (one span per call; medians reported).
void layer_probes(const QueryGen& gen, std::uint64_t first, Result& res,
                  Recorder& rec) {
  constexpr std::size_t kSample = 2000;
  std::vector<std::string> lines;
  std::vector<serve::Request> reqs;
  for (std::uint64_t i = first; reqs.size() < kSample; ++i) {
    if (gen.malformed(i)) continue;
    lines.push_back(gen.line(i));
    reqs.push_back(serve::Request::parse(lines.back()));
  }
  for (const std::string& line : lines) {
    obs::Span s = span(rec, "serve.Request::parse");
    (void)serve::Request::parse(line);
  }
  std::vector<std::string> keys;
  std::vector<std::uint64_t> hashes;
  for (const serve::Request& r : reqs) {
    obs::Span s = span(rec, "serve.canonical+fnv1a64");
    keys.push_back(r.query.canonical());
    hashes.push_back(serve::fnv1a64(keys.back()));
  }
  // Kernels: evaluate_bytes on up to 100 distinct tuples per kernel; the
  // bytes then fill a probe cache for the hit-path lookups.
  serve::EvalCache cache(64ull << 20);
  std::map<std::string, std::string> bytes_of;
  std::map<std::string, int> per_kernel;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (bytes_of.count(keys[i]) != 0) continue;
    const char* kernel = serve::kernel_name(reqs[i].query.kernel);
    if (per_kernel[kernel]++ >= 100) continue;
    obs::Span s = span(rec, (std::string("serve.evaluate_bytes.") + kernel)
                                .c_str());
    bytes_of[keys[i]] = serve::evaluate_bytes(reqs[i].query);
  }
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const auto it = bytes_of.find(keys[i]);
    if (it != bytes_of.end()) cache.insert(hashes[i], keys[i], it->second);
  }
  std::vector<std::string> hits;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (bytes_of.count(keys[i]) == 0) continue;
    obs::Span s = span(rec, "serve.EvalCache::lookup");
    if (auto hit = cache.lookup(hashes[i], keys[i])) hits.push_back(*hit);
  }
  for (std::size_t i = 0; i < hits.size(); ++i) {
    obs::Span s = span(rec, "serve.render_ok");
    (void)serve::render_ok(serve::Request().id, serve::Kernel::kFirstStage,
                           true, hits[i]);
  }
  int dists = 0;
  for (const serve::Request& r : reqs) {
    if (r.query.kernel != serve::Kernel::kFirstStage || dists++ >= 40)
      continue;
    const ksw::core::FirstStage fs(queue_of(r.query));
    obs::Span s = span(rec, "core.FirstStage::distribution");
    (void)fs.distribution(2048);
  }

  const auto med = [&](const char* name) {
    return median(rec.durations_us(name));
  };
  res.set("serve.parse_us", med("serve.Request::parse"));
  res.set("serve.key_us", med("serve.canonical+fnv1a64"));
  res.set("serve.lookup_us", med("serve.EvalCache::lookup"));
  res.set("serve.render_us", med("serve.render_ok"));
  for (const char* kernel :
       {"first_stage", "later_stages", "closed_form", "total_delay"})
    res.set(std::string("serve.eval_us.") + kernel,
            med((std::string("serve.evaluate_bytes.") + kernel).c_str()));
  res.set("core.first_stage_dist_us", med("core.FirstStage::distribution"));
}

}  // namespace

void run_serve(const Options& opt, Result& res, Recorder& rec) {
  const QueryGen gen(opt.seed);
  std::unique_ptr<serve::Service> svc;
  std::uint64_t served = 0;  // requests handed to the current service
  res.set("setup_s", median_setup(3, [&] { svc.reset(); }, [&](int) {
            svc = std::make_unique<serve::Service>(serve_options());
            ResponseChecker warm(gen, opt.seed);
            for (std::uint64_t f = 0; f < kWarmup; f += kPass)
              (void)serve_pass(*svc, gen, f, kPass, &warm);
            served = kWarmup;
          }));

  ResponseChecker checker(gen, opt.seed);
  const auto stats0 = svc->cache().stats();
  std::vector<double> walls, cpus;
  std::uint64_t next = kWarmup;
  for (std::size_t pass = 0; pass < kClosedPasses; ++pass) {
    const PassTime t = serve_pass(*svc, gen, next, kPass, &checker);
    walls.push_back(t.wall_s);
    cpus.push_back(t.cpu_s);
    next += kPass;
    served += kPass;
  }
  const auto stats1 = svc->cache().stats();

  const double open_s = std::max(1.0, kOpenShare * opt.seconds);
  const OpenLoopStats open = open_loop(*svc, gen, next, open_s, checker);
  next += open.sent;
  served += open.sent;

  if (rec.enabled()) {
    // Alternate rounds of the same call path, serve_batch on pre-parsed
    // batches, without and with spans (1024 traced batches in all, so the
    // batch p99 has 10 samples beyond it).
    constexpr std::size_t kBatches = 32;
    Recorder untraced(false);
    std::vector<double> plain_s, traced_s;
    for (int round = 0; round < 32; ++round) {
      double busy_s = 0.0;
      next += batch_spans(*svc, gen, next, kBatches, untraced, checker,
                          &busy_s);
      plain_s.push_back(busy_s);
      next += batch_spans(*svc, gen, next, kBatches, rec, checker, &busy_s);
      traced_s.push_back(busy_s);
      served += 2 * kBatches * 64;
    }
    const std::vector<double> batch_us = rec.durations_us("serve.serve_batch");
    res.set("serve.batch_us_p50", quantile(batch_us, 0.5));
    res.set("serve.batch_us_p99", quantile(batch_us, 0.99));
    res.set("trace.overhead_share", median(traced_s) / median(plain_s) - 1.0);
    layer_probes(gen, next, res, rec);
  }

  (void)checker.verify_sample(32);
  res.count(checker.attempted(), checker.failed());
  const double lookups =
      static_cast<double>((stats1.hits + stats1.misses) -
                          (stats0.hits + stats0.misses));
  res.set("serve.hit_ratio",
          static_cast<double>(stats1.hits - stats0.hits) / lookups);
  res.set("serve.evictions",
          static_cast<double>(svc->cache().stats().evictions));
  res.set("serve.cached_flag_divergent",
          static_cast<double>(checker.divergent()) /
              static_cast<double>(checker.valid()));
  const std::uint64_t counted = responses_counted(*svc);
  res.set("serve.counter_drift",
          static_cast<double>(counted > served ? counted - served
                                               : served - counted));
  res.set("gen.late_us_p99", quantile(open.late_us, 0.99));

  const double qps = static_cast<double>(kPass) / median(walls);
  std::cout << "serve: serve_qps " << qps << " (" << walls.size()
            << " passes of " << kPass << "), serve_p50_ms "
            << open.window_quantile(0.5) << " serve_p99_ms "
            << open.window_quantile(0.99)
            << " (medians of 0.5-s windows), open loop " << kOpenRate
            << " q/s x " << open.sent << " requests, latency ms p50/p90/p95/"
               "p99/p99.9 "
            << quantile(open.latency_ms, 0.5) << " "
            << quantile(open.latency_ms, 0.9) << " "
            << quantile(open.latency_ms, 0.95) << " "
            << quantile(open.latency_ms, 0.99) << " "
            << quantile(open.latency_ms, 0.999) << "\n"
            << "serve: " << checker.divergent() << " of " << checker.valid()
            << " valid responses cached:false with the key in the previous "
            << ResponseChecker::kDivergenceWindow << " requests; counter drift "
            << res.get("serve.counter_drift") << " of " << served << "\n";
  res.set("wall_s", median(walls));
  res.set("cpu_s", median(cpus));
}

}  // namespace perfbench
