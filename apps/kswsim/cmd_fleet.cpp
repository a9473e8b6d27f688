// kswsim fleet — the ksw.query/v1 service behind one TCP port.
//
//   kswsim fleet [--workers=N] [--tcp=HOST:PORT|PORT] [--queue-depth=D]
//                [--deadline-ms=MS] [--threads=T] [--batch=B]
//                [--cache-mb=MB] [--metrics-out=FILE|-]
//                [--metrics-interval-ms=MS] [--access-log=FILE]
//                [--trace-out=FILE]
//
// One process: a TCP listener in front of one serve::Service, serving any
// number of concurrent clients (up to Service::kMaxConnections at once).
// Every connection shares one thread pool of N x T threads and one
// evaluation cache, sharded by the FNV-1a hash of each request's
// canonical key, so a repeated query is a cache hit whichever connection
// it arrives on and responses are bit-identical to `kswsim serve`. At
// most N x D requests may be read but not yet answered; past that a
// request is shed in-band with error.kind "overload". --cache-mb is per
// worker (the cache holds N x MB). See docs/OPERATIONS.md for the
// operator's handbook and docs/SERVING.md for the protocol addendum.
#include <iostream>
#include <optional>
#include <ostream>
#include <string>

#include "fleet/tcp.hpp"
#include "io/atomic.hpp"
#include "io/json.hpp"
#include "kswsim/cli.hpp"
#include "kswsim/metrics_ticker.hpp"
#include "obs/span.hpp"
#include "obs/trace_export.hpp"
#include "par/cancel.hpp"
#include "serve/service.hpp"
#include "support/error.hpp"

namespace ksw::cli {

namespace {

std::int64_t get_count_fleet(const ArgMap& args, const std::string& key,
                             std::int64_t fallback) {
  const std::int64_t v = args.get_int(key, fallback);
  if (v < 0)
    throw usage_error("--" + key + ": must be non-negative (got " +
                      std::to_string(v) + ")");
  return v;
}

}  // namespace

int cmd_fleet(const ArgMap& args, std::ostream& out, std::ostream& err) {
  const auto workers =
      static_cast<std::size_t>(get_count_fleet(args, "workers", 4));
  if (workers == 0) throw usage_error("--workers: must be at least 1");
  const fleet::Endpoint endpoint =
      fleet::parse_endpoint(args.get("tcp", "127.0.0.1:0"));
  const auto queue_depth =
      static_cast<std::size_t>(get_count_fleet(args, "queue-depth", 128));
  if (queue_depth == 0)
    throw usage_error("--queue-depth: must be at least 1");
  const auto threads =
      static_cast<std::size_t>(get_count_fleet(args, "threads", 1));
  serve::ServeOptions opts;
  opts.threads = workers * threads;  // 0 stays 0: hardware threads
  opts.batch = static_cast<std::size_t>(get_count_fleet(args, "batch", 64));
  if (opts.batch == 0) throw usage_error("--batch: must be at least 1");
  opts.cache_mb = workers * static_cast<std::uint64_t>(
                                get_count_fleet(args, "cache-mb", 64));
  opts.deadline_ms = get_count_fleet(args, "deadline-ms", 0);
  opts.max_pending = workers * queue_depth;
  opts.access_log = args.get("access-log", "");
  const std::string metrics_out = args.get("metrics-out", "");
  const std::int64_t metrics_interval =
      get_count_fleet(args, "metrics-interval-ms", 0);
  const std::string trace_out = args.get("trace-out", "");

  const auto unknown = args.unused();
  if (!unknown.empty()) {
    err << "fleet: unknown option --" << unknown.front() << "\n";
    return 2;
  }
  if (metrics_interval > 0 && (metrics_out.empty() || metrics_out == "-"))
    throw usage_error(
        "--metrics-interval-ms: requires --metrics-out=FILE to write the "
        "periodic snapshots to");

  obs::Tracer tracer;
  if (!trace_out.empty()) opts.tracer = &tracer;

  const serve::Listener listener = fleet::listen_tcp(endpoint);
  serve::Service service(opts);
  // The fleet's report is the service's, under its own command name and
  // with the fleet-level configuration beside the service's.
  const auto report = [&] {
    io::Json doc = service.report();
    doc.set("command", "fleet");
    io::Json fleet = io::Json::object();
    fleet.set("workers", static_cast<std::int64_t>(workers));
    fleet.set("threads_per_worker", static_cast<std::int64_t>(threads));
    fleet.set("queue_depth", static_cast<std::int64_t>(queue_depth));
    fleet.set("host", endpoint.host);
    fleet.set("port", static_cast<std::int64_t>(listener.port()));
    doc.set("fleet", std::move(fleet));
    return doc;
  };
  err << "fleet: " << workers << " workers x " << threads
      << " threads, admission limit " << opts.max_pending
      << " pending requests\n";
  err << "fleet: listening on " << endpoint.host << ":" << listener.port()
      << "\n";

  serve::ServeSummary summary;
  {
    std::optional<MetricsTicker> ticker;
    if (metrics_interval > 0)
      ticker.emplace([&report] { return report().to_string(2) + "\n"; },
                     metrics_out, metrics_interval, err, "fleet");
    summary = service.run_listen(listener, &par::global_cancel_token());
  }

  // Snapshots are written on every path — including interrupted — so an
  // operator who SIGTERMs the fleet still gets its final counters.
  if (!metrics_out.empty()) {
    const std::string body = report().to_string(2) + "\n";
    if (metrics_out == "-")
      out << body;
    else
      io::atomic_write_file(metrics_out, body);
  }
  if (!trace_out.empty())
    io::atomic_write_file(
        trace_out,
        obs::render_trace_jsonl(tracer.snapshot(), tracer.dropped()));

  if (summary.interrupted)
    throw interrupted_error("fleet: shutdown requested (" +
                            std::to_string(summary.responses) + " of " +
                            std::to_string(summary.requests) +
                            " responses flushed, " +
                            std::to_string(summary.connections) +
                            " connections)");
  err << "fleet: " << summary.responses << " responses ("
      << summary.requests << " requests, " << summary.connections
      << " connections)\n";
  return 0;
}

}  // namespace ksw::cli
