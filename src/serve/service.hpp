// The long-lived analytic query service behind `kswsim serve` and
// `kswsim fleet`.
//
// The service reads ksw.query/v1 JSONL requests (stdin, an arbitrary
// stream, or sockets accepted by a Listener), batches them, dispatches
// each batch across the par thread pool, and streams one JSONL response
// per request *in request order* — so correlation works with or without
// ids. Every kernel evaluation goes through the content-addressed
// EvalCache, so a repeated tuple returns bit-identical bytes without
// recomputation. The listener serves its connections concurrently, all
// of them sharing one pool and one cache.
//
// Admission control (docs/OPERATIONS.md "Overload and brownout"): with
// ServeOptions::max_pending set, at most that many requests may be read
// but not yet answered across every connection. A request read past the
// limit is answered in-band with error.kind "overload", in its
// connection's request order, instead of being queued without bound — so
// under sustained overload the service degrades to a bounded-latency
// subset of the offered load rather than collapsing into unbounded
// queueing (the heavy-tail lesson of PAPERS.md).
//
// Failure model (docs/ROBUSTNESS.md): a bad or rejected request never
// terminates the process — it answers in-band with error.kind. Only
// transport failures (kIo) and startup usage errors escape as
// ksw::Error. Cooperative cancellation (SIGINT/SIGTERM via the global
// CancelToken) stops reading, answers every already-read request
// (unstarted ones with error.kind "interrupted"), flushes, and returns
// with interrupted = true so the CLI can exit 130 after writing the
// metrics snapshot.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "par/cancel.hpp"
#include "par/thread_pool.hpp"
#include "serve/access_log.hpp"
#include "serve/cache.hpp"
#include "serve/query.hpp"

namespace ksw::serve {

struct ServeOptions {
  std::size_t threads = 0;       ///< worker threads (0 = hardware)
  std::size_t batch = 64;        ///< max requests dispatched per batch
  std::uint64_t cache_mb = 64;   ///< evaluation-cache capacity (0 = off)
  std::int64_t deadline_ms = 0;  ///< default per-request deadline (0 = none)
  /// Request-level observability (docs/SERVING.md "Request telemetry"):
  /// a JSONL access-log path ("" = off) and an optional span sink (not
  /// owned). Either one turns on trace_id generation for requests that
  /// do not carry their own.
  std::string access_log;
  obs::Tracer* tracer = nullptr;
  /// Service-wide cap on requests read but not yet answered; past it a
  /// request is shed with error.kind "overload". 0 = no cap: a
  /// connection's reader then waits for its writer instead (TCP
  /// backpressure).
  std::size_t max_pending = 0;
};

/// What a serve loop did; the CLI turns `interrupted` into exit 130
/// after flushing the metrics snapshot.
struct ServeSummary {
  std::uint64_t connections = 0;
  std::uint64_t requests = 0;
  std::uint64_t responses = 0;
  bool interrupted = false;
};

/// A bound, listening stream socket: a Unix socket path here, TCP in
/// fleet::listen_tcp. Closes the socket (and removes a Unix socket's
/// path) on destruction.
class Listener {
 public:
  /// Take ownership of a listening descriptor; `unlink_path` names a
  /// Unix socket file to remove on destruction ("" = none).
  explicit Listener(int fd, std::string unlink_path = {}) noexcept
      : fd_(fd), unlink_path_(std::move(unlink_path)) {}
  /// Bind and listen on a Unix stream socket at `path` (a stale socket
  /// file is replaced). Throws kUsage for an over-long path, kIo when the
  /// path cannot be bound.
  [[nodiscard]] static Listener unix_socket(const std::string& path);

  ~Listener();
  Listener(Listener&& other) noexcept;
  Listener& operator=(Listener&&) = delete;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  [[nodiscard]] int fd() const noexcept { return fd_; }
  /// Bound TCP port (resolves a port-0 request); 0 for a Unix socket.
  [[nodiscard]] int port() const noexcept;

 private:
  int fd_ = -1;
  std::string unlink_path_;
};

class Service {
 public:
  explicit Service(ServeOptions opts);

  /// Serve one batch: parse errors, deadline misses, cache hits, and
  /// fresh evaluations all become response lines appended to `out`
  /// (newline-terminated, in input order).
  void serve_batch(std::vector<Request> batch, std::string* out,
                   const par::CancelToken* cancel);

  /// Stream loop: getline/batch/respond until EOF. Blocking reads are
  /// not cancellation points (used by tests and regular-file input);
  /// cancellation is observed between lines.
  ServeSummary run(std::istream& in, std::ostream& out,
                   const par::CancelToken* cancel = nullptr);

  /// File-descriptor loop with a poll-based line reader, so a blocked
  /// read observes cancellation within ~200 ms (stdin under a pipe, or
  /// one accepted socket connection). The calling thread reads and
  /// parses requests while a second thread evaluates and writes batches,
  /// so the socket keeps draining during a batch — which is what lets
  /// admission control see overload instead of TCP backpressure hiding
  /// it. Responses are written to out_fd in request order; EPIPE on a
  /// socket peer ends just that connection.
  ServeSummary run_fd(int in_fd, int out_fd, const par::CancelToken* cancel);

  /// Accept loop: serves every accepted connection concurrently (a
  /// thread per connection running run_fd, at most kMaxConnections at a
  /// time; further clients wait in the listen backlog). Ends only on
  /// cancellation, after every connection has answered what it read.
  ServeSummary run_listen(const Listener& listener,
                          const par::CancelToken* cancel);
  /// run_listen on a Unix socket bound at `socket_path`.
  ServeSummary run_listen(const std::string& socket_path,
                          const par::CancelToken* cancel);

  /// Connections served at once by run_listen.
  static constexpr std::size_t kMaxConnections = 64;

  /// Structured snapshot: serve counters/timers, cache stats,
  /// p50/p99/p999 service time. Schema "ksw.obs.report/v1", command
  /// "serve". Thread-safe against a concurrent serving loop, so a
  /// metrics thread (--metrics-interval-ms) can snapshot a live
  /// service.
  [[nodiscard]] io::Json report(bool include_wall = true) const;

  [[nodiscard]] const EvalCache& cache() const noexcept { return cache_; }
  [[nodiscard]] const obs::Registry& registry() const noexcept {
    return registry_;
  }
  [[nodiscard]] const ServeOptions& options() const noexcept { return opts_; }

 private:
  /// Fresh trace id for a request that arrived without one (only called
  /// when request observability is on). Nondeterministic by design.
  [[nodiscard]] std::string generate_trace_id();

  /// Take one admission slot; false when max_pending are taken.
  [[nodiscard]] bool admit() noexcept;

  ServeOptions opts_;
  obs::Registry registry_;
  EvalCache cache_;
  par::ThreadPool pool_;
  std::unique_ptr<AccessLog> access_log_;
  std::uint64_t trace_base_ = 0;           ///< per-process id entropy
  std::atomic<std::uint64_t> trace_seq_{0};

  obs::Counter* requests_ = nullptr;
  obs::Counter* batches_ = nullptr;
  obs::Counter* ok_ = nullptr;
  obs::Counter* errors_ = nullptr;
  obs::Counter* hits_ = nullptr;
  obs::Counter* misses_ = nullptr;
  obs::Counter* shed_ = nullptr;
  obs::Counter* connections_ = nullptr;
  obs::Gauge* queue_depth_ = nullptr;
  obs::Gauge* pending_peak_ = nullptr;
  /// Requests read but not yet answered, across every connection.
  std::atomic<std::size_t> pending_{0};
  obs::Histogram* service_us_ = nullptr;
  obs::Histogram* queue_us_ = nullptr;
  obs::Timer* batch_wall_ = nullptr;
  /// Histograms are single-writer by design; this lock serializes the
  /// post-batch record loop against report() so a metrics thread can
  /// snapshot a live service without a data race.
  mutable std::mutex hist_mu_;
};

}  // namespace ksw::serve
