#include "serve/service.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstring>
#include <deque>
#include <exception>
#include <istream>
#include <iterator>
#include <list>
#include <ostream>
#include <string_view>
#include <thread>
#include <unordered_set>
#include <utility>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "obs/report.hpp"
#include "serve/kernels.hpp"
#include "support/error.hpp"

namespace ksw::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// How long a blocked poll() sleeps between cancellation checks.
constexpr int kPollMs = 200;

/// Shed requests a connection's reader may queue beyond its admitted ones
/// before it pauses: bounds the memory of a peer that stops reading.
constexpr std::size_t kShedBacklog = 4096;

/// After cancellation, how long run_listen lets its connections answer
/// what they read before it shuts their sockets down.
constexpr auto kDrainBudget = std::chrono::seconds(5);

double micros_since(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

bool deadline_expired(const Request& req) {
  if (req.deadline_ms <= 0) return false;
  return Clock::now() >
         req.arrival + std::chrono::milliseconds(req.deadline_ms);
}

/// Classify an evaluation failure into the in-band wire vocabulary.
const char* wire_kind(const std::exception& e) {
  if (const auto* typed = dynamic_cast<const ksw::Error*>(&e)) {
    switch (typed->kind()) {
      case ksw::ErrorKind::kUsage:
        return wire::kUsage;
      case ksw::ErrorKind::kNumeric:
        return wire::kNumeric;
      case ksw::ErrorKind::kInterrupted:
        return wire::kInterrupted;
      default:
        return wire::kInternal;
    }
  }
  // Request syntax was fully validated at parse time, so an
  // invalid_argument reaching evaluation is a model-domain guard (the
  // closed forms throw it for rho outside (0,1)) — a numeric error, not
  // a malformed request.
  if (dynamic_cast<const std::invalid_argument*>(&e) != nullptr)
    return wire::kNumeric;
  return wire::kInternal;
}

/// write() the whole buffer. Returns false on EPIPE/ECONNRESET (peer
/// went away); throws kIo on any other failure.
bool write_all(int fd, const std::string& data) {
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = ::write(fd, data.data() + done, data.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE || errno == ECONNRESET) return false;
      throw ksw::io_error(std::string("serve: write failed: ") +
                          std::strerror(errno));
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

/// Incremental line reader over a file descriptor. poll()s with a short
/// timeout so a blocked read observes cancellation promptly — the
/// process-wide signal handlers use SA_RESTART semantics, so a plain
/// blocking read would sleep through SIGTERM on an open pipe.
class FdLineReader {
 public:
  explicit FdLineReader(int fd) : fd_(fd) {}

  enum class Status { kLine, kEof, kCancelled };

  /// Next complete line. With wait=false, never blocks: returns kEof
  /// when no complete line is buffered and no data is instantly
  /// readable (the caller dispatches the batch it has).
  Status next_line(std::string* line, const par::CancelToken* cancel,
                   bool wait) {
    while (true) {
      if (take_buffered_line(line)) return Status::kLine;
      if (eof_) {
        if (!buf_.empty()) {  // final line without trailing newline
          line->assign(std::move(buf_));
          buf_.clear();
          return Status::kLine;
        }
        return Status::kEof;
      }
      if (cancel != nullptr && cancel->requested()) return Status::kCancelled;
      struct pollfd pfd {};
      pfd.fd = fd_;
      pfd.events = POLLIN;
      const int ready = ::poll(&pfd, 1, wait ? kPollMs : 0);
      if (ready < 0) {
        if (errno == EINTR) continue;
        throw ksw::io_error(std::string("serve: poll failed: ") +
                            std::strerror(errno));
      }
      if (ready == 0) {
        if (!wait) return Status::kEof;
        continue;  // timeout: loop re-checks the cancel token
      }
      char chunk[65536];
      const ssize_t n = ::read(fd_, chunk, sizeof chunk);
      if (n < 0) {
        if (errno == EINTR) continue;
        throw ksw::io_error(std::string("serve: read failed: ") +
                            std::strerror(errno));
      }
      if (n == 0) {
        eof_ = true;
        continue;
      }
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  [[nodiscard]] bool eof() const noexcept { return eof_ && buf_.empty(); }

 private:
  bool take_buffered_line(std::string* line) {
    const auto nl = buf_.find('\n');
    if (nl == std::string::npos) return false;
    line->assign(buf_, 0, nl);
    buf_.erase(0, nl + 1);
    return true;
  }

  int fd_;
  std::string buf_;
  bool eof_ = false;
};

}  // namespace

Service::Service(ServeOptions opts)
    : opts_(std::move(opts)),
      cache_(opts_.cache_mb * 1024 * 1024),
      pool_(opts_.threads) {
  if (!opts_.access_log.empty())
    access_log_ = std::make_unique<AccessLog>(opts_.access_log);
  // Generated trace ids must differ across processes started in the same
  // instant-ish; they carry no meaning beyond uniqueness.
  trace_base_ = obs::fnv1a64(
      std::to_string(std::chrono::system_clock::now()
                         .time_since_epoch()
                         .count()) +
      "/" + std::to_string(reinterpret_cast<std::uintptr_t>(this)));
  requests_ = &registry_.counter("serve.requests");
  batches_ = &registry_.counter("serve.batches");
  ok_ = &registry_.counter("serve.responses.ok");
  errors_ = &registry_.counter("serve.responses.error");
  hits_ = &registry_.counter("serve.cache.hits");
  misses_ = &registry_.counter("serve.cache.misses");
  shed_ = &registry_.counter("serve.shed.overload");
  connections_ = &registry_.counter("serve.connections");
  queue_depth_ = &registry_.gauge("serve.queue_depth");
  pending_peak_ = &registry_.gauge("serve.pending_peak");
  // 25 us resolution out to 10 ms; slower evaluations land in the
  // overflow tally and the quantiles report the upper edge.
  service_us_ = &registry_.histogram("serve.service_us", 0.0, 25.0, 400);
  queue_us_ = &registry_.histogram("serve.queue_us", 0.0, 25.0, 400);
  batch_wall_ = &registry_.timer("serve.batch_wall");
}

std::string Service::generate_trace_id() {
  // splitmix64 over a per-process base: unique, cheap, and clearly not a
  // simulation-derived (deterministic) quantity.
  std::uint64_t x =
      trace_base_ +
      0x9e3779b97f4a7c15ull *
          (trace_seq_.fetch_add(1, std::memory_order_relaxed) + 1);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  if (x == 0) x = 1;  // hex16 "0" doubles as "no id" elsewhere
  return obs::hex_id(x);
}

void Service::serve_batch(std::vector<Request> batch, std::string* out,
                          const par::CancelToken* cancel) {
  if (batch.empty()) return;
  const obs::ScopedTimer batch_timer(batch_wall_);
  batches_->inc();
  requests_->inc(batch.size());
  queue_depth_->record_max(static_cast<double>(batch.size()));

  // Request observability: access-log rows and per-request spans, plus
  // trace_id generation for requests that did not bring one. All of it
  // is off (and the response bytes historic) unless opted into.
  const bool observing = access_log_ != nullptr || opts_.tracer != nullptr;
  obs::Span batch_span;
  if (opts_.tracer != nullptr) {
    batch_span = opts_.tracer->span("serve.batch");
    batch_span.label("requests", std::to_string(batch.size()));
  }

  std::vector<std::string> responses(batch.size());
  // One byte per request: parallel workers write neighbouring slots, which
  // std::vector<bool>'s shared words would turn into lost updates.
  std::vector<unsigned char> succeeded(batch.size(), 0);
  std::vector<AccessEntry> entries(observing ? batch.size() : 0);
  std::vector<double> service_us(batch.size(), 0.0);
  std::vector<double> queue_us(batch.size(), 0.0);

  // Single flight: the first occurrence of each canonical key in the batch
  // is evaluated in the first parallel pass; later duplicates run in a
  // second pass, once every first occurrence has filled the cache. So a
  // duplicate's `cached` flag is a pure function of the request stream,
  // not of thread timing.
  std::vector<std::string> keys(batch.size());
  std::vector<std::size_t> firsts, repeats;
  {
    std::unordered_set<std::string_view> seen;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (batch[i].valid()) keys[i] = batch[i].query.canonical();
      const bool repeat = batch[i].valid() && !seen.insert(keys[i]).second;
      (repeat ? repeats : firsts).push_back(i);
    }
  }

  const auto serve_one = [&](std::size_t i) {
    Request& req = batch[i];
    if (observing && req.trace_id.empty())
      req.trace_id = generate_trace_id();
    const Clock::time_point start = Clock::now();
    queue_us[i] =
        std::chrono::duration<double, std::micro>(start - req.arrival)
            .count();
    obs::Span span;
    if (opts_.tracer != nullptr) {
      // Worker threads have no open parent; link the batch explicitly so
      // the request nests under it in trace viewers.
      span = obs::Span(opts_.tracer, "serve.request",
                       obs::parse_hex_id(req.trace_id) != 0
                           ? obs::parse_hex_id(req.trace_id)
                           : obs::fnv1a64(req.trace_id));
      span.label("kernel",
                 req.valid() ? kernel_name(req.query.kernel) : "invalid");
    }
    bool cached = false;
    int shard = -1;
    const char* error_kind = nullptr;
    std::string error_message;
    if (!req.valid()) {
      error_kind = wire::kUsage;  // parse-time failure, kind preserved below
      responses[i] = render_error(req.id, req.error_kind, req.error_message,
                                  req.trace_id);
    } else if (cancel != nullptr && cancel->requested()) {
      error_kind = wire::kInterrupted;
      responses[i] = render_error(req.id, wire::kInterrupted,
                                  "service is shutting down", req.trace_id);
    } else if (deadline_expired(req)) {
      error_kind = wire::kDeadline;
      responses[i] = render_error(
          req.id, wire::kDeadline,
          "deadline of " + std::to_string(req.deadline_ms) +
              " ms expired before evaluation",
          req.trace_id);
    } else {
      const std::string& key = keys[i];
      const std::uint64_t hash = fnv1a64(key);
      shard = static_cast<int>(hash % cache_.shard_count());
      if (auto hit = cache_.lookup_or_claim(hash, key)) {
        hits_->inc();
        cached = true;
        responses[i] =
            render_ok(req.id, req.query.kernel, true, *hit, req.trace_id);
        succeeded[i] = 1;
      } else {
        // This request holds the key's claim: insert() or abandon() it.
        misses_->inc();
        try {
          std::string bytes = evaluate_bytes(req.query);
          responses[i] = render_ok(req.id, req.query.kernel, false, bytes,
                                   req.trace_id);
          cache_.insert(hash, key, std::move(bytes));
          succeeded[i] = 1;
        } catch (const std::exception& e) {
          cache_.abandon(hash, key);
          error_kind = wire_kind(e);
          responses[i] =
              render_error(req.id, error_kind, e.what(), req.trace_id);
        }
      }
    }
    service_us[i] = micros_since(start);
    if (span.active()) {
      span.label("cached", cached ? "true" : "false");
      if (!succeeded[i]) span.label("error", error_kind ? error_kind : "?");
    }
    if (observing) {
      AccessEntry& entry = entries[i];
      entry.trace_id = req.trace_id;
      entry.id = req.id;
      if (req.valid()) entry.kernel = kernel_name(req.query.kernel);
      entry.ok = succeeded[i];
      if (!succeeded[i])
        entry.error_kind = req.valid() ? error_kind : req.error_kind;
      entry.cached = cached;
      entry.shard = shard;
      entry.queue_us = queue_us[i];
      entry.eval_us = service_us[i];
      entry.deadline_ms = req.deadline_ms;
    }
  };
  par::parallel_for(pool_, firsts.size(),
                    [&](std::size_t j) { serve_one(firsts[j]); });
  par::parallel_for(pool_, repeats.size(),
                    [&](std::size_t j) { serve_one(repeats[j]); });

  {
    // Histogram updates are single-writer: recorded here, after the
    // parallel section, under the lock report() shares.
    const std::lock_guard<std::mutex> lock(hist_mu_);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      service_us_->record(service_us[i]);
      queue_us_->record(queue_us[i]);
    }
  }
  for (std::size_t i = 0; i < batch.size(); ++i) {
    (succeeded[i] ? ok_ : errors_)->inc();
    out->append(responses[i]);
    out->push_back('\n');
  }
  if (access_log_ != nullptr) access_log_->write(entries);
}

ServeSummary Service::run(std::istream& in, std::ostream& out,
                          const par::CancelToken* cancel) {
  ServeSummary summary;
  std::string line;
  bool eof = false;
  while (!eof) {
    if (cancel != nullptr && cancel->requested()) {
      summary.interrupted = true;
      break;
    }
    std::vector<Request> batch;
    while (batch.size() < opts_.batch) {
      if (!std::getline(in, line)) {
        eof = true;
        break;
      }
      if (line.empty()) continue;
      batch.push_back(Request::parse(line, opts_.deadline_ms));
    }
    if (batch.empty()) continue;
    summary.requests += batch.size();
    summary.responses += batch.size();
    std::string rendered;
    serve_batch(std::move(batch), &rendered, cancel);
    out << rendered << std::flush;
  }
  if (cancel != nullptr && cancel->requested()) summary.interrupted = true;
  return summary;
}

namespace {

/// One connection's hand-off from its reader to its writer: parsed
/// requests in arrival order.
struct Inbox {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Request> queue;
  bool closed = false;  ///< the reader is done: drain, then stop
  bool dead = false;    ///< the writer cannot answer any more (peer gone)
};

}  // namespace

bool Service::admit() noexcept {
  std::size_t held = pending_.load(std::memory_order_relaxed);
  do {
    if (opts_.max_pending != 0 && held >= opts_.max_pending) return false;
  } while (!pending_.compare_exchange_weak(held, held + 1,
                                           std::memory_order_relaxed));
  pending_peak_->record_max(static_cast<double>(held + 1));
  return true;
}

ServeSummary Service::run_fd(int in_fd, int out_fd,
                             const par::CancelToken* cancel) {
  ServeSummary summary;
  Inbox inbox;
  // Without a service-wide cap the reader stays at most two batches ahead
  // of its writer; with one, it keeps reading (and shedding) so overload
  // is answered in-band rather than pushed back onto the peer.
  const std::size_t backlog = opts_.max_pending == 0
                                  ? 2 * opts_.batch
                                  : opts_.max_pending + kShedBacklog;
  std::exception_ptr reader_error, writer_error;
  // Requests that will never reach the writer give their slots back.
  const auto release = [this](const std::vector<Request>& requests) {
    for (const Request& r : requests)
      if (r.error_kind != wire::kOverload)
        pending_.fetch_sub(1, std::memory_order_relaxed);
  };

  std::thread writer([&] {
    bool answering = true;
    while (true) {
      std::vector<Request> batch;
      {
        std::unique_lock lock(inbox.mu);
        inbox.cv.wait(lock,
                      [&] { return !inbox.queue.empty() || inbox.closed; });
        if (inbox.queue.empty()) return;
        const auto take = static_cast<std::ptrdiff_t>(
            std::min(inbox.queue.size(), opts_.batch));
        batch.assign(std::make_move_iterator(inbox.queue.begin()),
                     std::make_move_iterator(inbox.queue.begin() + take));
        inbox.queue.erase(inbox.queue.begin(), inbox.queue.begin() + take);
      }
      inbox.cv.notify_all();
      const auto admitted = static_cast<std::size_t>(
          std::count_if(batch.begin(), batch.end(), [](const Request& r) {
            return r.error_kind != wire::kOverload;
          }));
      const std::size_t size = batch.size();
      if (answering) {
        try {
          std::string rendered;
          serve_batch(std::move(batch), &rendered, cancel);
          answering = write_all(out_fd, rendered);
          if (answering) summary.responses += size;
        } catch (...) {
          writer_error = std::current_exception();
          answering = false;
        }
        if (!answering) {
          const std::lock_guard lock(inbox.mu);
          inbox.dead = true;
          inbox.cv.notify_all();
        }
      }
      pending_.fetch_sub(admitted, std::memory_order_relaxed);
    }
  });

  std::vector<Request> parsed;
  try {
    FdLineReader reader(in_fd);
    std::string line;
    bool reading = true;
    while (reading) {
      // Block (cancellably) for the first line, then take whatever
      // further lines are instantly available up to the batch cap.
      parsed.clear();
      auto status = reader.next_line(&line, cancel, /*wait=*/true);
      while (status == FdLineReader::Status::kLine) {
        if (!line.empty()) {
          Request req = Request::parse(line, opts_.deadline_ms);
          if (!admit()) {
            shed_->inc();
            req.error_kind = wire::kOverload;
            req.error_message =
                "admission limit of " + std::to_string(opts_.max_pending) +
                " pending requests reached; retry later";
          }
          parsed.push_back(std::move(req));
        }
        if (parsed.size() >= opts_.batch) break;
        status = reader.next_line(&line, cancel, /*wait=*/false);
      }
      if (status == FdLineReader::Status::kCancelled) {
        summary.interrupted = true;
        reading = false;
      } else if (reader.eof()) {
        reading = false;
      }
      if (parsed.empty()) continue;
      summary.requests += parsed.size();
      std::unique_lock lock(inbox.mu);
      inbox.cv.wait(lock, [&] {
        return inbox.queue.size() < backlog || inbox.dead;
      });
      if (inbox.dead) break;  // nobody will answer these
      for (Request& r : parsed) inbox.queue.push_back(std::move(r));
      parsed.clear();
      lock.unlock();
      inbox.cv.notify_all();
    }
  } catch (...) {
    reader_error = std::current_exception();
  }
  release(parsed);
  {
    const std::lock_guard lock(inbox.mu);
    inbox.closed = true;
  }
  inbox.cv.notify_all();
  writer.join();
  if (reader_error) std::rethrow_exception(reader_error);
  if (writer_error) std::rethrow_exception(writer_error);
  if (cancel != nullptr && cancel->requested()) summary.interrupted = true;
  return summary;
}

Listener Listener::unix_socket(const std::string& path) {
  if (path.size() >= sizeof(sockaddr_un::sun_path))
    throw ksw::usage_error("--listen: socket path too long: " + path);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK,
                          0);
  if (fd < 0)
    throw ksw::io_error(std::string("--listen: socket failed: ") +
                        std::strerror(errno));
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ::unlink(path.c_str());  // stale socket from a previous run
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(fd, 64) < 0) {
    const std::string reason = std::strerror(errno);
    ::close(fd);
    throw ksw::io_error("--listen: cannot bind " + path + ": " + reason);
  }
  return Listener(fd, path);
}

Listener::Listener(Listener&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      unlink_path_(std::move(other.unlink_path_)) {
  other.unlink_path_.clear();
}

Listener::~Listener() {
  if (fd_ >= 0) ::close(fd_);
  if (!unlink_path_.empty()) ::unlink(unlink_path_.c_str());
}

int Listener::port() const noexcept {
  sockaddr_in addr{};
  socklen_t len = sizeof addr;
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0 ||
      addr.sin_family != AF_INET)
    return 0;
  return ntohs(addr.sin_port);
}

ServeSummary Service::run_listen(const std::string& socket_path,
                                 const par::CancelToken* cancel) {
  const Listener listener = Listener::unix_socket(socket_path);
  return run_listen(listener, cancel);
}

ServeSummary Service::run_listen(const Listener& listener,
                                 const par::CancelToken* cancel) {
  // A peer that disconnects mid-response must not kill the server.
  std::signal(SIGPIPE, SIG_IGN);
  struct Connection {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};
    ServeSummary summary;
  };
  std::list<Connection> live;
  ServeSummary total;
  std::string failure;
  const auto reap = [&](bool all) {
    for (auto it = live.begin(); it != live.end();) {
      if (!all && !it->done.load()) {
        ++it;
        continue;
      }
      it->thread.join();
      ::close(it->fd);
      total.requests += it->summary.requests;
      total.responses += it->summary.responses;
      it = live.erase(it);
    }
  };

  while (cancel == nullptr || !cancel->requested()) {
    reap(false);
    if (live.size() >= kMaxConnections) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    struct pollfd pfd {};
    pfd.fd = listener.fd();
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, kPollMs);
    if (ready < 0 && errno != EINTR) {
      failure = std::string("listen: poll failed: ") + std::strerror(errno);
      break;
    }
    if (ready <= 0) continue;
    const int fd = ::accept4(listener.fd(), nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) continue;  // transient accept failure; keep serving
    // Responses leave in one write per batch; do not let Nagle hold the
    // tail of one back (a no-op on Unix sockets).
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    connections_->inc();
    ++total.connections;
    Connection& conn = live.emplace_back();
    conn.fd = fd;
    conn.thread = std::thread([this, &conn, cancel] {
      try {
        conn.summary = run_fd(conn.fd, conn.fd, cancel);
      } catch (const std::exception&) {
        // A transport failure ends this connection only.
      }
      conn.done.store(true);
    });
  }

  // Cancelled (or failed): every connection answers what it has read. A
  // peer that stops reading has its socket shut down once the drain
  // budget is spent, so its blocked writer returns.
  const auto deadline = Clock::now() + kDrainBudget;
  while (Clock::now() < deadline &&
         std::any_of(live.begin(), live.end(),
                     [](const Connection& c) { return !c.done.load(); }))
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  for (const Connection& c : live)
    if (!c.done.load()) ::shutdown(c.fd, SHUT_RDWR);
  reap(true);
  if (!failure.empty()) throw ksw::io_error(failure);
  total.interrupted = true;
  return total;
}

io::Json Service::report(bool include_wall) const {
  io::Json doc = io::Json::object();
  doc.set("schema", "ksw.obs.report/v1");
  doc.set("command", "serve");

  io::Json config = io::Json::object();
  config.set("threads", static_cast<std::int64_t>(pool_.thread_count()));
  config.set("batch", static_cast<std::int64_t>(opts_.batch));
  config.set("cache_mb", static_cast<std::int64_t>(opts_.cache_mb));
  config.set("deadline_ms", opts_.deadline_ms);
  config.set("access_log", !opts_.access_log.empty());
  config.set("max_pending", static_cast<std::int64_t>(opts_.max_pending));
  doc.set("config", std::move(config));

  {
    const std::lock_guard<std::mutex> lock(hist_mu_);
    doc.set("metrics",
            obs::registry_to_json(registry_, {.include_wall = include_wall}));
  }

  const EvalCache::Stats stats = cache_.stats();
  io::Json cache = io::Json::object();
  cache.set("hits", stats.hits);
  cache.set("misses", stats.misses);
  cache.set("insertions", stats.insertions);
  cache.set("evictions", stats.evictions);
  cache.set("entries", stats.entries);
  cache.set("bytes", stats.bytes);
  cache.set("capacity_bytes", stats.capacity_bytes);
  const std::uint64_t consulted = stats.hits + stats.misses;
  cache.set("hit_rate", consulted == 0
                            ? 0.0
                            : static_cast<double>(stats.hits) /
                                  static_cast<double>(consulted));
  doc.set("cache", std::move(cache));

  {
    const std::lock_guard<std::mutex> lock(hist_mu_);
    io::Json latency = io::Json::object();
    latency.set("p50_us", service_us_->quantile(0.5));
    latency.set("p99_us", service_us_->quantile(0.99));
    latency.set("p999_us", service_us_->quantile(0.999));
    latency.set("mean_us", service_us_->mean());
    latency.set("queue_p50_us", queue_us_->quantile(0.5));
    latency.set("queue_p99_us", queue_us_->quantile(0.99));
    doc.set("latency", std::move(latency));
  }
  return doc;
}

}  // namespace ksw::serve
