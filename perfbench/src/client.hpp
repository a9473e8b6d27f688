// Load generation over file descriptors (a pipe pair into
// serve::Service::run_fd, or TCP connections to a `kswsim fleet`), plus
// the fleet child process itself.
//
// One client thread drives every connection with poll(2). Request i goes
// to connection i % conns and responses arrive in request order on each
// connection, so the k-th response of a connection answers its k-th
// outstanding request.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include <sys/types.h>

#include "harness.hpp"

namespace perfbench {

class QueryGen;

struct Conn {
  int wfd = -1;  ///< requests are written here
  int rfd = -1;  ///< responses are read here (== wfd for a socket)
  std::string wbuf;
  std::size_t woff = 0;
  std::string rbuf;
  std::deque<std::uint64_t> inflight;  ///< request indices, in send order
};

/// Called once per response, in request order per connection.
using OnResponse = std::function<void(std::uint64_t index,
                                      std::string_view line,
                                      Clock::time_point received)>;

/// Called as request `index` is queued for sending.
using OnSend = std::function<void(std::uint64_t index)>;

/// Closed loop: send requests [first, first + count) keeping at most
/// `window` unanswered per connection. Returns false on a transport
/// failure or when `timeout_s` passes before every response arrived.
bool run_closed(std::vector<Conn>& conns, const QueryGen& gen,
                std::uint64_t first, std::size_t count, std::size_t window,
                double timeout_s, const OnResponse& on_response,
                const OnSend& on_send = {});

struct OpenLoopStats {
  std::uint64_t sent = 0;
  std::uint64_t answered = 0;
  std::vector<double> latency_ms;  ///< from each request's due time
  std::vector<std::size_t> window;  ///< kWindow_s window of each due time
  std::vector<double> late_us;      ///< send time minus due time

  /// Window length: at 2000 requests/s a window holds 1000 samples, 10 of
  /// them beyond its p99.
  static constexpr double kWindow_s = 0.5;
  /// Median over the windows of each window's p-quantile of latency, so
  /// one stall of the shared machine moves one window's value instead of
  /// the whole run's tail.
  [[nodiscard]] double window_quantile(double p) const;
};

/// Open loop: request first + j is due at start + j / rate for as long as
/// `duration_s` lasts, sent whether or not earlier ones were answered;
/// then waits (up to `drain_s`) for the remaining responses. Latency is
/// timed from the due time, so a stall also charges the requests queued
/// behind it.
bool run_open(std::vector<Conn>& conns, const QueryGen& gen,
              std::uint64_t first, double rate, double duration_s,
              double drain_s, const OnResponse& on_response,
              OpenLoopStats* stats);

/// TCP connect to 127.0.0.1:port with TCP_NODELAY; -1 on failure.
/// Fails fast (connection refused) when nothing listens.
[[nodiscard]] int connect_tcp(int port, double timeout_s);

/// CPU seconds (user + system) of a process from /proc/<pid>/stat.
[[nodiscard]] double proc_cpu_s(pid_t pid);
/// Peak resident set (VmHWM) of a process, in MB.
[[nodiscard]] double proc_peak_rss_mb(pid_t pid);

/// A `kswsim fleet` child on an ephemeral port.
class FleetProc {
 public:
  FleetProc() = default;
  FleetProc(const FleetProc&) = delete;
  FleetProc& operator=(const FleetProc&) = delete;
  ~FleetProc() { stop(); }

  /// Spawn and wait (up to `timeout_s`) for the listening banner.
  bool start(const std::string& kswsim, unsigned workers, unsigned threads,
             double timeout_s);
  /// SIGTERM, then wait for the supervisor (which reaps its workers).
  void stop();

  [[nodiscard]] int port() const noexcept { return port_; }
  [[nodiscard]] pid_t pid() const noexcept { return pid_; }
  /// Live worker pids (children of the supervisor).
  [[nodiscard]] std::vector<pid_t> workers() const;

 private:
  pid_t pid_ = -1;
  int err_fd_ = -1;
  int port_ = 0;
};

}  // namespace perfbench
