#include "client.hpp"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "gen.hpp"

namespace perfbench {
namespace {

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// Write as much pending output as the fd takes; false on a dead peer.
bool flush_some(Conn& c) {
  while (c.woff < c.wbuf.size()) {
    const ssize_t n =
        ::write(c.wfd, c.wbuf.data() + c.woff, c.wbuf.size() - c.woff);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      return false;
    }
    c.woff += static_cast<std::size_t>(n);
  }
  c.wbuf.clear();
  c.woff = 0;
  return true;
}

/// Read what is available and hand out complete lines; false on EOF or a
/// read error while requests are still outstanding.
bool drain_some(Conn& c, const OnResponse& on_response,
                std::uint64_t* answered) {
  char chunk[65536];
  while (true) {
    const ssize_t n = ::read(c.rfd, chunk, sizeof chunk);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return false;
    }
    if (n == 0) return c.inflight.empty();
    c.rbuf.append(chunk, static_cast<std::size_t>(n));
    if (static_cast<std::size_t>(n) < sizeof chunk) break;
  }
  const Clock::time_point now = Clock::now();
  std::size_t start = 0;
  for (std::size_t nl; (nl = c.rbuf.find('\n', start)) != std::string::npos;
       start = nl + 1) {
    if (c.inflight.empty()) return false;  // an unsolicited response
    const std::uint64_t index = c.inflight.front();
    c.inflight.pop_front();
    on_response(index, std::string_view(c.rbuf).substr(start, nl - start),
                now);
    ++*answered;
  }
  c.rbuf.erase(0, start);
  return true;
}

/// One poll round over every connection: wait up to `wait`, then flush
/// and drain whatever is ready.
bool pump(std::vector<Conn>& conns, std::chrono::nanoseconds wait,
          const OnResponse& on_response, std::uint64_t* answered) {
  std::vector<pollfd> fds;
  for (const Conn& c : conns) {
    if (c.rfd == c.wfd) {
      fds.push_back({c.rfd, static_cast<short>(
                                POLLIN | (c.wbuf.empty() ? 0 : POLLOUT)),
                     0});
    } else {
      fds.push_back({c.rfd, POLLIN, 0});
      fds.push_back({c.wfd, static_cast<short>(c.wbuf.empty() ? 0 : POLLOUT),
                     0});
    }
  }
  const auto ns = std::max<std::int64_t>(wait.count(), 0);
  const timespec ts{static_cast<time_t>(ns / 1'000'000'000),
                    static_cast<long>(ns % 1'000'000'000)};
  if (::ppoll(fds.data(), fds.size(), &ts, nullptr) < 0 && errno != EINTR)
    return false;
  for (Conn& c : conns) {
    if (!flush_some(c)) return false;
    if (!drain_some(c, on_response, answered)) return false;
  }
  return true;
}

void enqueue(Conn& c, const QueryGen& gen, std::uint64_t index) {
  c.wbuf += gen.line(index);
  c.wbuf.push_back('\n');
  c.inflight.push_back(index);
}

}  // namespace

bool run_closed(std::vector<Conn>& conns, const QueryGen& gen,
                std::uint64_t first, std::size_t count, std::size_t window,
                double timeout_s, const OnResponse& on_response,
                const OnSend& on_send) {
  for (Conn& c : conns) {
    set_nonblocking(c.wfd);
    set_nonblocking(c.rfd);
  }
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  std::uint64_t next = first;
  const std::uint64_t end = first + count;
  std::uint64_t answered = 0;
  while (answered < count) {
    while (next < end) {
      Conn& c = conns[next % conns.size()];
      if (c.inflight.size() >= window) break;
      if (on_send) on_send(next);
      enqueue(c, gen, next++);
    }
    if (!pump(conns, std::chrono::milliseconds(50), on_response, &answered))
      return false;
    if (Clock::now() > deadline) return false;
  }
  return true;
}

bool run_open(std::vector<Conn>& conns, const QueryGen& gen,
              std::uint64_t first, double rate, double duration_s,
              double drain_s, const OnResponse& on_response,
              OpenLoopStats* stats) {
  for (Conn& c : conns) {
    set_nonblocking(c.wfd);
    set_nonblocking(c.rfd);
  }
  const auto interval = std::chrono::duration<double>(1.0 / rate);
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  const auto due = [&](std::uint64_t j) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    interval * static_cast<double>(j));
  };
  const auto total = static_cast<std::uint64_t>(rate * duration_s);
  const Clock::time_point stop =
      due(total) + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(drain_s));
  std::vector<Clock::time_point> due_at;
  due_at.reserve(total);
  const OnResponse timed = [&](std::uint64_t index, std::string_view line,
                               Clock::time_point received) {
    const Clock::time_point due_time = due_at[index - first];
    stats->latency_ms.push_back(
        std::chrono::duration<double, std::milli>(received - due_time)
            .count());
    stats->window.push_back(static_cast<std::size_t>(
        std::chrono::duration<double>(due_time - t0).count() /
        OpenLoopStats::kWindow_s));
    on_response(index, line, received);
  };
  std::uint64_t j = 0;
  while (stats->answered < total || j < total) {
    const Clock::time_point now = Clock::now();
    while (j < total && due(j) <= now) {
      due_at.push_back(due(j));
      stats->late_us.push_back(
          std::chrono::duration<double, std::micro>(now - due(j)).count());
      enqueue(conns[(first + j) % conns.size()], gen, first + j);
      ++j;
    }
    stats->sent = j;
    if (now > stop) return false;
    const auto wait = j < total ? due(j) - Clock::now()
                                : std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::milliseconds(50));
    if (!pump(conns, wait, timed, &stats->answered)) return false;
  }
  return true;
}

double OpenLoopStats::window_quantile(double p) const {
  std::vector<std::vector<double>> by_window;
  for (std::size_t i = 0; i < latency_ms.size(); ++i) {
    if (window[i] >= by_window.size()) by_window.resize(window[i] + 1);
    by_window[window[i]].push_back(latency_ms[i]);
  }
  std::vector<double> per_window;
  for (const std::vector<double>& w : by_window)
    if (!w.empty()) per_window.push_back(quantile(w, p));
  return median(per_window);
}

int connect_tcp(int port, double timeout_s) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  set_nonblocking(fd);
  int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
  if (rc != 0 && errno == EINPROGRESS) {
    pollfd pfd{fd, POLLOUT, 0};
    if (::poll(&pfd, 1, static_cast<int>(timeout_s * 1000)) == 1) {
      int err = 0;
      socklen_t len = sizeof err;
      ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
      rc = err == 0 ? 0 : -1;
    }
  }
  if (rc != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

double proc_cpu_s(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const auto close = text.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(text.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  // After "pid (comm) ": state is field 3; utime and stime are 14 and 15.
  for (int i = 3; i <= 15 && fields >> field; ++i)
    if (i >= 14) ticks += std::stod(field);
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double proc_peak_rss_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  for (std::string line; std::getline(in, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
  return 0.0;
}

namespace {

bool alive(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const auto close = text.rfind(')');
  return close != std::string::npos && close + 2 < text.size() &&
         text[close + 2] != 'Z';
}

}  // namespace

bool FleetProc::start(const std::string& kswsim, unsigned workers,
                      unsigned threads, double timeout_s) {
  int errpipe[2];
  if (::pipe(errpipe) != 0) return false;
  const std::string workers_arg = "--workers=" + std::to_string(workers);
  const std::string threads_arg = "--threads=" + std::to_string(threads);
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) return false;
  if (pid_ == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGTERM);
    if (::getppid() != parent) ::_exit(127);
    ::close(errpipe[0]);
    ::dup2(errpipe[1], STDERR_FILENO);
    ::close(errpipe[1]);
    ::execl(kswsim.c_str(), kswsim.c_str(), "fleet", "--tcp=127.0.0.1:0",
            workers_arg.c_str(), threads_arg.c_str(),
            static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ::close(errpipe[1]);
  err_fd_ = errpipe[0];
  set_nonblocking(err_fd_);
  const std::string needle = "fleet: listening on 127.0.0.1:";
  std::string banner;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  while (Clock::now() < deadline) {
    pollfd pfd{err_fd_, POLLIN, 0};
    ::poll(&pfd, 1, 50);
    char chunk[4096];
    const ssize_t n = ::read(err_fd_, chunk, sizeof chunk);
    if (n > 0) banner.append(chunk, static_cast<std::size_t>(n));
    const auto pos = banner.find(needle);
    if (pos != std::string::npos &&
        banner.find('\n', pos) != std::string::npos) {
      port_ = std::stoi(banner.substr(pos + needle.size()));
      return true;
    }
    if (n == 0) break;  // the child exited before announcing
  }
  std::cerr << "perfbench: fleet did not start:\n" << banner;
  return false;
}

std::vector<pid_t> FleetProc::workers() const {
  std::vector<pid_t> out;
  if (pid_ <= 0) return out;
  std::ifstream in("/proc/" + std::to_string(pid_) + "/task/" +
                   std::to_string(pid_) + "/children");
  for (pid_t child; in >> child;) out.push_back(child);
  return out;
}

void FleetProc::stop() {
  if (pid_ > 0) {
    const std::vector<pid_t> children = workers();
    ::kill(pid_, SIGTERM);
    const auto deadline = Clock::now() + std::chrono::seconds(10);
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (Clock::now() > deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    // Workers are the supervisor's children; it stops them on SIGTERM.
    // Make sure none outlives it.
    for (const pid_t child : children) {
      const auto until = Clock::now() + std::chrono::seconds(5);
      while (alive(child) && Clock::now() < until)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      if (alive(child)) ::kill(child, SIGKILL);
    }
    pid_ = -1;
  }
  if (err_fd_ >= 0) {
    ::close(err_fd_);
    err_fd_ = -1;
  }
}

}  // namespace perfbench
