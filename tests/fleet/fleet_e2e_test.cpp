// End-to-end fleet tests: spawn the real `kswsim fleet` binary (path
// baked in via KSW_KSWSIM_BIN), speak ksw.query/v1 over TCP, and pin the
// contracts docs/OPERATIONS.md promises operators:
//   - fleet responses are byte-identical to `kswsim serve`,
//   - a full admission queue sheds in-band with error.kind "overload",
//   - responses come back in per-connection request order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "par/cancel.hpp"
#include "serve/service.hpp"

namespace {

using Clock = std::chrono::steady_clock;

/// Drives one `kswsim fleet` child process: spawns it with stderr on a
/// pipe, parses the startup banner for the bound port, and SIGTERMs it
/// on teardown.
class FleetProc {
 public:
  void start(const std::vector<std::string>& extra_args) {
    int errpipe[2];
    ASSERT_EQ(::pipe(errpipe), 0);
    pid_ = ::fork();
    ASSERT_GE(pid_, 0);
    if (pid_ == 0) {
      ::close(errpipe[0]);
      ::dup2(errpipe[1], STDERR_FILENO);
      ::close(errpipe[1]);
      std::vector<std::string> args{KSW_KSWSIM_BIN, "fleet",
                                    "--tcp=127.0.0.1:0"};
      args.insert(args.end(), extra_args.begin(), extra_args.end());
      std::vector<char*> argv;
      argv.reserve(args.size() + 1);
      for (auto& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(KSW_KSWSIM_BIN, argv.data());
      ::_exit(127);
    }
    ::close(errpipe[1]);
    err_fd_ = errpipe[0];
    const int flags = ::fcntl(err_fd_, F_GETFL, 0);
    ::fcntl(err_fd_, F_SETFL, flags | O_NONBLOCK);
    ASSERT_TRUE(wait_for_banner("fleet: listening on 127.0.0.1:"))
        << "fleet did not come up; stderr so far:\n"
        << err_buf_;
    const auto pos = err_buf_.rfind("fleet: listening on 127.0.0.1:");
    port_ = std::stoi(err_buf_.substr(pos + 30));
  }

  ~FleetProc() { stop(); }

  /// SIGTERM the fleet and reap it; returns the exit code (or -signal).
  int stop() {
    if (pid_ <= 0) return last_status_;
    ::kill(pid_, SIGTERM);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    if (err_fd_ >= 0) {
      drain_stderr();
      ::close(err_fd_);
      err_fd_ = -1;
    }
    last_status_ = WIFEXITED(status)   ? WEXITSTATUS(status)
                   : WIFSIGNALED(status) ? -WTERMSIG(status)
                                         : -1;
    return last_status_;
  }

  /// Blocking TCP connect to the fleet's front door.
  int connect_client() {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port_));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(
        ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr),
        0)
        << std::strerror(errno);
    return fd;
  }

  /// Wait (bounded) until `needle` appears in the accumulated stderr.
  bool wait_for_banner(const std::string& needle,
                       std::chrono::milliseconds budget =
                           std::chrono::milliseconds(20000)) {
    const auto deadline = Clock::now() + budget;
    while (Clock::now() < deadline) {
      drain_stderr();
      if (err_buf_.find(needle) != std::string::npos) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return false;
  }

  void drain_stderr() {
    char chunk[4096];
    while (true) {
      const ssize_t n = ::read(err_fd_, chunk, sizeof chunk);
      if (n <= 0) return;
      err_buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  [[nodiscard]] int port() const { return port_; }
  [[nodiscard]] const std::string& stderr_text() const { return err_buf_; }

 private:
  pid_t pid_ = -1;
  int err_fd_ = -1;
  int port_ = 0;
  int last_status_ = -1;
  std::string err_buf_;
};

void send_all(int fd, const std::string& bytes) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    ASSERT_GT(n, 0) << std::strerror(errno);
    done += static_cast<std::size_t>(n);
  }
}

/// Read exactly `count` newline-terminated lines (bounded wait).
std::vector<std::string> read_lines(int fd, std::size_t count,
                                    std::chrono::milliseconds budget =
                                        std::chrono::milliseconds(30000)) {
  std::vector<std::string> lines;
  std::string buf;
  const auto deadline = Clock::now() + budget;
  while (lines.size() < count && Clock::now() < deadline) {
    struct pollfd pfd {
      fd, POLLIN, 0
    };
    if (::poll(&pfd, 1, 100) <= 0) continue;
    char chunk[65536];
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n <= 0) break;
    buf.append(chunk, static_cast<std::size_t>(n));
    std::size_t nl;
    while ((nl = buf.find('\n')) != std::string::npos) {
      lines.push_back(buf.substr(0, nl));
      buf.erase(0, nl + 1);
    }
  }
  return lines;
}

std::vector<std::string> request_corpus() {
  return {
      R"({"id":0,"kernel":"first_stage","params":{"k":2,"s":2,"p":0.5}})",
      R"({"id":1,"kernel":"first_stage","params":{"k":4,"s":1,"p":0.9}})",
      R"({"id":2,"kernel":"closed_form","params":{"k":2,"p":0.5,"family":"uniform"}})",
      R"({"id":3,"kernel":"later_stages","params":{"k":2,"p":0.5,"stage":6}})",
      R"({"id":4,"kernel":"total_delay","params":{"k":2,"p":0.5,"stages":4}})",
      R"({"id":5,"kernel":"first_stage","params":{"k":2,"s":2,"p":0.5}})",
      R"({"id":6,"kernel":"nope"})",
      R"(this is not json)",
      R"({"id":8,"kernel":"first_stage","params":{"k":2,"s":2,"p":1.5}})",
      R"({"id":9,"kernel":"closed_form","params":{"k":2,"p":0.5,"family":"uniform"}})",
  };
}

TEST(FleetE2E, ByteIdenticalToSingleProcessServe) {
  const auto corpus = request_corpus();

  // Reference: the exact same lines through an in-process single serve.
  std::string joined;
  for (const auto& line : corpus) joined += line + "\n";
  std::istringstream in(joined);
  std::ostringstream ref_out;
  ksw::serve::Service service(ksw::serve::ServeOptions{});
  service.run(in, ref_out, nullptr);
  std::vector<std::string> expected;
  {
    std::istringstream ref(ref_out.str());
    std::string line;
    while (std::getline(ref, line)) expected.push_back(line);
  }
  ASSERT_EQ(expected.size(), corpus.size());

  FleetProc fleet;
  fleet.start({"--workers=3"});
  const int fd = fleet.connect_client();
  send_all(fd, joined);
  const auto got = read_lines(fd, corpus.size());
  ::close(fd);
  ASSERT_EQ(got.size(), corpus.size()) << fleet.stderr_text();
  for (std::size_t i = 0; i < corpus.size(); ++i)
    EXPECT_EQ(got[i], expected[i]) << "request " << i << ": " << corpus[i];
  EXPECT_EQ(fleet.stop(), 130);  // SIGTERM drains and exits interrupted
}

TEST(FleetE2E, ConcurrentClientsEachGetOrderedResponses) {
  FleetProc fleet;
  fleet.start({"--workers=2"});

  constexpr int kClients = 4;
  constexpr int kPerClient = 25;
  std::vector<std::thread> threads;
  std::vector<std::string> failures(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([c, &fleet, &failures] {
      const int fd = fleet.connect_client();
      std::string batch;
      for (int i = 0; i < kPerClient; ++i) {
        const int id = c * 1000 + i;
        batch += R"({"id":)" + std::to_string(id) +
                 R"(,"kernel":"first_stage","params":{"k":2,"s":2,"p":0.)" +
                 std::to_string(10 + (id % 80)) + "}}\n";
      }
      send_all(fd, batch);
      const auto lines = read_lines(fd, static_cast<std::size_t>(kPerClient));
      ::close(fd);
      if (lines.size() != static_cast<std::size_t>(kPerClient)) {
        failures[c] = "client got " + std::to_string(lines.size()) +
                      " of " + std::to_string(kPerClient) + " responses";
        return;
      }
      for (int i = 0; i < kPerClient; ++i) {
        const std::string want = R"("id":)" + std::to_string(c * 1000 + i);
        if (lines[static_cast<std::size_t>(i)].find(want) ==
            std::string::npos) {
          failures[c] = "response " + std::to_string(i) +
                        " out of order: " + lines[static_cast<std::size_t>(i)];
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int c = 0; c < kClients; ++c)
    EXPECT_TRUE(failures[c].empty()) << "client " << c << ": " << failures[c];
}

TEST(FleetE2E, FullQueueShedsWithOverloadKind) {
  FleetProc fleet;
  fleet.start({"--workers=1", "--queue-depth=1"});

  const int fd = fleet.connect_client();
  // One TCP burst of many distinct requests: the reader ingests the
  // burst while the first request evaluates, so with one worker at depth
  // 1 nearly all of them must shed. Every request still gets exactly one
  // in-order response — shed-not-collapse, the brownout contract.
  constexpr int kBurst = 200;
  std::string batch;
  for (int i = 0; i < kBurst; ++i)
    batch += R"({"id":)" + std::to_string(i) +
             R"(,"kernel":"later_stages","params":{"k":2,"p":0.)" +
             std::to_string(100 + i) + R"(,"stage":8}})" + "\n";
  send_all(fd, batch);
  const auto lines = read_lines(fd, static_cast<std::size_t>(kBurst));
  ::close(fd);
  ASSERT_EQ(lines.size(), static_cast<std::size_t>(kBurst))
      << fleet.stderr_text();

  int overload = 0;
  for (int i = 0; i < kBurst; ++i) {
    const auto& line = lines[static_cast<std::size_t>(i)];
    // In-order delivery even under shedding.
    EXPECT_NE(line.find(R"("id":)" + std::to_string(i)), std::string::npos)
        << line;
    if (line.find(R"("kind":"overload")") != std::string::npos) overload++;
  }
  EXPECT_GT(overload, 0) << "queue depth 1 never shed a 200-request burst";
  EXPECT_LT(overload, kBurst) << "every request shed; none served";
  EXPECT_EQ(fleet.stop(), 130);
}

}  // namespace
