// End-to-end serve loops: batching, response ordering, cache behavior,
// deadlines, cancellation, and the fd/socket transports.
#include "serve/service.hpp"

#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "io/json.hpp"
#include "par/cancel.hpp"

namespace ksw::serve {
namespace {

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::stringstream ss(text);
  std::string line;
  while (std::getline(ss, line)) out.push_back(line);
  return out;
}

/// The raw bytes of a response's `result` field (which render_ok splices
/// in verbatim — so equality here is byte-for-byte, not just semantic).
std::string result_bytes(const std::string& response_line) {
  const auto pos = response_line.find("\"result\":");
  if (pos == std::string::npos) return {};
  // The result object runs to the envelope's closing brace.
  return response_line.substr(pos + 9,
                              response_line.size() - pos - 9 - 1);
}

TEST(Service, FiftyRequestBatchAnswersInOrder) {
  ServeOptions opts;
  opts.threads = 4;
  opts.batch = 8;  // forces several batches
  Service service(opts);

  std::ostringstream in_text;
  for (int i = 0; i < 50; ++i) {
    if (i % 10 == 7) {
      in_text << "this is not json\n";
    } else if (i % 10 == 3) {
      in_text << R"({"kernel":"nope","id":)" << i << "}\n";
    } else {
      // Five distinct tuples, so most requests repeat an earlier one.
      in_text << R"({"kernel":"first_stage","id":)" << i
              << R"(,"params":{"p":0.)" << (i % 5 + 1) << "}}\n";
    }
  }
  std::istringstream in(in_text.str());
  std::ostringstream out;
  const ServeSummary summary = service.run(in, out, nullptr);
  EXPECT_EQ(summary.requests, 50u);
  EXPECT_EQ(summary.responses, 50u);
  EXPECT_FALSE(summary.interrupted);

  const auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    const io::Json doc = io::Json::parse(lines[static_cast<std::size_t>(i)]);
    if (i % 10 == 7) {
      // Malformed lines carry no id but still answer in position.
      EXPECT_FALSE(doc.at("ok").as_bool());
      EXPECT_EQ(doc.at("error").at("kind").as_string(), "usage");
    } else {
      EXPECT_EQ(doc.at("id").as_int(), i) << "response out of order";
      EXPECT_EQ(doc.at("ok").as_bool(), i % 10 != 3);
    }
  }

  // Five distinct tuples served 40 ok responses: the cache absorbed the
  // repeats, and hits returned bit-identical result bytes.
  EXPECT_GE(service.cache().stats().hits, 30u);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    for (std::size_t j = i + 1; j < lines.size(); ++j) {
      if (i % 10 == 3 || i % 10 == 7 || j % 10 == 3 || j % 10 == 7) continue;
      if (i % 5 == j % 5) {
        EXPECT_EQ(result_bytes(lines[i]), result_bytes(lines[j]));
      }
    }
  }
}

TEST(Service, RepeatedTupleIsServedFromCache) {
  Service service(ServeOptions{});
  std::istringstream in(
      "{\"kernel\":\"total_delay\",\"id\":\"a\"}\n"
      "{\"kernel\":\"total_delay\",\"id\":\"b\"}\n");
  std::ostringstream out;
  service.run(in, out, nullptr);
  const auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_FALSE(io::Json::parse(lines[0]).at("cached").as_bool());
  EXPECT_TRUE(io::Json::parse(lines[1]).at("cached").as_bool());
  EXPECT_EQ(result_bytes(lines[0]), result_bytes(lines[1]));
  EXPECT_EQ(service.cache().stats().hits, 1u);
  EXPECT_EQ(service.cache().stats().misses, 1u);
}

TEST(Service, FiniteBufferKernelIsDeterministicAndCached) {
  // The simulation kernels are pure functions of the (seeded) tuple:
  // a repeated request must hit the cache, and the convergence story
  // must hold — a deep buffer's accept ratio is exactly 1.
  Service service(ServeOptions{});
  const std::string tuple =
      R"("params":{"stages":3,"depth":64,"p":0.5,)"
      R"("cycles":4000,"warmup":400}})";
  std::istringstream in("{\"kernel\":\"finite_buffer\",\"id\":1," + tuple +
                        "\n{\"kernel\":\"finite_buffer\",\"id\":2," + tuple +
                        "\n");
  std::ostringstream out;
  service.run(in, out, nullptr);
  const auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 2u);
  const io::Json first = io::Json::parse(lines[0]);
  ASSERT_TRUE(first.at("ok").as_bool()) << lines[0];
  EXPECT_EQ(result_bytes(lines[0]), result_bytes(lines[1]));
  EXPECT_TRUE(io::Json::parse(lines[1]).at("cached").as_bool());
  const io::Json& result = first.at("result");
  EXPECT_EQ(result.at("depth").as_int(), 64);
  EXPECT_DOUBLE_EQ(result.at("accept_ratio").as_double(), 1.0);
  EXPECT_EQ(result.at("packets_dropped").as_int(), 0);
}

TEST(Service, BufferSweepReportsGridAndInfiniteBaseline) {
  Service service(ServeOptions{});
  std::istringstream in(
      R"({"kernel":"buffer_sweep","params":{"stages":3,"depths":[1,32],)"
      R"("p":0.7,"cycles":4000,"warmup":400}})"
      "\n");
  std::ostringstream out;
  service.run(in, out, nullptr);
  const auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 1u);
  const io::Json doc = io::Json::parse(lines[0]);
  ASSERT_TRUE(doc.at("ok").as_bool()) << lines[0];
  const io::Json& result = doc.at("result");
  ASSERT_EQ(result.at("grid").size(), 2u);
  // Shallow buffers drop traffic; depth 32 at this load accepts all of it
  // and recovers the infinite-queue waiting time exactly.
  const io::Json& shallow = result.at("grid").at(0);
  const io::Json& deep = result.at("grid").at(1);
  EXPECT_LT(shallow.at("accept_ratio").as_double(), 1.0);
  EXPECT_DOUBLE_EQ(deep.at("accept_ratio").as_double(), 1.0);
  EXPECT_DOUBLE_EQ(deep.at("mean_wait_last").as_double(),
                   result.at("infinite").at("mean_wait_last").as_double());
}

TEST(Service, DisabledCacheStillAnswersDeterministically) {
  ServeOptions opts;
  opts.cache_mb = 0;
  Service service(opts);
  std::istringstream in(
      "{\"kernel\":\"later_stages\"}\n{\"kernel\":\"later_stages\"}\n");
  std::ostringstream out;
  service.run(in, out, nullptr);
  const auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_FALSE(io::Json::parse(lines[1]).at("cached").as_bool());
  EXPECT_EQ(result_bytes(lines[0]), result_bytes(lines[1]));
  EXPECT_EQ(service.cache().stats().hits, 0u);
}

TEST(Service, ExpiredDeadlineAnswersWithoutEvaluating) {
  Service service(ServeOptions{});
  Request req = Request::parse(R"({"kernel":"first_stage","id":9})");
  ASSERT_TRUE(req.valid());
  req.deadline_ms = 1;
  req.arrival = std::chrono::steady_clock::now() -
                std::chrono::milliseconds(50);  // long past its deadline
  std::string out;
  service.serve_batch({req}, &out, nullptr);
  const io::Json doc = io::Json::parse(lines_of(out).at(0));
  EXPECT_FALSE(doc.at("ok").as_bool());
  EXPECT_EQ(doc.at("error").at("kind").as_string(), "deadline");
  EXPECT_EQ(doc.at("id").as_int(), 9);
  // The evaluation never ran, so nothing was cached or even looked up.
  EXPECT_EQ(service.cache().stats().hits + service.cache().stats().misses,
            0u);
}

TEST(Service, DefaultDeadlineFlowsIntoParsedRequests) {
  ServeOptions opts;
  opts.deadline_ms = 1234;
  Service service(opts);
  (void)service;  // deadline default is applied by run() via Request::parse
  const Request req = Request::parse(R"({"kernel":"first_stage"})", 1234);
  EXPECT_EQ(req.deadline_ms, 1234);
}

TEST(Service, CancelledTokenAnswersUnstartedRequestsAsInterrupted) {
  Service service(ServeOptions{});
  par::CancelToken cancel;
  cancel.request();
  std::vector<Request> batch;
  batch.push_back(Request::parse(R"({"kernel":"first_stage","id":1})"));
  std::string out;
  service.serve_batch(std::move(batch), &out, &cancel);
  const io::Json doc = io::Json::parse(lines_of(out).at(0));
  EXPECT_FALSE(doc.at("ok").as_bool());
  EXPECT_EQ(doc.at("error").at("kind").as_string(), "interrupted");
}

TEST(Service, RunReportsInterruptionWithoutConsumingInput) {
  Service service(ServeOptions{});
  par::CancelToken cancel;
  cancel.request();
  std::istringstream in("{\"kernel\":\"first_stage\"}\n");
  std::ostringstream out;
  const ServeSummary summary = service.run(in, out, &cancel);
  EXPECT_TRUE(summary.interrupted);
  EXPECT_EQ(summary.requests, 0u);
}

TEST(Service, EvaluationDomainFailureIsNumeric) {
  // rho = 1 at p=1 with det:2 service: the model rejects the operating
  // point — a numeric error, not a usage error (the request was valid).
  Service service(ServeOptions{});
  std::istringstream in(
      R"({"kernel":"later_stages","params":{"p":1.0,"service":"det:2"}})"
      "\n");
  std::ostringstream out;
  service.run(in, out, nullptr);
  const io::Json doc = io::Json::parse(lines_of(out.str()).at(0));
  EXPECT_FALSE(doc.at("ok").as_bool());
  EXPECT_EQ(doc.at("error").at("kind").as_string(), "numeric");
}

TEST(Service, ReportCarriesServeCountersAndCacheStats) {
  Service service(ServeOptions{});
  std::istringstream in(
      "{\"kernel\":\"first_stage\"}\n{\"kernel\":\"first_stage\"}\n");
  std::ostringstream out;
  service.run(in, out, nullptr);
  const io::Json report = service.report(/*include_wall=*/false);
  EXPECT_EQ(report.at("schema").as_string(), "ksw.obs.report/v1");
  EXPECT_EQ(report.at("command").as_string(), "serve");
  const io::Json& counters = report.at("metrics").at("counters");
  EXPECT_EQ(counters.at("serve.requests").as_int(), 2);
  EXPECT_EQ(counters.at("serve.responses.ok").as_int(), 2);
  EXPECT_EQ(counters.at("serve.cache.hits").as_int(), 1);
  EXPECT_EQ(report.at("cache").at("hits").as_int(), 1);
  EXPECT_GT(report.at("cache").at("bytes").as_int(), 0);
  EXPECT_DOUBLE_EQ(report.at("cache").at("hit_rate").as_double(), 0.5);
  EXPECT_GE(report.at("latency").at("p99_us").as_double(),
            report.at("latency").at("p50_us").as_double());
}

TEST(Service, RunFdServesAPipe) {
  int in_pipe[2];
  int out_pipe[2];
  ASSERT_EQ(::pipe(in_pipe), 0);
  ASSERT_EQ(::pipe(out_pipe), 0);
  const std::string input =
      "{\"kernel\":\"first_stage\",\"id\":1}\n"
      "{\"kernel\":\"first_stage\",\"id\":2}\n";
  ASSERT_EQ(::write(in_pipe[1], input.data(), input.size()),
            static_cast<ssize_t>(input.size()));
  ::close(in_pipe[1]);

  Service service(ServeOptions{});
  const ServeSummary summary =
      service.run_fd(in_pipe[0], out_pipe[1], nullptr);
  ::close(in_pipe[0]);
  ::close(out_pipe[1]);
  EXPECT_EQ(summary.responses, 2u);
  EXPECT_FALSE(summary.interrupted);

  std::string output;
  char buf[4096];
  ssize_t n = 0;
  while ((n = ::read(out_pipe[0], buf, sizeof buf)) > 0)
    output.append(buf, static_cast<std::size_t>(n));
  ::close(out_pipe[0]);
  const auto lines = lines_of(output);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(io::Json::parse(lines[0]).at("id").as_int(), 1);
  EXPECT_EQ(io::Json::parse(lines[1]).at("id").as_int(), 2);
  EXPECT_TRUE(io::Json::parse(lines[1]).at("cached").as_bool());
}

TEST(Service, RunFdObservesCancellationWhileBlocked) {
  int in_pipe[2];
  int out_pipe[2];
  ASSERT_EQ(::pipe(in_pipe), 0);
  ASSERT_EQ(::pipe(out_pipe), 0);
  Service service(ServeOptions{});
  par::CancelToken cancel;
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    cancel.request();
  });
  // No input ever arrives: the reader must wake up via its poll tick and
  // notice the token instead of sleeping forever.
  const ServeSummary summary =
      service.run_fd(in_pipe[0], out_pipe[1], &cancel);
  canceller.join();
  EXPECT_TRUE(summary.interrupted);
  for (const int fd : {in_pipe[0], in_pipe[1], out_pipe[0], out_pipe[1]})
    ::close(fd);
}

TEST(Service, RunListenServesASocketConnection) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("ksw_serve_test_" + std::to_string(::getpid()) + ".sock"))
          .string();
  Service service(ServeOptions{});
  par::CancelToken cancel;
  ServeSummary summary;
  std::thread server(
      [&] { summary = service.run_listen(path, &cancel); });

  // Connect (retrying until the listener is up), send two requests, read
  // both responses, then ask the server to shut down.
  int fd = -1;
  for (int attempt = 0; attempt < 100; ++attempt) {
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) == 0)
      break;
    ::close(fd);
    fd = -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_GE(fd, 0) << "could not connect to " << path;
  const std::string input =
      "{\"kernel\":\"closed_form\",\"id\":1,"
      "\"params\":{\"family\":\"uniform\"}}\n"
      "{\"kernel\":\"closed_form\",\"id\":2,"
      "\"params\":{\"family\":\"uniform\"}}\n";
  ASSERT_EQ(::write(fd, input.data(), input.size()),
            static_cast<ssize_t>(input.size()));
  ::shutdown(fd, SHUT_WR);
  std::string output;
  char buf[4096];
  ssize_t n = 0;
  while ((n = ::read(fd, buf, sizeof buf)) > 0)
    output.append(buf, static_cast<std::size_t>(n));
  ::close(fd);

  cancel.request();
  server.join();
  EXPECT_EQ(summary.responses, 2u);
  EXPECT_TRUE(summary.interrupted);  // ended by the token, as designed
  const auto lines = lines_of(output);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_TRUE(io::Json::parse(lines[1]).at("cached").as_bool());
  EXPECT_EQ(result_bytes(lines[0]), result_bytes(lines[1]));
  // The socket path is unlinked on exit.
  EXPECT_FALSE(std::filesystem::exists(path));
}

/// Connect to a Unix socket, retrying while the listener comes up.
int connect_unix(const std::string& path) {
  for (int attempt = 0; attempt < 200; ++attempt) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) == 0)
      return fd;
    ::close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return -1;
}

/// One response line from `fd`, or "" when none arrives within `budget`.
std::string read_line(int fd, std::chrono::milliseconds budget) {
  std::string line;
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (std::chrono::steady_clock::now() < deadline) {
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 50) <= 0) continue;
    char c = 0;
    if (::read(fd, &c, 1) != 1) break;
    if (c == '\n') return line;
    line.push_back(c);
  }
  return {};
}

TEST(Service, RunListenAnswersTwoConnectionsAtOnce) {
  // Client A stays connected while client B asks: B must be answered
  // without waiting for A to hang up.
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("ksw_serve_two_" + std::to_string(::getpid()) + ".sock"))
          .string();
  Service service(ServeOptions{});
  par::CancelToken cancel;
  ServeSummary summary;
  std::thread server(
      [&] { summary = service.run_listen(path, &cancel); });

  const std::string request =
      R"({"kernel":"closed_form","id":1,"params":{"family":"uniform"}})"
      "\n";
  const int a = connect_unix(path);
  ASSERT_GE(a, 0);
  ASSERT_EQ(::write(a, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  const std::string first = read_line(a, std::chrono::seconds(10));
  const int b = connect_unix(path);
  ASSERT_GE(b, 0);
  ASSERT_EQ(::write(b, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  const std::string second = read_line(b, std::chrono::seconds(5));

  cancel.request();
  ::close(a);
  ::close(b);
  server.join();
  EXPECT_NE(first.find(R"("ok":true)"), std::string::npos) << first;
  EXPECT_NE(second.find(R"("ok":true)"), std::string::npos)
      << "the second client was not answered while the first stayed "
         "connected";
  EXPECT_EQ(summary.connections, 2u);
  EXPECT_EQ(summary.responses, 2u);
}

TEST(Service, RunFdShedsPastTheAdmissionLimit) {
  // One pending request allowed: the rest of a burst read along with it
  // is answered in-band with "overload", still in request order.
  ServeOptions opts;
  opts.threads = 1;
  opts.max_pending = 1;
  Service service(opts);
  std::string input;
  for (int i = 0; i < 200; ++i)
    input += R"({"kernel":"later_stages","id":)" + std::to_string(i) +
             R"(,"params":{"k":2,"p":0.)" + std::to_string(100 + i) +
             R"(,"stage":8}})" + "\n";
  int in_pipe[2];
  int out_pipe[2];
  ASSERT_EQ(::pipe(in_pipe), 0);
  ASSERT_EQ(::pipe(out_pipe), 0);
  std::string output;
  std::thread drain([&] {
    char buf[4096];
    ssize_t n = 0;
    while ((n = ::read(out_pipe[0], buf, sizeof buf)) > 0)
      output.append(buf, static_cast<std::size_t>(n));
  });
  std::thread feed([&] {
    std::size_t done = 0;
    while (done < input.size()) {
      const ssize_t n =
          ::write(in_pipe[1], input.data() + done, input.size() - done);
      if (n <= 0) break;
      done += static_cast<std::size_t>(n);
    }
    ::close(in_pipe[1]);
  });
  const ServeSummary summary =
      service.run_fd(in_pipe[0], out_pipe[1], nullptr);
  feed.join();
  ::close(out_pipe[1]);
  drain.join();
  ::close(in_pipe[0]);
  ::close(out_pipe[0]);

  EXPECT_EQ(summary.responses, 200u);
  const auto lines = lines_of(output);
  ASSERT_EQ(lines.size(), 200u);
  int overload = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const io::Json doc = io::Json::parse(lines[i]);
    EXPECT_EQ(doc.at("id").as_int(), static_cast<std::int64_t>(i));
    if (!doc.at("ok").as_bool() &&
        doc.at("error").at("kind").as_string() == "overload")
      ++overload;
  }
  EXPECT_GT(overload, 0);
  EXPECT_LT(overload, 200);
  EXPECT_EQ(service.registry().counters().at("serve.shed.overload")->value(),
            static_cast<std::uint64_t>(overload));
}

TEST(Service, MultiThreadedRepeatedTuplesStayBitIdentical) {
  // Stress the cache through the full service path: many threads' worth
  // of parallel evaluations of a handful of tuples must all serialize to
  // the same bytes per tuple.
  ServeOptions opts;
  opts.threads = 8;
  opts.batch = 128;
  Service service(opts);
  std::ostringstream in_text;
  for (int i = 0; i < 256; ++i)
    in_text << R"({"kernel":"total_delay","id":)" << i
            << R"(,"params":{"stages":)" << (i % 4 + 2) << "}}\n";
  std::istringstream in(in_text.str());
  std::ostringstream out;
  service.run(in, out, nullptr);
  const auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 256u);
  std::vector<std::string> canonical(4);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::size_t bucket = i % 4;
    const std::string bytes = result_bytes(lines[i]);
    ASSERT_FALSE(bytes.empty()) << lines[i];
    if (canonical[bucket].empty())
      canonical[bucket] = bytes;
    else
      EXPECT_EQ(bytes, canonical[bucket]) << "tuple " << bucket;
  }
  // Concurrent workers may miss the same tuple simultaneously inside the
  // first batch, but the second batch (every tuple already cached) hits
  // throughout — and duplicate inserts never changed the served bytes.
  EXPECT_GE(service.cache().stats().misses, 4u);
  EXPECT_GE(service.cache().stats().hits, 128u);
  EXPECT_EQ(service.cache().stats().entries, 4u);
}

TEST(Service, DuplicateKeysInOneBatchAreSingleFlight) {
  // Within one multi-threaded batch, each distinct tuple is evaluated
  // once and its later duplicates read the cache: the cached flags are
  // fixed by first-occurrence order, whatever the thread timing.
  ServeOptions opts;
  opts.threads = 8;
  opts.batch = 64;
  Service service(opts);
  std::ostringstream in_text;
  for (int i = 0; i < 64; ++i)
    in_text << R"({"kernel":"total_delay","id":)" << i
            << R"(,"params":{"stages":)" << (i % 4 + 2) << "}}\n";
  std::istringstream in(in_text.str());
  std::ostringstream out;
  service.run(in, out, nullptr);
  const auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 64u);
  for (std::size_t i = 0; i < lines.size(); ++i)
    EXPECT_EQ(io::Json::parse(lines[i]).at("cached").as_bool(), i >= 4)
        << lines[i];
  EXPECT_EQ(service.cache().stats().misses, 4u);
  EXPECT_EQ(service.cache().stats().hits, 60u);
}

}  // namespace
}  // namespace ksw::serve
