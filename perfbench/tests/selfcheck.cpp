// Self-checks for the benchmark's own checks and generator:
//   * flipping one byte of one book artifact fails exactly one op;
//   * a planted wrong result payload fails serve ops;
//   * a dead fleet port or a fleet that never starts fails fast;
//   * the same seed gives the same request stream bytes;
//   * no tuple generated as valid is answered `numeric` (or any error).
//
//   perfbench_selfcheck --root=<repository checkout>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "checks.hpp"
#include "client.hpp"
#include "gen.hpp"
#include "serve/kernels.hpp"
#include "serve/query.hpp"
#include "workloads.hpp"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      ++g_failures;                                                   \
      std::cerr << __FILE__ << ":" << __LINE__ << ": CHECK failed: " \
                << #cond << "\n";                                     \
    }                                                                 \
  } while (0)

using perfbench::Clock;

void book_corruption(const std::string& root) {
  const perfbench::CommittedBook committed =
      perfbench::load_committed_book(root);
  CHECK(committed.size() == 21);
  std::vector<ksw::sweep::Artifact> artifacts;
  for (const auto& [path, content] : committed)
    artifacts.push_back({path, content});
  const perfbench::BookCheck clean =
      perfbench::compare_book(artifacts, committed);
  CHECK(clean.compared == artifacts.size());
  CHECK(clean.mismatched == 0);
  artifacts[3].content[artifacts[3].content.size() / 2] ^= 0x01;
  const perfbench::BookCheck flipped =
      perfbench::compare_book(artifacts, committed);
  CHECK(flipped.mismatched == 1);
}

/// Serve a short stream cleanly, then replay its responses with the
/// payload of one popular key altered after its first occurrence.
void planted_payload() {
  const perfbench::QueryGen gen(11);
  ksw::serve::ServeOptions so;
  so.threads = 2;
  ksw::serve::Service svc(so);
  perfbench::ResponseChecker clean(gen, 11);
  (void)perfbench::serve_pass(svc, gen, 0, 3000, &clean);
  CHECK(clean.attempted() == 3000);
  CHECK(clean.failed() == 0);
  CHECK(clean.verify_sample(1000) > 0);
  CHECK(clean.failed() == 0);

  std::istringstream in(gen.block(0, 3000));
  std::ostringstream out;
  ksw::serve::Service fresh(so);
  (void)fresh.run(in, out);
  std::vector<std::string> lines;
  std::istringstream text(out.str());
  for (std::string l; std::getline(text, l);) lines.push_back(l);
  CHECK(lines.size() == 3000);

  std::map<std::size_t, int> seen;
  for (std::uint64_t i = 0; i < lines.size(); ++i)
    if (!gen.malformed(i)) ++seen[gen.tuple_of(i)];
  std::size_t victim = 0;
  for (const auto& [tuple, n] : seen)
    if (n > seen[victim]) victim = tuple;
  CHECK(seen[victim] >= 2);
  perfbench::ResponseChecker replay(gen, 11);
  bool first = true;
  for (std::uint64_t i = 0; i < lines.size(); ++i) {
    std::string line = lines[i];
    if (!gen.malformed(i) && gen.tuple_of(i) == victim) {
      if (!first) line.insert(line.find("\"result\":{") + 10, "\"x\":1,");
      first = false;
    }
    replay.check(i, line);
  }
  CHECK(replay.failed() == static_cast<std::uint64_t>(seen[victim] - 1));

  // An out-of-order response and an error on a valid line both fail.
  std::uint64_t valid = 0;
  while (gen.malformed(valid) || gen.malformed(valid + 1)) ++valid;
  perfbench::ResponseChecker order(gen, 11);
  CHECK(!order.check(valid + 1, lines[valid]));
  CHECK(!order.check(valid, "{\"id\":" + std::to_string(valid) +
                                ",\"ok\":false,\"error\":{\"kind\":"
                                "\"numeric\",\"message\":\"x\"}}"));
}

/// The sample comparison catches a payload that is wrong from the start.
void sampled_payload() {
  const perfbench::QueryGen gen(5);
  // Find a valid request whose key falls in the sample, then answer it
  // with altered bytes.
  perfbench::ResponseChecker checker(gen, 5);
  for (std::uint64_t i = 0; i < 20000; ++i) {
    if (gen.malformed(i)) continue;
    const ksw::serve::Request req =
        ksw::serve::Request::parse(gen.tuple_line(gen.tuple_of(i), i));
    std::string bytes = ksw::serve::evaluate_bytes(req.query);
    bytes.insert(1, "\"planted\":1,");
    (void)checker.check(
        i, ksw::serve::render_ok(req.id, req.query.kernel, false, bytes));
    if (checker.verify_sample(1) == 1) break;
  }
  CHECK(checker.failed() == 1);
}

void dead_fleet_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
  socklen_t len = sizeof addr;
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  const int port = ntohs(addr.sin_port);
  ::close(fd);  // bound, never listened: nothing accepts on this port
  const Clock::time_point t0 = Clock::now();
  CHECK(perfbench::connect_tcp(port, 5.0) < 0);
  CHECK(perfbench::seconds_since(t0) < 1.0);

  perfbench::FleetProc proc;
  const Clock::time_point t1 = Clock::now();
  CHECK(!proc.start("/bin/false", 2, 1, 30.0));
  CHECK(perfbench::seconds_since(t1) < 5.0);
}

void generator_determinism() {
  const perfbench::QueryGen a(42), b(42), c(43);
  CHECK(a.block(0, 5000) == b.block(0, 5000));
  CHECK(a.block(123456, 100) == b.block(123456, 100));
  CHECK(a.block(0, 5000) != c.block(0, 5000));
  std::uint64_t planted = 0;
  for (std::uint64_t i = 0; i < 100000; ++i) planted += a.malformed(i);
  CHECK(planted > 500 && planted < 1500);  // ~1% of lines
}

/// Every universe tuple of a few seeds parses and evaluates without error.
void no_valid_tuple_errors() {
  for (const std::uint64_t seed : {1ull, 2ull, 1986ull}) {
    const perfbench::QueryGen gen(seed);
    const std::size_t stride = seed == 1 ? 1 : 7;
    std::uint64_t evaluated = 0, errors = 0;
    for (std::size_t t = 0; t < gen.universe(); t += stride) {
      const ksw::serve::Request req =
          ksw::serve::Request::parse(gen.tuple_line(t, t));
      if (!req.valid()) {
        ++errors;
        std::cerr << "invalid tuple: " << gen.tuple_line(t, t) << ": "
                  << req.error_message << "\n";
        continue;
      }
      try {
        (void)ksw::serve::evaluate_bytes(req.query);
      } catch (const std::exception& e) {
        ++errors;
        std::cerr << "tuple errors: " << gen.tuple_line(t, t) << ": "
                  << e.what() << "\n";
      }
      ++evaluated;
    }
    CHECK(evaluated > 0);
    CHECK(errors == 0);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--root=", 0) == 0) root = arg.substr(7);
  }
  book_corruption(root);
  planted_payload();
  sampled_payload();
  dead_fleet_port();
  generator_determinism();
  no_valid_tuple_errors();
  if (g_failures != 0) {
    std::cerr << g_failures << " check(s) failed\n";
    return 1;
  }
  std::cout << "perfbench_selfcheck: all checks passed\n";
  return 0;
}
