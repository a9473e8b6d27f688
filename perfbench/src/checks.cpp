#include "checks.hpp"

#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>

#include "harness.hpp"
#include "serve/kernels.hpp"
#include "serve/query.hpp"

namespace perfbench {

CommittedBook load_committed_book(const std::string& root) {
  CommittedBook book;
  const auto read = [&](const std::string& rel) {
    std::ifstream in(root + "/" + rel, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    if (in) book[rel] = bytes.str();
  };
  read("docs/REPRODUCTION.md");
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(
           root + "/docs/reproduction", ec))
    if (entry.is_regular_file())
      read("docs/reproduction/" + entry.path().filename().string());
  return book;
}

BookCheck compare_book(const std::vector<ksw::sweep::Artifact>& artifacts,
                       const CommittedBook& committed) {
  BookCheck check;
  for (const ksw::sweep::Artifact& a : artifacts) {
    ++check.compared;
    const auto it = committed.find(a.path);
    if (it == committed.end() || it->second != a.content) {
      ++check.mismatched;
      check.drifted.push_back(a.path);
    }
  }
  return check;
}

namespace {

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ull;
    }
  }
  template <typename T>
  void add(const T& v) {
    bytes(&v, sizeof v);
  }
  void tally(const ksw::stats::MomentTally& t) {
    const auto raw = t.raw();
    add(raw.n);
    add(raw.s1);
    add(raw.s2);
    add(raw.s3);
    add(raw.min);
    add(raw.max);
  }
  void histogram(const ksw::stats::IntHistogram& hist) {
    add(hist.total());
    for (std::int64_t v = 0; v <= hist.max_value(); ++v) add(hist.count(v));
  }
};

std::string_view json_string_after(std::string_view line,
                                   std::string_view marker) {
  const auto at = line.find(marker);
  if (at == std::string_view::npos) return {};
  const auto start = at + marker.size();
  const auto end = line.find('"', start);
  if (end == std::string_view::npos) return {};
  return line.substr(start, end - start);
}

}  // namespace

std::uint64_t sim_digest(const ksw::sim::NetworkResults& r) {
  Fnv f;
  for (const auto& t : r.stage_wait) f.tally(t);
  for (const auto& t : r.stage_depth) f.tally(t);
  for (const auto& h : r.stage_hist) f.histogram(h);
  for (const auto& h : r.total_wait) f.histogram(h);
  f.add(r.packets_injected);
  f.add(r.packets_delivered);
  f.add(r.packets_dropped);
  return f.h;
}

Response parse_response(std::string_view line) {
  Response r;
  constexpr std::string_view kId = "{\"id\":";
  if (line.substr(0, kId.size()) != kId || line.empty() || line.back() != '}')
    return r;
  std::size_t pos = kId.size();
  if (line.substr(pos, 4) == "null") {
    pos += 4;
  } else {
    std::int64_t id = 0;
    const std::size_t digits_start = pos;
    while (pos < line.size() && line[pos] >= '0' && line[pos] <= '9')
      id = id * 10 + (line[pos++] - '0');
    if (pos == digits_start) return r;
    r.has_id = true;
    r.id = id;
  }
  constexpr std::string_view kOk = ",\"ok\":true,";
  constexpr std::string_view kErr = ",\"ok\":false,";
  if (line.substr(pos, kOk.size()) == kOk) {
    r.ok = true;
    r.cached = line.find(",\"cached\":true,", pos) != std::string_view::npos;
    constexpr std::string_view kResult = ",\"result\":";
    const auto at = line.find(kResult, pos);
    if (at == std::string_view::npos) return r;
    const auto start = at + kResult.size();
    r.result = line.substr(start, line.size() - 1 - start);
  } else if (line.substr(pos, kErr.size()) == kErr) {
    r.kind = std::string(json_string_after(line, "\"kind\":\""));
  } else {
    return r;
  }
  r.parsed = true;
  return r;
}

ResponseChecker::ResponseChecker(const QueryGen& gen,
                                 std::uint64_t sample_seed)
    : gen_(gen),
      sample_seed_(sample_seed),
      keys_(gen.universe()),
      last_seen_(gen.universe(), -1) {}

const std::string& ResponseChecker::key_of(std::size_t tuple) {
  std::string& key = keys_[tuple];
  if (key.empty())
    key = ksw::serve::Request::parse(gen_.tuple_line(tuple, 0))
              .query.canonical();
  return key;
}

void ResponseChecker::fail(std::uint64_t index, const std::string& why) {
  ++failed_;
  if (reported_++ < 5)
    std::cerr << "perfbench: request " << index << ": " << why << "\n";
}

bool ResponseChecker::check(std::uint64_t index, std::string_view line) {
  ++attempted_;
  const Response r = parse_response(line);
  const bool planted = gen_.malformed(index);
  if (!r.parsed) {
    fail(index, "unparseable response: " + std::string(line.substr(0, 120)));
    return false;
  }
  if (r.has_id ? r.id != static_cast<std::int64_t>(index) : !planted) {
    fail(index, "response out of order (id " + std::to_string(r.id) + ")");
    return false;
  }
  if (planted) {
    if (r.ok || r.kind != "usage") {
      fail(index, "malformed line answered " +
                      (r.ok ? std::string("ok") : "kind " + r.kind));
      return false;
    }
    return true;
  }
  if (!r.ok) {
    if (r.kind == "overload") ++overload_;
    fail(index, "valid request answered error kind " + r.kind);
    return false;
  }
  ++valid_;
  const std::size_t tuple = gen_.tuple_of(index);
  const std::string& key = key_of(tuple);
  const std::uint64_t hash = std::hash<std::string_view>{}(r.result);
  const auto [it, fresh] = result_hash_.try_emplace(key, hash);
  if (!fresh && it->second != hash) {
    fail(index, "result bytes differ from an earlier response for " + key);
    return false;
  }
  if (fresh && mix64(sample_seed_ ^ ksw::serve::fnv1a64(key)) % 64 == 0)
    sampled_.emplace(key, std::make_pair(tuple, std::string(r.result)));
  std::int64_t& last = last_seen_[tuple];
  if (!r.cached && last >= 0 &&
      index - static_cast<std::uint64_t>(last) <= kDivergenceWindow)
    ++divergent_;
  last = static_cast<std::int64_t>(index);
  return true;
}

std::uint64_t ResponseChecker::verify_sample(std::size_t count) {
  std::uint64_t compared = 0;
  for (const auto& [key, sample] : sampled_) {
    if (compared == count) break;
    ++compared;
    const auto& [tuple, bytes] = sample;
    const ksw::serve::Request req =
        ksw::serve::Request::parse(gen_.tuple_line(tuple, 0));
    std::string direct;
    try {
      direct = ksw::serve::evaluate_bytes(req.query);
    } catch (const std::exception& e) {
      direct = std::string("error: ") + e.what();
    }
    if (direct != bytes) {
      ++failed_;
      std::cerr << "perfbench: served bytes differ from evaluate_bytes for "
                << key << "\n";
    }
  }
  return compared;
}

}  // namespace perfbench
