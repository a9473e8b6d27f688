// Shared helpers for the table-reproduction harnesses and the perf
// probes (perf_simulator, perf_serve, perf_serve_fleet).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "io/atomic.hpp"
#include "io/json.hpp"

namespace ksw::bench {

/// Command-line options shared by every harness.
struct Options {
  /// Scale factor on simulation length: 1.0 normally, 0.1 with --quick.
  double scale = 1.0;
  std::uint64_t seed = 1;

  [[nodiscard]] std::int64_t cycles(std::int64_t base) const {
    const auto scaled = static_cast<std::int64_t>(static_cast<double>(base) *
                                                  scale);
    return scaled < 1000 ? 1000 : scaled;
  }
};

inline Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      opt.scale = 0.1;
    } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      opt.seed = std::stoull(argv[i] + 7);
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::cout << "usage: " << argv[0] << " [--quick] [--seed=N]\n"
                << "  --quick   cut simulation length 10x (smoke run)\n"
                << "  --seed=N  master RNG seed (default 1)\n";
      std::exit(0);
    } else {
      std::cerr << "unknown option: " << argv[i] << "\n";
      std::exit(2);
    }
  }
  return opt;
}

// ---------------------------------------------------------------------------
// Perf-probe helpers.
// ---------------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The value of `arg` when it spells `name=VALUE` (name includes the
/// leading dashes), else nullopt.
[[nodiscard]] inline std::optional<std::string> flag_value(
    std::string_view arg, std::string_view name) {
  if (arg.size() <= name.size() || arg.substr(0, name.size()) != name ||
      arg[name.size()] != '=')
    return std::nullopt;
  return std::string(arg.substr(name.size() + 1));
}

/// Unsigned `name=VALUE` flag parsed into `*value`; false when `arg` is
/// another flag.
inline bool size_flag(std::string_view arg, std::string_view name,
                      std::size_t* value) {
  const auto text = flag_value(arg, name);
  if (!text) return false;
  *value = static_cast<std::size_t>(std::stoul(*text));
  return true;
}

/// The p-quantile of a sample (nearest rank below); 0 when empty.
[[nodiscard]] inline double quantile(std::vector<double> sample, double p) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  return sample[static_cast<std::size_t>(
      p * static_cast<double>(sample.size() - 1))];
}

/// Print one machine-readable record line, "<name> {...}", and write the
/// record (pretty-printed) to `out_path` when it is non-empty.
inline void emit_record(const char* name, const io::Json& record,
                        const std::string& out_path = {}) {
  std::printf("%s %s\n", name, record.to_string(0).c_str());
  std::fflush(stdout);
  if (!out_path.empty())
    io::atomic_write_file(out_path, record.to_string(2) + "\n");
}

}  // namespace ksw::bench
