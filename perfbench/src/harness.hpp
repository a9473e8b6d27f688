// Shared plumbing for the perfbench workloads: command-line options,
// clocks, quantiles, the metric catalog, the machine/build stamp, the
// in-memory span recorder, and the one-line JSON result.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/span.hpp"

namespace perfbench {

namespace obs = ksw::obs;

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point start);
/// CPU seconds consumed by this process (all threads).
[[nodiscard]] double process_cpu_s();
/// Peak resident set of this process, in MB.
[[nodiscard]] double self_peak_rss_mb();

/// Nearest-rank quantile (p in [0, 1]) of an unsorted sample; 0 if empty.
[[nodiscard]] double quantile(std::vector<double> values, double p);
[[nodiscard]] double median(const std::vector<double>& values);

/// SplitMix64: the benchmark's own stateless mixer, so generated inputs do
/// not depend on the RNG code under test.
[[nodiscard]] std::uint64_t mix64(std::uint64_t x) noexcept;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string root = ".";       ///< repository checkout (manifest, book)
  std::string kswsim;           ///< CLI binary for the fleet workload
  std::string out_dir = ".";    ///< where traced runs write their spans
  std::string git_sha = "none";
  std::string source_digest = "none";
};

/// One metric of the catalog that BENCHMARK.json declares.
struct MetricSpec {
  std::string name;
  std::string unit;
};

/// Every end-to-end metric (printed by untraced runs of every workload).
[[nodiscard]] const std::vector<MetricSpec>& end_to_end_catalog();
/// Every per-layer metric (printed by traced runs of every workload; a
/// layer the workload bypasses reads 0).
[[nodiscard]] const std::vector<MetricSpec>& per_layer_catalog();
/// Book section ids with a per-section timing metric.
[[nodiscard]] const std::vector<std::string>& book_section_ids();
/// Simulator config names with a per-config throughput metric.
[[nodiscard]] const std::vector<std::string>& sim_config_names();

/// Outcome of one run: the correctness tallies and the metric values.
class Result {
 public:
  void set(const std::string& name, double value);
  void count(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  [[nodiscard]] std::uint64_t attempted() const noexcept {
    return attempted_;
  }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  [[nodiscard]] bool has(const std::string& name) const {
    return values_.count(name) != 0;
  }
  [[nodiscard]] double get(const std::string& name) const;

  /// The final stdout line: {"correct","attempted","failed","metrics"}
  /// with exactly the catalog for this mode. A missing or non-finite
  /// end-to-end metric is a harness bug (returns false); a per-layer
  /// metric the workload did not measure reads 0.
  [[nodiscard]] bool render(bool trace, std::string* line) const;

 private:
  std::map<std::string, double> values_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Machine and build facts printed with every record.
[[nodiscard]] std::string stamp_json(const Options& opt);

/// Span recorder for traced runs. Spans are kept in memory and written
/// once, as ksw.trace/v1 JSONL, when the run ends.
class Recorder {
 public:
  explicit Recorder(bool enabled);
  [[nodiscard]] obs::Tracer* tracer() noexcept { return tracer_.get(); }
  [[nodiscard]] bool enabled() const noexcept { return tracer_ != nullptr; }

  /// Durations in microseconds of every recorded span called `name`.
  [[nodiscard]] std::vector<double> durations_us(const std::string& name) const;
  /// Write the spans to `path`; returns the span count.
  std::size_t write(const std::string& path) const;

 private:
  std::unique_ptr<obs::Tracer> tracer_;
};

/// RAII span that is a no-op when tracing is off.
[[nodiscard]] obs::Span span(Recorder& rec, const char* name);

}  // namespace perfbench
