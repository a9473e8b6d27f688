#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include <sys/resource.h>

#include "io/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_export.hpp"
#include "simd/simd.hpp"

namespace perfbench {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double process_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double self_peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KB
}

double quantile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const auto idx = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double median(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  std::vector<double> v = values;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

const std::vector<std::string>& book_section_ids() {
  static const std::vector<std::string> ids = {
      "uniform",           "bulk",
      "favorite-output",   "service",
      "mm1-limit",         "stage-convergence",
      "stage-convergence-k4", "finite-buffers",
      "finite-buffers-credit", "total-delay"};
  return ids;
}

const std::vector<std::string>& sim_config_names() {
  static const std::vector<std::string> names = {
      "k2s8-r50",     "k4s4-r80",    "k4s4-r95",
      "k4s4-r80-obs", "k4s4-r80-m4", "k4s4-r80-credit4"};
  return names;
}

const std::vector<MetricSpec>& end_to_end_catalog() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"}, {"peak_rss_mb", "MB"}, {"wall_s", "s"},
      {"cpu_s", "s"}};
  return specs;
}

const std::vector<MetricSpec>& per_layer_catalog() {
  static const std::vector<MetricSpec> specs = [] {
    std::vector<MetricSpec> v;
    for (const std::string& id : book_section_ids())
      v.push_back({"sweep.section_s." + id, "s"});
    v.push_back({"sweep.samples_per_cpu_s", "1/s"});
    v.push_back({"par.busy_share", "share"});
    v.push_back({"emit.render_s", "s"});
    for (const std::string& cfg : sim_config_names())
      v.push_back({"sim.pps." + cfg, "1/s"});
    v.push_back({"sim.obs_ratio", "ratio"});
    v.push_back({"simd.inject_ns_per_port", "ns"});
    v.push_back({"simd.inject_scalar_ns_per_port", "ns"});
    v.push_back({"simd.speedup", "ratio"});
    v.push_back({"rng.philox_ns_per_block", "ns"});
    v.push_back({"core.first_stage_dist_us", "us"});
    for (const char* layer : {"parse", "key", "lookup", "render"})
      v.push_back({std::string("serve.") + layer + "_us", "us"});
    for (const char* kernel :
         {"first_stage", "later_stages", "closed_form", "total_delay"})
      v.push_back({std::string("serve.eval_us.") + kernel, "us"});
    v.push_back({"serve.batch_us_p50", "us"});
    v.push_back({"serve.batch_us_p99", "us"});
    v.push_back({"serve.hit_ratio", "share"});
    v.push_back({"serve.evictions", "count"});
    v.push_back({"serve.cached_flag_divergent", "share"});
    v.push_back({"serve.counter_drift", "count"});
    v.push_back({"gen.late_us_p99", "us"});
    v.push_back({"fleet.supervisor_cpu_share", "share"});
    v.push_back({"fleet.worker_cpu_share", "share"});
    v.push_back({"fleet.vs_serve_qps", "ratio"});
    v.push_back({"fleet.shard_imbalance", "ratio"});
    v.push_back({"fleet.overload", "share"});
    v.push_back({"fleet.cached_flag_divergent", "share"});
    v.push_back({"trace.overhead_share", "share"});
    return v;
  }();
  return specs;
}

void Result::set(const std::string& name, double value) {
  values_[name] = value;
}

double Result::get(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

bool Result::render(bool trace, std::string* line) const {
  const auto& catalog = trace ? per_layer_catalog() : end_to_end_catalog();
  std::ostringstream os;
  os.precision(12);
  bool complete = true;
  os << "{\"correct\": "
     << (failed_ == 0 && attempted_ > 0 ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    const MetricSpec& spec = catalog[i];
    const auto it = values_.find(spec.name);
    double value = 0.0;
    if (it != values_.end()) value = it->second;
    if (!trace && (it == values_.end() || !std::isfinite(value))) {
      std::cerr << "perfbench: end-to-end metric " << spec.name
                << " was not measured\n";
      complete = false;
    }
    if (!std::isfinite(value)) value = 0.0;  // a layer with no samples
    os << (i == 0 ? "" : ", ") << "\"" << spec.name
       << "\": {\"value\": " << value << ", \"unit\": \"" << spec.unit
       << "\"}";
  }
  os << "}}";
  *line = os.str();
  return complete;
}

std::string stamp_json(const Options& opt) {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string l; std::getline(cpuinfo, l);) {
    if (l.rfind("model name", 0) == 0) {
      const auto colon = l.find(':');
      if (colon != std::string::npos) cpu = l.substr(colon + 2);
      break;
    }
  }
  ksw::io::Json doc = ksw::io::Json::object();
  doc.set("schema", "perfbench.stamp/v1");
  doc.set("workload", opt.workload);
  doc.set("seed", static_cast<std::uint64_t>(opt.seed));
  doc.set("seconds", opt.seconds);
  doc.set("trace", opt.trace);
  doc.set("cpu", cpu);
  doc.set("nproc",
          static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  doc.set("simd", ksw::simd::to_string(ksw::simd::active_level()));
  doc.set("build_type", PERFBENCH_BUILD_TYPE);
  doc.set("obs_enabled", ksw::obs::kEnabled);
  doc.set("compiler", __VERSION__);
  doc.set("git_sha", opt.git_sha);
  doc.set("source_digest", opt.source_digest);
  return doc.to_string();
}

Recorder::Recorder(bool enabled) {
  // Sized for the largest traced run (fleet: ~10k spans) with headroom;
  // overflow is dropped and counted by the tracer, never blocks.
  if (enabled) tracer_ = std::make_unique<obs::Tracer>(std::size_t{1} << 15);
}

std::vector<double> Recorder::durations_us(const std::string& name) const {
  std::vector<double> out;
  if (!tracer_) return out;
  for (const obs::SpanRecord& rec : tracer_->snapshot())
    if (rec.name == name) out.push_back(1e-3 * static_cast<double>(rec.dur_ns));
  return out;
}

std::size_t Recorder::write(const std::string& path) const {
  if (!tracer_) return 0;
  std::vector<obs::SpanRecord> spans = tracer_->snapshot();
  const std::size_t n = spans.size();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << obs::render_trace_jsonl(std::move(spans), tracer_->dropped());
  if (!out) std::cerr << "perfbench: cannot write trace " << path << "\n";
  return n;
}

obs::Span span(Recorder& rec, const char* name) {
  return rec.enabled() ? rec.tracer()->span(name) : obs::Span();
}

}  // namespace perfbench
