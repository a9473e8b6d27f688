// ksw_perfbench: runs one benchmark workload and prints its record.
//
// BENCHMARK.json declares two workloads, book and sim. serve and fleet
// still run on their own, but their end-to-end numbers are too unsteady
// on a shared 4-core host to carry a bound, so a traced sim run also runs
// both (10-second runs) for the per-layer metrics of the request path.
//
//   ksw_perfbench --workload=book|sim|serve|fleet --seed=N --seconds=S
//                 --trace=0|1 [--root=DIR] [--kswsim=PATH] [--out-dir=DIR]
//                 [--git-sha=SHA] [--source-digest=HEX]
//
// stdout: a `perfbench.stamp {...}` line (machine and build facts), free
// progress lines, then one final JSON line
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// holding every end-to-end metric (--trace=0) or every per-layer metric
// (--trace=1). A traced run also writes its spans as ksw.trace/v1 JSONL
// to <out-dir>/<workload>-seed<N>.trace.jsonl.
#include <algorithm>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

bool parse_args(int argc, char** argv, perfbench::Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      std::cerr << "ksw_perfbench: expected --key=value, got " << arg << "\n";
      return false;
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    if (key == "workload") opt->workload = value;
    else if (key == "seed") opt->seed = std::stoull(value);
    else if (key == "seconds") opt->seconds = std::stod(value);
    else if (key == "trace") opt->trace = value == "1";
    else if (key == "root") opt->root = value;
    else if (key == "kswsim") opt->kswsim = value;
    else if (key == "out-dir") opt->out_dir = value;
    else if (key == "git-sha") opt->git_sha = value;
    else if (key == "source-digest") opt->source_digest = value;
    else {
      std::cerr << "ksw_perfbench: unknown option --" << key << "\n";
      return false;
    }
  }
  return opt->seconds > 0.0;
}

/// The serve and fleet workloads, traced, into `res`: their ops and the
/// per-layer metrics `res` does not hold yet (the sim run's own
/// trace.overhead_share is kept).
void request_layers(const perfbench::Options& opt, perfbench::Result& res,
                    perfbench::Recorder& rec) {
  perfbench::Options sub = opt;
  sub.seconds = std::min(opt.seconds, 10.0);
  for (auto* workload : {&perfbench::run_serve, &perfbench::run_fleet}) {
    perfbench::Result part;
    workload(sub, part, rec);
    res.count(part.attempted(), part.failed());
    for (const perfbench::MetricSpec& m : perfbench::per_layer_catalog())
      if (part.has(m.name) && !res.has(m.name))
        res.set(m.name, part.get(m.name));
  }
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  if (!parse_args(argc, argv, &opt)) return 2;
  std::cout << "perfbench.stamp " << perfbench::stamp_json(opt) << std::endl;
  perfbench::Result res;
  perfbench::Recorder rec(opt.trace);
  try {
    if (opt.workload == "book") perfbench::run_book(opt, res, rec);
    else if (opt.workload == "sim") {
      perfbench::run_sim(opt, res, rec);
      if (rec.enabled()) request_layers(opt, res, rec);
    }
    else if (opt.workload == "serve") perfbench::run_serve(opt, res, rec);
    else if (opt.workload == "fleet") perfbench::run_fleet(opt, res, rec);
    else {
      std::cerr << "ksw_perfbench: unknown workload '" << opt.workload
                << "' (book|sim|serve|fleet)\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "ksw_perfbench: " << opt.workload << ": " << e.what() << "\n";
    return 1;
  }
  if (!res.has("peak_rss_mb")) res.set("peak_rss_mb", perfbench::self_peak_rss_mb());
  if (rec.enabled()) {
    std::filesystem::create_directories(opt.out_dir);
    const std::string path = opt.out_dir + "/" + opt.workload + "-seed" +
                             std::to_string(opt.seed) + ".trace.jsonl";
    const std::size_t spans = rec.write(path);
    std::cout << "perfbench.trace " << spans << " spans -> " << path << "\n";
  }
  std::string line;
  if (!res.render(opt.trace, &line)) return 1;
  std::cout << line << std::endl;
  return 0;
}
