// book: the whole reproduction manifest through sweep::run_sweep on a
// 2-thread par::ThreadPool, then sweep::render_book, with the artifact
// bytes compared in memory against the committed book.
//
// --seed picks the order the sections run in; the manifest's own section
// seeds are kept. Section results do not depend on that order, so every
// run must reproduce the committed bytes. Shifting the section seeds
// instead would check only the statistical gates, and those fail by
// chance at some seeds (one of 111 cells at seed 203).
#include <iostream>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>

#include "checks.hpp"
#include "par/thread_pool.hpp"
#include "sweep/emit.hpp"
#include "sweep/manifest.hpp"
#include "sweep/runner.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kThreads = 2;
/// Set-up ends with one short section (about 0.6 s, 9 points) on the new
/// pool, its result discarded, so that the pool's threads, the allocator
/// and the engine code are warm before the book. Without it set-up took
/// about 0.1 ms, file reads and thread creation, and its median moved by
/// 16% between two sets of ten runs; with the 4-point `bulk` section
/// (0.1 s) it spread by 0.20 over ten runs.
constexpr const char* kWarmupSection = "uniform";
constexpr int kSetupReps = 5;

struct Book {
  ksw::sweep::Manifest manifest;  ///< as committed; renders the book
  ksw::sweep::Manifest shuffled;  ///< the same sections in run order
  /// shuffled.sections[j] is manifest.sections[order[j]].
  std::vector<std::size_t> order;
  CommittedBook committed;
};

Book load_book(const Options& opt) {
  Book book;
  book.committed = load_committed_book(opt.root);
  book.manifest =
      ksw::sweep::load_manifest(opt.root + "/manifests/paper.json");
  const std::size_t n = book.manifest.sections.size();
  book.order.resize(n);
  std::iota(book.order.begin(), book.order.end(), std::size_t{0});
  std::uint64_t state = opt.seed;
  for (std::size_t i = n; i > 1; --i) {  // Fisher-Yates
    state = mix64(state);
    std::swap(book.order[i - 1], book.order[state % i]);
  }
  book.shuffled = book.manifest;
  for (std::size_t j = 0; j < n; ++j)
    book.shuffled.sections[j] = book.manifest.sections[book.order[j]];
  return book;
}

const ksw::sweep::Section& warmup_section(
    const ksw::sweep::Manifest& manifest) {
  for (const ksw::sweep::Section& section : manifest.sections)
    if (section.id == kWarmupSection) return section;
  throw std::runtime_error(std::string("manifest has no section ") +
                           kWarmupSection);
}

/// Section results from run order back into manifest order.
ksw::sweep::SweepResult in_manifest_order(const Book& book,
                                          ksw::sweep::SweepResult run) {
  ksw::sweep::SweepResult out;
  out.sections.resize(run.sections.size());
  for (std::size_t j = 0; j < run.sections.size(); ++j)
    out.sections[book.order[j]] = std::move(run.sections[j]);
  return out;
}

struct BookRun {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t samples = 0;
  ksw::sweep::SweepResult result;
};

/// Check one finished book: every gated cell and every artifact is one op.
void check_book(const Book& book,
                const ksw::sweep::SweepResult& result,
                const std::vector<ksw::sweep::Artifact>& artifacts,
                Result& res) {
  res.count(result.cells_gated(), result.cells_failed());
  if (result.points_degraded() > 0) {
    res.count(result.points_degraded(), result.points_degraded());
    std::cerr << "book: " << result.points_degraded() << " degraded points\n";
  }
  const BookCheck check =
      compare_book(artifacts, book.committed);
  res.count(check.compared, check.mismatched);
  std::cout << "book: " << (result.cells_gated() - result.cells_failed())
            << "/" << result.cells_gated() << " gates passed, "
            << (check.compared - check.mismatched) << "/" << check.compared
            << " artifacts byte-identical\n";
  for (const std::string& path : check.drifted)
    std::cerr << "book: artifact drifted: " << path << "\n";
}

std::uint64_t total_samples(const ksw::sweep::SweepResult& result) {
  std::uint64_t n = 0;
  for (const auto& section : result.sections)
    for (const auto& point : section.points) n += point.samples;
  return n;
}

/// One untraced book through run_sweep.
BookRun run_untraced(const Book& book, ksw::par::ThreadPool& pool) {
  BookRun run;
  const double cpu0 = process_cpu_s();
  const Clock::time_point t0 = Clock::now();
  run.result =
      in_manifest_order(book, ksw::sweep::run_sweep(book.shuffled, pool));
  run.wall_s = seconds_since(t0);
  run.cpu_s = process_cpu_s() - cpu0;
  run.samples = total_samples(run.result);
  return run;
}

/// One traced book: the same sections through sweep::run_section, each
/// inside a benchmark span (run_sweep is exactly this loop).
BookRun run_traced(const Book& book, ksw::par::ThreadPool& pool,
                   Recorder& rec, Result& res) {
  BookRun run;
  const double cpu0 = process_cpu_s();
  const Clock::time_point t0 = Clock::now();
  for (const ksw::sweep::Section& section : book.shuffled.sections) {
    obs::Span s = span(rec, "sweep.run_section");
    s.label("section", section.id);
    const Clock::time_point ts = Clock::now();
    run.result.sections.push_back(ksw::sweep::run_section(section, pool));
    res.set("sweep.section_s." + section.id, seconds_since(ts));
  }
  run.wall_s = seconds_since(t0);
  run.cpu_s = process_cpu_s() - cpu0;
  run.result = in_manifest_order(book, std::move(run.result));
  run.samples = total_samples(run.result);
  return run;
}

std::vector<ksw::sweep::Artifact> render(const Book& book,
                                         const ksw::sweep::SweepResult& r,
                                         Recorder& rec, double* secs) {
  obs::Span s = span(rec, "sweep.render_book");
  const Clock::time_point t0 = Clock::now();
  std::vector<ksw::sweep::Artifact> artifacts =
      ksw::sweep::render_book(book.manifest, r);
  *secs = seconds_since(t0);
  return artifacts;
}

}  // namespace

void run_book(const Options& opt, Result& res, Recorder& rec) {
  Book book;
  std::unique_ptr<ksw::par::ThreadPool> pool;
  // Set-up: read the committed book, parse the manifest, start the pool
  // and warm it up; the previous pool is joined outside the clock.
  res.set("setup_s", median_setup(
                         kSetupReps,
                         [&] {
                           pool.reset();
                           book = Book();
                         },
                         [&](int) {
                           book = load_book(opt);
                           pool = std::make_unique<ksw::par::ThreadPool>(
                               kThreads);
                           (void)ksw::sweep::run_section(
                               warmup_section(book.manifest), *pool);
                         }));

  std::vector<double> walls, cpus;
  const Clock::time_point start = Clock::now();
  const auto account = [&](const BookRun& run) {
    double render_s = 0.0;
    const auto artifacts = render(book, run.result, rec, &render_s);
    check_book(book, run.result, artifacts, res);
    walls.push_back(run.wall_s + render_s);
    cpus.push_back(run.cpu_s);
    return render_s;
  };
  do {
    account(run_untraced(book, *pool));
  } while (!rec.enabled() && seconds_since(start) < opt.seconds);

  if (rec.enabled()) {
    const BookRun traced = run_traced(book, *pool, rec, res);
    res.set("emit.render_s", account(traced));
    res.set("sweep.samples_per_cpu_s",
            static_cast<double>(traced.samples) / traced.cpu_s);
    res.set("par.busy_share",
            traced.cpu_s / (traced.wall_s * static_cast<double>(kThreads)));
    res.set("trace.overhead_share", walls.back() / walls.front() - 1.0);
  }
  std::cout << "book: book_s " << walls.front() << " book_cpu_s "
            << cpus.front() << " (" << walls.size() << " books)\n";
  res.set("wall_s", median(walls));
  res.set("cpu_s", median(cpus));
}

}  // namespace perfbench
