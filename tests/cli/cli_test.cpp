#include "kswsim/cli.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "obs/metrics.hpp"
#include "support/error.hpp"

namespace ksw::cli {
namespace {

struct CliResult {
  int code;
  std::string out;
  std::string err;
};

CliResult invoke(std::vector<std::string> args) {
  std::ostringstream out, err;
  const int code = run(args, out, err);
  return {code, out.str(), err.str()};
}

// ---------------------------------------------------------------------------
// ArgMap
// ---------------------------------------------------------------------------

TEST(ArgMap, ParsesKeyValuesFlagsAndPositionals) {
  const auto args =
      ArgMap::parse({"--k=4", "--verbose", "input.txt", "--p=0.25"});
  EXPECT_EQ(args.get_unsigned("k", 0), 4u);
  EXPECT_TRUE(args.get_flag("verbose"));
  EXPECT_DOUBLE_EQ(args.get_double("p", 0.0), 0.25);
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "input.txt");
}

TEST(ArgMap, FallbacksForMissingKeys) {
  const auto args = ArgMap::parse({});
  EXPECT_EQ(args.get("missing", "dflt"), "dflt");
  EXPECT_DOUBLE_EQ(args.get_double("missing", 1.5), 1.5);
  EXPECT_EQ(args.get_int("missing", -7), -7);
  EXPECT_FALSE(args.get_flag("missing"));
}

TEST(ArgMap, RejectsMalformedInput) {
  EXPECT_THROW(ArgMap::parse({"--=x"}), ksw::Error);
  const auto args = ArgMap::parse({"--k=abc", "--f=maybe"});
  EXPECT_THROW(args.get_unsigned("k", 1), ksw::Error);
  EXPECT_THROW(args.get_flag("f"), ksw::Error);
}

TEST(ArgMap, TracksUnusedOptions) {
  const auto args = ArgMap::parse({"--used=1", "--stray=2"});
  (void)args.get_int("used", 0);
  const auto unused = args.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "stray");
}

TEST(ArgMap, OutOfRangeUnsigned) {
  const auto args = ArgMap::parse({"--n=-3"});
  EXPECT_THROW(args.get_unsigned("n", 0), ksw::Error);
}

// ---------------------------------------------------------------------------
// Service-spec parsing
// ---------------------------------------------------------------------------

TEST(ServiceParse, Deterministic) {
  EXPECT_DOUBLE_EQ(parse_service("det:4").mean(), 4.0);
  EXPECT_TRUE(parse_service("det:1").is_unit());
}

TEST(ServiceParse, Geometric) {
  EXPECT_DOUBLE_EQ(parse_service("geo:0.25").mean(), 4.0);
}

TEST(ServiceParse, MultiSize) {
  EXPECT_DOUBLE_EQ(parse_service("multi:4@0.5,8@0.5").mean(), 6.0);
}

TEST(ServiceParse, RejectsBadSpecs) {
  EXPECT_THROW(parse_service("det"), std::invalid_argument);
  EXPECT_THROW(parse_service("det:0"), std::invalid_argument);
  EXPECT_THROW(parse_service("unknown:3"), std::invalid_argument);
  EXPECT_THROW(parse_service("multi:4@0.5,8"), std::invalid_argument);
  EXPECT_THROW(parse_service("multi:4@0.5,8@0.6"), std::invalid_argument);
  EXPECT_THROW(parse_service("geo:2.0"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Command dispatch and end-to-end behavior
// ---------------------------------------------------------------------------

TEST(Run, NoArgsPrintsUsageWithError) {
  const auto r = invoke({});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.out.find("usage: kswsim"), std::string::npos);
}

TEST(Run, HelpExitsZero) {
  EXPECT_EQ(invoke({"--help"}).code, 0);
  EXPECT_EQ(invoke({"analyze", "--help"}).code, 0);
}

TEST(Run, UnknownCommandFails) {
  const auto r = invoke({"frobnicate"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown command"), std::string::npos);
}

TEST(Run, UnknownOptionFails) {
  const auto r = invoke({"analyze", "--bogus=1"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--bogus"), std::string::npos);
}

TEST(Analyze, TableOutputContainsPaperValues) {
  const auto r = invoke({"analyze", "--k=2", "--p=0.5"});
  EXPECT_EQ(r.code, 0);
  // eqs. 6 and 7 at this operating point: both 0.25.
  EXPECT_NE(r.out.find("0.250000"), std::string::npos);
  EXPECT_NE(r.out.find("E[wait]"), std::string::npos);
}

TEST(Analyze, JsonOutputIsWellFormedAndAccurate) {
  const auto r = invoke({"analyze", "--k=2", "--p=0.5", "--format=json"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("\"mean_wait\": 0.25"), std::string::npos);
  EXPECT_NE(r.out.find("\"rho\": 0.5"), std::string::npos);
}

TEST(Analyze, DistributionOption) {
  const auto r = invoke(
      {"analyze", "--k=2", "--p=0.5", "--distribution=4", "--format=csv"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("P(w=0)"), std::string::npos);
  EXPECT_NE(r.out.find("P(w=3)"), std::string::npos);
}

TEST(Analyze, UnstableLoadReportsError) {
  const auto r = invoke({"analyze", "--k=2", "--p=1.0"});
  EXPECT_EQ(r.code, 6);  // numeric error (saturated queue)
  EXPECT_NE(r.err.find("rho"), std::string::npos);
}

TEST(Analyze, NonuniformRequiresSquareSwitch) {
  const auto r = invoke({"analyze", "--k=4", "--s=2", "--q=0.5"});
  EXPECT_EQ(r.code, 2);  // usage error
  EXPECT_NE(r.err.find("k == s"), std::string::npos);
}

TEST(Network, TableListsAllStagesAndTotals) {
  const auto r = invoke({"network", "--stages=5"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("E[total wait]"), std::string::npos);
  EXPECT_NE(r.out.find("p99 wait"), std::string::npos);
}

TEST(Network, CsvHasOneRowPerStagePlusTotal) {
  const auto r = invoke({"network", "--stages=4", "--format=csv"});
  EXPECT_EQ(r.code, 0);
  int lines = 0;
  for (char c : r.out)
    if (c == '\n') ++lines;
  EXPECT_EQ(lines, 1 + 4 + 1);  // header + stages + total
}

TEST(Network, CustomQuantiles) {
  const auto r = invoke({"network", "--stages=3", "--quantiles=0.5"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("p50 wait"), std::string::npos);
  const auto bad = invoke({"network", "--quantiles=1.5"});
  EXPECT_EQ(bad.code, 2);  // usage error
}

TEST(Network, FractionalQuantileLabels) {
  const auto r = invoke({"network", "--stages=3", "--quantiles=0.999"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("p99.9 wait"), std::string::npos);
  EXPECT_EQ(r.out.find("p100"), std::string::npos);
}

TEST(Simulate, SmallRunProducesStats) {
  const auto r = invoke({"simulate", "--stages=3", "--cycles=2000",
                         "--checkpoints=3", "--format=json"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("\"per_stage\""), std::string::npos);
  EXPECT_NE(r.out.find("\"totals\""), std::string::npos);
  EXPECT_NE(r.out.find("\"packets_delivered\""), std::string::npos);
}

TEST(Simulate, ReplicatesAreDeterministic) {
  const std::vector<std::string> args = {"simulate",     "--stages=3",
                                         "--cycles=1000", "--replicates=3",
                                         "--threads=2",   "--format=csv"};
  const auto a = invoke(args);
  const auto b = invoke(args);
  EXPECT_EQ(a.code, 0);
  EXPECT_EQ(a.out, b.out);
}

TEST(Simulate, RejectsDuplicateCheckpoints) {
  const auto r = invoke({"simulate", "--stages=3", "--cycles=1000",
                         "--checkpoints=3,3"});
  EXPECT_EQ(r.code, 2);  // usage error
  EXPECT_NE(r.err.find("strictly increasing"), std::string::npos);
}

TEST(Simulate, RejectsUnsortedCheckpoints) {
  const auto r = invoke({"simulate", "--stages=3", "--cycles=1000",
                         "--checkpoints=6,3"});
  EXPECT_EQ(r.code, 2);  // usage error
  EXPECT_NE(r.err.find("strictly increasing"), std::string::npos);
}

TEST(Simulate, MetricsReportOnStdout) {
  if constexpr (!obs::kEnabled)
    GTEST_SKIP() << "observability compiled out";
  const auto r = invoke({"simulate", "--stages=3", "--cycles=1500",
                         "--format=csv", "--metrics-out=-"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("\"schema\": \"ksw.obs.report/v1\""),
            std::string::npos);
  EXPECT_NE(r.out.find("sim.stage01.occupancy"), std::string::npos);
  EXPECT_NE(r.out.find("sim.stage01.dropped"), std::string::npos);
  EXPECT_NE(r.out.find("\"convergence\""), std::string::npos);
  EXPECT_NE(r.out.find("\"predicted_stage_mean\""), std::string::npos);
  EXPECT_NE(r.out.find("sim.phase.warmup"), std::string::npos);
  // Deterministic by default: no wall-clock fields, no pool section.
  EXPECT_EQ(r.out.find("wall_s"), std::string::npos);
  EXPECT_EQ(r.out.find("\"pool\""), std::string::npos);
}

TEST(Simulate, MetricsReportIdenticalAcrossThreadCounts) {
  const auto run = [](const char* threads) {
    return invoke({"simulate", "--stages=3", "--cycles=1500",
                   "--replicates=3", std::string("--threads=") + threads,
                   "--seed=7", "--format=csv", "--metrics-out=-"});
  };
  const auto a = run("1");
  const auto b = run("8");
  EXPECT_EQ(a.code, 0);
  EXPECT_EQ(b.code, 0);
  EXPECT_EQ(a.out, b.out);
}

TEST(Simulate, ObsWallOptsIntoPoolTelemetry) {
  if constexpr (!obs::kEnabled)
    GTEST_SKIP() << "observability compiled out";
  const auto r = invoke({"simulate", "--stages=3", "--cycles=1000",
                         "--replicates=2", "--threads=2", "--format=csv",
                         "--metrics-out=-", "--obs-wall"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("wall_s"), std::string::npos);
  EXPECT_NE(r.out.find("\"pool\""), std::string::npos);
  EXPECT_NE(r.out.find("pool.tasks"), std::string::npos);
}

TEST(Simulate, HotspotSkewsLastStage) {
  const auto r = invoke({"simulate", "--stages=3", "--cycles=4000",
                         "--p=0.3", "--hotspot=0.3", "--format=csv"});
  EXPECT_EQ(r.code, 0);
}

TEST(Simulate, RejectsOutOfRangeHotspotTarget) {
  // 3 stages of 2x2 switches expose ports 0..7; the check fires eagerly
  // at argument parsing even when --hotspot is 0.
  const auto r = invoke({"simulate", "--stages=3", "--cycles=1000",
                         "--hotspot-target=8"});
  EXPECT_EQ(r.code, 2);  // usage error
  EXPECT_NE(r.err.find("hotspot-target"), std::string::npos);
}

TEST(Simulate, FlowControlOptions) {
  const auto saf = invoke({"simulate", "--stages=3", "--cycles=1500",
                           "--buffer-capacity=2", "--flow=saf",
                           "--format=csv"});
  EXPECT_EQ(saf.code, 0);
  const auto credit = invoke({"simulate", "--stages=3", "--cycles=1500",
                              "--buffer-capacity=2", "--flow=credit",
                              "--credit-latency=3", "--format=csv"});
  EXPECT_EQ(credit.code, 0);
  const auto bad = invoke({"simulate", "--flow=wormhole"});
  EXPECT_EQ(bad.code, 2);  // usage error
  EXPECT_NE(bad.err.find("vct|saf|credit"), std::string::npos);
  // Backpressure schemes need a finite buffer to press against.
  const auto infinite = invoke({"simulate", "--stages=3", "--flow=credit"});
  EXPECT_EQ(infinite.code, 2);
  EXPECT_NE(infinite.err.find("buffer-capacity"), std::string::npos);
  const auto zero = invoke({"simulate", "--stages=3", "--buffer-capacity=2",
                            "--flow=credit", "--credit-latency=0"});
  EXPECT_EQ(zero.code, 2);
}

TEST(Simulate, OmegaTopologySelectable) {
  const auto r = invoke({"simulate", "--stages=3", "--cycles=2000",
                         "--topology=omega", "--format=csv"});
  EXPECT_EQ(r.code, 0);
  const auto bad = invoke({"simulate", "--topology=mesh"});
  EXPECT_EQ(bad.code, 2);  // usage error
  EXPECT_NE(bad.err.find("butterfly|omega"), std::string::npos);
}

// Guard against README/usage drift: every option the simulate parser
// accepts must be mentioned in the help text (and thus in README's table,
// which mirrors it).
TEST(Usage, MentionsEverySimulateOption) {
  const auto r = invoke({"simulate", "--help"});
  ASSERT_EQ(r.code, 0);
  const char* options[] = {
      "--k=",         "--stages=",   "--p=",        "--bulk=",
      "--q=",         "--hotspot=",  "--hotspot-target=",
      "--topology=",  "--service=",  "--cycles=",   "--warmup=",
      "--seed=",      "--replicates=", "--threads=",
      "--buffer-capacity=", "--flow=", "--credit-latency=",
      "--simd=",
      "--correlations", "--checkpoints=",
      "--metrics-out=", "--obs-stride=", "--obs-trace=", "--obs-wall",
      "--format="};
  for (const char* opt : options)
    EXPECT_NE(r.out.find(opt), std::string::npos)
        << "usage text omits " << opt;
}

// Same guard for the resilience options of reproduce.
TEST(Usage, MentionsEveryReproduceResilienceOption) {
  const auto r = invoke({"reproduce", "--help"});
  ASSERT_EQ(r.code, 0);
  const char* options[] = {"--resume", "--checkpoint=", "--point-timeout=",
                           "--fault-plan=", "--section=", "--check"};
  for (const char* opt : options)
    EXPECT_NE(r.out.find(opt), std::string::npos)
        << "usage text omits " << opt;
  // The exit-code contract is part of the help text.
  EXPECT_NE(r.out.find("exit codes"), std::string::npos);
  EXPECT_NE(r.out.find("130"), std::string::npos);
  EXPECT_NE(r.out.find("KSW_FAULTS"), std::string::npos);
}

// And for the serve command (docs/SERVING.md carries the full spec).
TEST(Usage, MentionsEveryServeOption) {
  const auto r = invoke({"serve", "--bad-flag=1", "--help"});
  ASSERT_EQ(r.code, 0);  // --help wins before flag validation
  const char* options[] = {"--listen=", "--threads=", "--batch=",
                           "--cache-mb=", "--deadline-ms=",
                           "--metrics-out="};
  for (const char* opt : options)
    EXPECT_NE(r.out.find(opt), std::string::npos)
        << "usage text omits " << opt;
  EXPECT_NE(r.out.find("serve"), std::string::npos);
  EXPECT_NE(r.out.find("docs/SERVING.md"), std::string::npos);
  EXPECT_NE(r.out.find("error.kind"), std::string::npos);
}

TEST(Serve, UnknownOptionFailsBeforeReadingInput) {
  // Flag validation happens before the first read, so a typo exits 2
  // immediately instead of blocking on stdin.
  const auto r = invoke({"serve", "--bogus=1"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown option --bogus"), std::string::npos);
}

TEST(Serve, RejectsOutOfDomainFlags) {
  EXPECT_EQ(invoke({"serve", "--batch=0"}).code, 2);
  EXPECT_EQ(invoke({"serve", "--deadline-ms=-5"}).code, 2);
  EXPECT_EQ(invoke({"serve", "--threads=-1"}).code, 2);
}

TEST(Serve, RejectsMetricsToStdoutInStdinMode) {
  // stdout is the JSONL response channel in stdin mode; an interleaved
  // metrics report would corrupt the protocol stream. Validation runs
  // before the first read, so this fails fast instead of blocking.
  const auto r = invoke({"serve", "--metrics-out=-"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--metrics-out=-"), std::string::npos);
}

TEST(Serve, MetricsIntervalRequiresAMetricsFile) {
  EXPECT_EQ(invoke({"serve", "--metrics-interval-ms=50"}).code, 2);
}

// ---------------------------------------------------------------------------
// trace (docs/OBSERVABILITY.md "Tracing")
// ---------------------------------------------------------------------------

TEST(Trace, RequiresActionInputAndKnownFlags) {
  EXPECT_EQ(invoke({"trace"}).code, 2);
  EXPECT_EQ(invoke({"trace", "frobnicate"}).code, 2);
  EXPECT_EQ(invoke({"trace", "summarize"}).code, 2);          // no --in
  EXPECT_EQ(invoke({"trace", "export", "--in=x"}).code, 2);   // no --chrome
  EXPECT_EQ(invoke({"trace", "summarize", "--in=x", "--bogus=1"}).code, 2);
  // A well-formed invocation over a missing file is an I/O error.
  EXPECT_EQ(invoke({"trace", "summarize", "--in=/no/such/file"}).code, 5);
}

TEST(Trace, SummarizesAndExportsAStream) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("ksw_cli_trace_" + std::to_string(::getpid()) + ".jsonl"))
          .string();
  {
    std::ofstream file(path);
    file << R"({"schema":"ksw.trace/v1","spans":2,"dropped":1})" << "\n"
         << R"({"name":"serve.request","trace":"00000000000000aa",)"
         << R"("span":"0000000000000001","parent":null,"start_ns":10,)"
         << R"("dur_ns":5000,"tid":0,"labels":{"kernel":"first_stage"}})"
         << "\n"
         << R"({"name":"serve.request","trace":"00000000000000ab",)"
         << R"("span":"0000000000000002","parent":null,"start_ns":20,)"
         << R"("dur_ns":15000,"tid":1,"labels":{}})"
         << "\n";
  }

  const auto summary = invoke({"trace", "summarize", "--in=" + path});
  EXPECT_EQ(summary.code, 0);
  EXPECT_NE(summary.out.find("serve.request"), std::string::npos);
  EXPECT_NE(summary.out.find("p99_us"), std::string::npos);
  EXPECT_NE(summary.out.find("dropped"), std::string::npos);

  const auto chrome =
      invoke({"trace", "export", "--chrome", "--in=" + path});
  EXPECT_EQ(chrome.code, 0);
  EXPECT_NE(chrome.out.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(chrome.out.find("\"ph\": \"X\""), std::string::npos);

  std::filesystem::remove(path);
}

TEST(Reproduce, ListPrintsSectionsWithoutRunning) {
  const auto r = invoke({"reproduce",
                         "--manifest=" KSW_MANIFEST_DIR "/paper.json",
                         "--list"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("uniform"), std::string::npos);
  EXPECT_NE(r.out.find("total-delay"), std::string::npos);
  EXPECT_NE(r.out.find("first_stage"), std::string::npos);
}

TEST(Reproduce, PaperManifestParsesAndSmokeSectionRuns) {
  // Bare "--manifest PATH" (space-separated) must work too; ISSUE.md's
  // acceptance command uses that spelling.
  const auto r = invoke({"reproduce", "--manifest",
                         KSW_MANIFEST_DIR "/smoke.json", "--list"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("uniform-smoke"), std::string::npos);
}

TEST(Reproduce, MissingManifestFails) {
  const auto r = invoke({"reproduce", "--manifest=/no/such.json"});
  EXPECT_EQ(r.code, 5);  // I/O error
  EXPECT_NE(r.err.find("cannot open"), std::string::npos);
}

TEST(Reproduce, ManifestArgumentIsRequired) {
  const auto r = invoke({"reproduce"});
  EXPECT_EQ(r.code, 2);  // usage error
  EXPECT_NE(r.err.find("manifest"), std::string::npos);
}

TEST(Reproduce, UnknownSectionIdFails) {
  const auto r = invoke({"reproduce",
                         "--manifest=" KSW_MANIFEST_DIR "/smoke.json",
                         "--section=nope", "--list"});
  EXPECT_EQ(r.code, 2);  // usage error
  EXPECT_NE(r.err.find("nope"), std::string::npos);
}

TEST(Calibrate, RecoversPaperConstantsApproximately) {
  const auto r =
      invoke({"calibrate", "--cycles=40000", "--format=json"});
  EXPECT_EQ(r.code, 0);
  // mean_coeff should be near 0.8.
  const auto pos = r.out.find("\"mean_coeff\": 0.");
  ASSERT_NE(pos, std::string::npos);
  const double v = std::stod(r.out.substr(pos + 14));
  EXPECT_NEAR(v, 0.8, 0.15);
}

}  // namespace
}  // namespace ksw::cli
