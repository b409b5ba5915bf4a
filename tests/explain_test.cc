// Golden-file tests for `twq explain` (tools/twq.cc, docs/PLANNER.md).
// Everything explain prints outside the --timing section is a pure
// function of (tree, selector, flags), so the full output is held
// byte-for-byte against committed golden files — any change to the
// format, the cost model, or the estimates shows up as a reviewable
// golden diff.  The --timing section is held the same way once its
// measured nanoseconds and recalibrated constants are masked.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>

namespace treewalk {
namespace {

#if defined(TREEWALK_TWQ_PATH) && defined(TREEWALK_SOURCE_DIR)

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Runs `twq explain <args>` from the source root, captures stdout,
/// and asserts exit 0.
std::string Explain(const std::string& args) {
  // Per-process output name: ctest runs each TEST as its own process
  // in parallel, and a shared scratch file would interleave captures.
  const std::string out = ::testing::TempDir() + "explain_out." +
                          std::to_string(::getpid()) + ".txt";
  const std::string cmd = std::string("cd ") + TREEWALK_SOURCE_DIR + " && " +
                          TREEWALK_TWQ_PATH + " explain " + args + " > " +
                          out + " 2>&1";
  EXPECT_EQ(std::system(cmd.c_str()), 0) << cmd << "\n" << ReadWholeFile(out);
  return ReadWholeFile(out);
}

std::string Golden(const std::string& name) {
  return ReadWholeFile(std::string(TREEWALK_SOURCE_DIR) + "/tests/golden/" +
                       name);
}

TEST(ExplainGolden, SelectorPlanMatchesGoldenFile) {
  const std::string got = Explain(
      "examples/trees/uniform.term --selector "
      "'exists z ((desc(x, y) & E(y, z)) & lab(z, a))' --evals");
  EXPECT_EQ(got, Golden("explain_selector.txt"));
}

TEST(ExplainGolden, ProgramSelectorsMatchGoldenFile) {
  const std::string got = Explain(
      "examples/trees/uniform.term --program examples/programs/example32.twp");
  EXPECT_EQ(got, Golden("explain_program.txt"));
}

TEST(ExplainGolden, XPathPlanMatchesGoldenFile) {
  const std::string got =
      Explain("examples/trees/uniform.term --xpath '//*' --evals");
  EXPECT_EQ(got, Golden("explain_xpath.txt"));
}

TEST(ExplainGolden, TimingAnswersAllNodesForEveryStrategy) {
  // --origin 2 narrows the plan, not the timing: every strategy
  // answers all six nodes, and the line says so.
  std::string got = Explain(
      "examples/trees/uniform.term --xpath '//*' --origin 2 --timing");
  got = std::regex_replace(got, std::regex("=[0-9]+ns"), "=<ns>");
  got = std::regex_replace(got, std::regex("(_cost)=[-+.0-9e]+"), "$1=<c>");
  EXPECT_EQ(got, Golden("explain_timing.txt"));
}

TEST(ExplainGolden, OutputIsDeterministic) {
  const std::string args =
      "examples/trees/uniform.term --selector 'desc(x, y)' --evals";
  EXPECT_EQ(Explain(args), Explain(args));
}

TEST(ExplainGolden, RejectsBadInvocations) {
  const std::string devnull = " >/dev/null 2>&1";
  const std::string base =
      std::string("cd ") + TREEWALK_SOURCE_DIR + " && " + TREEWALK_TWQ_PATH;
  // No selector source, two selector sources, unknown flag value.
  EXPECT_NE(std::system((base + " explain examples/trees/uniform.term" +
                         devnull).c_str()),
            0);
  EXPECT_NE(std::system((base +
                         " explain examples/trees/uniform.term --selector "
                         "'desc(x, y)' --xpath '//*'" + devnull).c_str()),
            0);
  EXPECT_NE(std::system((base +
                         " explain examples/trees/uniform.term --selector "
                         "'desc(x, y)' --origin" + devnull).c_str()),
            0);
}

/// Runs `twq <args>` from the source root; returns the exit status and
/// fills `output` with stdout and stderr.
int Twq(const std::string& args, std::string* output) {
  const std::string out = ::testing::TempDir() + "twq_out." +
                          std::to_string(::getpid()) + ".txt";
  const std::string cmd = std::string("cd ") + TREEWALK_SOURCE_DIR + " && " +
                          TREEWALK_TWQ_PATH + " " + args + " > " + out +
                          " 2>&1";
  const int status = std::system(cmd.c_str());
  *output = ReadWholeFile(out);
  return status;
}

TEST(TwqFlags, RunBatchAndExplainRejectRemovedUnknownAndMalformedFlags) {
  // Each base invocation succeeds on its own (run exits 2 on REJECT, so
  // it uses the accepting tree).
  const std::string run =
      "run examples/programs/example32.twp examples/trees/uniform.term";
  const std::string batch = "batch examples/batch.manifest --quiet";
  const std::string explain =
      "explain examples/trees/uniform.term --selector 'desc(x, y)'";
  std::string output;
  for (const std::string& base : {run, batch, explain}) {
    ASSERT_EQ(Twq(base, &output), 0) << base << "\n" << output;
    // The deleted plan-mode and representation overrides, and a typo.
    for (const char* bad : {" --plan auto", " --plan fixed",
                            " --axis-repr dense", " --bogus"}) {
      EXPECT_NE(Twq(base + bad, &output), 0) << base << bad;
    }
  }
  // Malformed numbers.  run takes no numeric flag, so a stray number
  // after a switch is an unknown option.
  for (const std::string& bad :
       {run + " --trace 5", batch + " --deadline-ms soon",
        batch + " --memory-budget-mb lots", batch + " --jobs 2x",
        batch + " --jobs 0", batch + " --retries -1",
        batch + " --max-steps 99999999999999999999",
        explain + " --origin abc", explain + " --origin -1",
        explain + " --origin 999", explain + " --origin ' 2'"}) {
    EXPECT_NE(Twq(bad, &output), 0) << bad << "\n" << output;
  }
  EXPECT_NE(Twq(batch + " --deadline-ms soon", &output), 0);
  EXPECT_NE(output.find("--deadline-ms wants an integer"), std::string::npos)
      << output;
  // Every numeric flag perfbench passes still parses.
  EXPECT_EQ(Twq(batch + " --jobs 2 --deadline-ms 1000 --memory-budget-mb 64",
                &output),
            0)
      << output;
  EXPECT_EQ(Twq(explain + " --origin 2 --evals", &output), 0) << output;
  // serve fails on the missing corpus, after its flags parsed.
  EXPECT_NE(Twq("serve /nonexistent-corpus --port 0 --workers 2 --quiet",
                &output),
            0);
  EXPECT_EQ(output.find("wants an integer"), std::string::npos) << output;
}

#endif  // TREEWALK_TWQ_PATH && TREEWALK_SOURCE_DIR

}  // namespace
}  // namespace treewalk
