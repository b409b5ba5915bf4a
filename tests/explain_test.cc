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

TEST(ExplainGolden, FixedModeReportsLegacyChoice) {
  const std::string got = Explain(
      "examples/trees/uniform.term --selector 'desc(x, y)' --plan fixed");
  EXPECT_NE(got.find("fixed mode: legacy heuristics"), std::string::npos)
      << got;
  // 6 nodes is far under kDenseAxisNodeLimit: legacy resolves to dense.
  EXPECT_NE(got.find("plan: compiled-dense"), std::string::npos) << got;
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
                         "'desc(x, y)' --plan sometimes" + devnull).c_str()),
            0);
}

#endif  // TREEWALK_TWQ_PATH && TREEWALK_SOURCE_DIR

}  // namespace
}  // namespace treewalk
