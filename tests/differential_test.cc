// Differential oracles from the paper's own equivalences, promoted to
// tier-1 tests: Theorem 7.1(2)'s configuration-graph evaluator must
// agree with the direct interpreter on every program, and the Lemma 4.5
// protocol verdict must agree with the direct tw^{r,l} verdict on split
// strings.  The interpreter's table of finished subcomputations is held
// to its untabled twin (a traced run) and to the configuration graph's
// step count.  Random inputs; every assertion names its seed so a
// failure reproduces.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "src/automata/builder.h"
#include "src/automata/interpreter.h"
#include "src/automata/library.h"
#include "src/hyperset/hyperset.h"
#include "src/protocol/protocol.h"
#include "src/simulation/config_graph.h"
#include "src/tree/generate.h"
#include "src/tree/term_io.h"

namespace treewalk {
namespace {

constexpr DataValue kHash = -1;

std::vector<Program> LibraryPrograms() {
  std::vector<Program> programs;
  programs.push_back(std::move(HasLabelProgram("a")).value());
  programs.push_back(std::move(HasLabelProgram("missing")).value());
  programs.push_back(std::move(ParityProgram("a")).value());
  programs.push_back(std::move(AllLeavesLabelProgram("a")).value());
  programs.push_back(std::move(RootValueAtSomeLeafProgram("a")).value());
  programs.push_back(std::move(Example32Program("a")).value());
  return programs;
}

/// Direct interpreter vs. memoizing configuration-graph evaluation
/// (Thm 7.1(2)) on random attributed trees, for every library program
/// that is meaningful on a generic alphabet.
TEST(DifferentialOracle, ConfigGraphAgreesWithInterpreterOnRandomTrees) {
  std::vector<Program> programs = LibraryPrograms();
  RandomTreeOptions options;
  options.labels = {"a", "b", "sigma", "delta"};
  options.attributes = {"a"};
  options.value_range = 3;
  for (unsigned seed = 0; seed < 12; ++seed) {
    std::mt19937 rng(seed);
    options.num_nodes = 4 + static_cast<int>(seed) * 2;
    Tree t = RandomTree(rng, options);
    for (std::size_t pi = 0; pi < programs.size(); ++pi) {
      Interpreter interpreter(programs[pi]);
      auto direct = interpreter.Run(t);
      auto graph = EvaluateViaConfigGraph(programs[pi], t);
      ASSERT_TRUE(direct.ok()) << "seed " << seed << " program " << pi << ": "
                               << direct.status();
      ASSERT_TRUE(graph.ok()) << "seed " << seed << " program " << pi << ": "
                              << graph.status();
      EXPECT_EQ(direct->accepted, graph->accepted)
          << "seed " << seed << " program " << pi;
    }
  }
}

/// Same oracle on the Example 3.2 workload generator, which drives the
/// accept and reject paths by construction.
TEST(DifferentialOracle, ConfigGraphAgreesOnExample32Workload) {
  Program p = std::move(Example32Program("a")).value();
  for (unsigned seed = 100; seed < 112; ++seed) {
    std::mt19937 rng(seed);
    bool uniform = seed % 2 == 0;
    Tree t = Example32Tree(rng, 30, uniform);
    Interpreter interpreter(p);
    auto direct = interpreter.Run(t);
    auto graph = EvaluateViaConfigGraph(p, t);
    ASSERT_TRUE(direct.ok()) << "seed " << seed << ": " << direct.status();
    ASSERT_TRUE(graph.ok()) << "seed " << seed << ": " << graph.status();
    EXPECT_EQ(direct->accepted, uniform) << "seed " << seed;
    EXPECT_EQ(graph->accepted, uniform) << "seed " << seed;
  }
}

/// The compiled set-at-a-time selector evaluator must be semantically
/// invisible: compiled on and off produce the same verdict, reason, and
/// step count on every program x random tree.  The off run is the pure
/// reference interpreter, so this is a differential run of compiled
/// against reference at the whole-interpreter level.
TEST(DifferentialOracle, CompiledSelectorsAreSemanticallyInvisible) {
  std::vector<Program> programs = LibraryPrograms();
  RandomTreeOptions options;
  options.labels = {"a", "sigma", "delta"};
  options.attributes = {"a"};
  for (unsigned seed = 70; seed < 82; ++seed) {
    std::mt19937 rng(seed);
    options.num_nodes = 6 + static_cast<int>(seed % 5) * 4;
    Tree t = RandomTree(rng, options);
    for (std::size_t pi = 0; pi < programs.size(); ++pi) {
      RunOptions reference;
      reference.compile_selectors = false;
      auto plain = Interpreter(programs[pi], reference).Run(t);
      auto compiled = Interpreter(programs[pi]).Run(t);
      ASSERT_TRUE(plain.ok() && compiled.ok())
          << "seed " << seed << " program " << pi;
      EXPECT_EQ(compiled->accepted, plain->accepted)
          << "seed " << seed << " program " << pi;
      EXPECT_EQ(compiled->reason, plain->reason)
          << "seed " << seed << " program " << pi;
      EXPECT_EQ(compiled->stats.steps, plain->stats.steps)
          << "seed " << seed << " program " << pi;
      // With compilation off, no compiled evaluations may be counted.
      EXPECT_EQ(plain->stats.compiled_selector_evals, 0);
    }
  }
}

/// Lemma 4.5: the two-party protocol verdict equals the direct
/// tw^{r,l} verdict on the split string f#g — for the walking
/// set-equality program and its look-ahead variant.
TEST(DifferentialOracle, ProtocolVerdictAgreesWithDirectVerdict) {
  std::vector<Program> programs;
  programs.push_back(std::move(SetEqualityProgram(kHash)).value());
  programs.push_back(
      std::move(SetEqualityViaLookaheadProgram(kHash)).value());
  for (unsigned seed = 0; seed < 25; ++seed) {
    std::mt19937 rng(seed);
    std::uniform_int_distribution<DataValue> value(5, 8);
    std::uniform_int_distribution<int> len(0, 4);
    std::vector<DataValue> f(static_cast<std::size_t>(len(rng)));
    std::vector<DataValue> g(static_cast<std::size_t>(len(rng)));
    for (auto& v : f) v = value(rng);
    for (auto& v : g) v = value(rng);
    Tree t = StringTree(SplitString(f, g, kHash));
    for (std::size_t pi = 0; pi < programs.size(); ++pi) {
      auto protocol = RunSplitProtocol(programs[pi], f, g, kHash);
      auto direct = Interpreter(programs[pi]).Run(t);
      ASSERT_TRUE(protocol.ok())
          << "seed " << seed << " program " << pi << ": " << protocol.status();
      ASSERT_TRUE(direct.ok())
          << "seed " << seed << " program " << pi << ": " << direct.status();
      EXPECT_EQ(protocol->accepted, direct->accepted)
          << "seed " << seed << " program " << pi;
    }
  }
}

/// A run's observable result as one comparable string: the status
/// code and message of an error, or the verdict, reason and every
/// RunStats field except tabled_steps.
std::string Observed(const Result<RunResult>& r) {
  if (!r.ok()) {
    return std::string("error ") + StatusCodeName(r.status().code()) + " " +
           r.status().message();
  }
  const RunStats& s = r->stats;
  return "accepted=" + std::to_string(r->accepted) + " reason=" +
         RejectReasonName(r->reason) + " steps=" + std::to_string(s.steps) +
         " subs=" + std::to_string(s.subcomputations) +
         " atp=" + std::to_string(s.atp_calls) +
         " compiled=" + std::to_string(s.compiled_selector_evals) +
         " interval=" + std::to_string(s.interval_selector_evals) +
         " dense=" + std::to_string(s.dense_selector_evals) +
         " picks=" + std::to_string(s.planner_picks_reference) + "/" +
         std::to_string(s.planner_picks_dense) + "/" +
         std::to_string(s.planner_picks_interval) +
         " updates=" + std::to_string(s.store_updates) +
         " max_tuples=" + std::to_string(s.max_store_tuples) +
         " depth=" + std::to_string(s.max_depth_reached);
}

/// Runs `program` on `t` traced (the untabled twin) and untraced
/// (tabled) under `options`, expects the same observable result, and
/// returns the tabled run's replayed steps (0 on error).
std::int64_t ExpectTabledMatchesUntabled(const Program& program,
                                         const Tree& t, RunOptions options,
                                         const std::string& what) {
  options.record_trace = true;
  Result<RunResult> untabled = Interpreter(program, options).Run(t);
  options.record_trace = false;
  Result<RunResult> tabled = Interpreter(program, options).Run(t);
  EXPECT_EQ(Observed(tabled), Observed(untabled)) << what;
  if (untabled.ok()) {
    EXPECT_EQ(untabled->stats.tabled_steps, 0) << what;
  }
  return tabled.ok() ? tabled->stats.tabled_steps : 0;
}

/// Tabled walking is invisible: on every library program x random tree
/// and on the Example 3.2 workload, the tabled run and the traced,
/// untabled run agree on verdict, reason and RunStats (tabled_steps
/// aside).
TEST(DifferentialOracle, TabledRunsMatchTheUntabledTwin) {
  std::vector<Program> programs = LibraryPrograms();
  RandomTreeOptions options;
  options.labels = {"a", "b", "sigma", "delta"};
  options.attributes = {"a"};
  options.value_range = 3;
  for (unsigned seed = 0; seed < 12; ++seed) {
    std::mt19937 rng(seed);
    options.num_nodes = 4 + static_cast<int>(seed) * 6;
    Tree t = RandomTree(rng, options);
    for (std::size_t pi = 0; pi < programs.size(); ++pi) {
      ExpectTabledMatchesUntabled(
          programs[pi], t, {},
          "seed " + std::to_string(seed) + " program " + std::to_string(pi));
    }
  }

  Program p = std::move(Example32Program("a")).value();
  std::int64_t replayed = 0;
  for (unsigned seed = 100; seed < 112; ++seed) {
    std::mt19937 rng(seed);
    Tree t = Example32Tree(rng, 20 + 40 * static_cast<int>(seed % 6),
                           /*uniform=*/seed % 2 == 0);
    replayed += ExpectTabledMatchesUntabled(p, t, {},
                                            "seed " + std::to_string(seed));
  }
  EXPECT_GT(replayed, 0) << "the Example 3.2 workload never hit the table";
}

/// Theorem 7.1(2)'s evaluator walks every distinct call configuration
/// once; so does the tabled interpreter.  The steps it executed (steps
/// minus tabled_steps) equal the configuration graph's steps.
TEST(DifferentialOracle, TabledExecutedStepsEqualConfigGraphSteps) {
  Program p = std::move(Example32Program("a")).value();
  unsigned seed = 200;
  for (int n : {50, 200, 1000}) {
    for (bool uniform : {true, false}) {
      std::mt19937 rng(++seed);
      Tree t = Example32Tree(rng, n, uniform);
      auto direct = Interpreter(p).Run(t);
      auto graph = EvaluateViaConfigGraph(p, t);
      ASSERT_TRUE(direct.ok()) << "seed " << seed << ": " << direct.status();
      ASSERT_TRUE(graph.ok()) << "seed " << seed << ": " << graph.status();
      EXPECT_EQ(direct->accepted, graph->accepted) << "seed " << seed;
      EXPECT_EQ(direct->stats.steps - direct->stats.tabled_steps,
                graph->steps)
          << "seed " << seed << " n=" << n;
    }
  }
}

/// A limit that falls inside a replayable suffix: the hit is declined
/// and the suffix recomputed, so the run fails with the untabled run's
/// status code and message, at the same step.
TEST(DifferentialOracle, TabledLimitsTripLikeTheUntabledRun) {
  Program p = std::move(Example32Program("a")).value();
  std::mt19937 rng(300);
  Tree t = Example32Tree(rng, 40, /*uniform=*/true);
  RunResult full = std::move(Interpreter(p).Run(t)).value();
  ASSERT_GT(full.stats.tabled_steps, 0);
  for (std::int64_t limit = 1; limit <= full.stats.steps + 1; ++limit) {
    RunOptions options;
    options.max_steps = limit;
    ExpectTabledMatchesUntabled(p, t, options,
                                "max_steps=" + std::to_string(limit));
  }

  // The same call configuration, (root, b, tau), first at depth 1 and
  // then at depth 2 under a: its suffix nests one level deeper, so the
  // second call replays only while max_depth leaves room for it.
  ProgramBuilder b(ProgramClass::kTwRL);
  b.SetStates("q0", "qf");
  b.DeclareRegister("X1", 1);
  b.OnLookAhead("#top", "q0", "true", "q1", "X1", "x = y", "b");
  b.OnLookAhead("#top", "q1", "true", "qf", "X1", "x = y", "a");
  b.OnLookAhead("#top", "a", "true", "qf", "X1", "x = y", "b");
  b.OnLookAhead("#top", "b", "true", "qf", "X1", "x = y", "c");
  b.OnMove("#top", "c", "true", "qf", Move::kStay);
  Program nested = std::move(b.Build()).value();
  Tree one = std::move(ParseTerm("a")).value();
  RunResult deep = std::move(Interpreter(nested).Run(one)).value();
  ASSERT_TRUE(deep.accepted);
  ASSERT_GT(deep.stats.tabled_steps, 0);
  for (int depth = 0; depth <= 4; ++depth) {
    for (std::int64_t limit = 1; limit <= deep.stats.steps + 1; ++limit) {
      RunOptions options;
      options.max_depth = depth;
      options.max_steps = limit;
      ExpectTabledMatchesUntabled(nested, one, options,
                                  "max_depth=" + std::to_string(depth) +
                                      " max_steps=" + std::to_string(limit));
    }
  }
}

}  // namespace
}  // namespace treewalk
