// Tests for the cost-based query planner (src/logic/planner.h) and its
// tree-statistics substrate (src/tree/tree_stats.h): exact statistics on
// known trees, snapshot preloading, formula feature extraction, the
// dense/interval cost crossover (at 4096 nodes on span-1 workloads),
// interpreter pick counters, calibration feedback, and the headline
// differential oracle proving that the
// planned strategy returns exactly the same nodes as every fixed
// strategy on >= 500 random (formula, tree) instances.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "src/automata/interpreter.h"
#include "src/automata/library.h"
#include "src/logic/compile.h"
#include "src/logic/parser.h"
#include "src/logic/planner.h"
#include "src/logic/tree_eval.h"
#include "src/tree/axis_index.h"
#include "src/tree/delimited.h"
#include "src/tree/generate.h"
#include "src/tree/snapshot.h"
#include "src/tree/term_io.h"
#include "src/tree/tree_stats.h"

namespace treewalk {
namespace {

Formula Parse(const std::string& source) {
  auto parsed = ParseFormula(source);
  EXPECT_TRUE(parsed.ok()) << source << ": " << parsed.status().ToString();
  return *parsed;
}

Tree Term(const std::string& source) {
  auto parsed = ParseTerm(source);
  EXPECT_TRUE(parsed.ok()) << source << ": " << parsed.status().ToString();
  return *parsed;
}

// --- TreeStats: exact statistics. --------------------------------------

TEST(TreeStats, ExactOnKnownTree) {
  //      f            depths: f=0, a=1, g=1, d=1, b=2, c=2
  //    / | \          desc pairs = sum_depths = 7
  //   a  g  d         sib pairs: root family C(3,2)=3, g family C(2,2)=1
  //     / \           succ pairs: 2 + 1
  //    b   c
  Tree t = Term("f(a, g(b, c), d)");
  TreeStats s = ComputeTreeStats(t);
  EXPECT_EQ(s.nodes, 6);
  EXPECT_EQ(s.edges, 5);
  EXPECT_EQ(s.max_depth, 2);
  EXPECT_EQ(s.sum_depths, 7);
  EXPECT_EQ(s.leaves, 4);
  EXPECT_EQ(s.parents, 2);
  EXPECT_EQ(s.max_fanout, 3);
  EXPECT_EQ(s.sib_pairs, 4);
  EXPECT_EQ(s.succ_pairs, 3);
  // Every node carries exactly one label; identities the snapshot
  // validator also enforces.
  std::int64_t label_total = 0;
  for (std::int64_t c : s.label_counts) label_total += c;
  EXPECT_EQ(label_total, s.nodes);
  EXPECT_EQ(s.leaves + s.parents, s.nodes);
  EXPECT_DOUBLE_EQ(s.AvgFanout(), 2.5);
}

TEST(TreeStats, EmptyTreeIsAllZero) {
  Tree empty;
  TreeStats s = ComputeTreeStats(empty);
  EXPECT_EQ(s.nodes, 0);
  EXPECT_EQ(s.edges, 0);
  EXPECT_EQ(s.MaxLabelCount(), 0);
}

TEST(TreeStats, AtomCardinalitiesAreExactOnRandomTrees) {
  // The closed forms the planner's leaf estimates rely on, checked
  // against brute-force enumeration of the actual relations.
  std::mt19937 rng(411);
  RandomTreeOptions options;
  for (int round = 0; round < 20; ++round) {
    options.num_nodes = 1 + static_cast<int>(rng() % 60);
    Tree t = RandomTree(rng, options);
    TreeStats s = ComputeTreeStats(t);
    std::int64_t desc = 0, sib = 0, succ = 0, leaves = 0;
    for (NodeId u = 0; u < static_cast<NodeId>(t.size()); ++u) {
      if (t.ChildCount(u) == 0) ++leaves;
      // Every strict ancestor of u contributes one desc pair, so the
      // total is exactly the sum of depths.
      for (NodeId p = t.Parent(u); p != kNoNode; p = t.Parent(p)) ++desc;
      for (NodeId v = 0; v < static_cast<NodeId>(t.size()); ++v) {
        if (t.Parent(u) != kNoNode && t.Parent(u) == t.Parent(v) && u < v) {
          ++sib;
          if (t.NextSibling(u) == v) ++succ;
        }
      }
    }
    EXPECT_EQ(s.sum_depths, desc) << "round " << round;
    EXPECT_EQ(s.sib_pairs, sib) << "round " << round;
    EXPECT_EQ(s.succ_pairs, succ) << "round " << round;
    EXPECT_EQ(s.leaves, leaves) << "round " << round;
  }
}

// --- Snapshot preloading (docs/SNAPSHOT.md, v2 stats section). ---------

TEST(TreeStats, SnapshotRoundTripPreloadsExactStats) {
  std::mt19937 rng(2026);
  RandomTreeOptions options;
  options.num_nodes = 300;
  options.attributes = {"a", "b"};
  options.value_range = 5;
  Tree original = RandomTree(rng, options);

  auto image = std::make_shared<const std::string>(
      EncodeTreeSnapshot(original));
  auto loaded = TreeFromSnapshotImage(image);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  // The loaded tree carries preloaded stats, and they are *exactly* the
  // stats a fresh scan computes — the planner sees no difference
  // between snapshot-backed and parsed trees.
  ASSERT_NE(loaded->snapshot_stats(), nullptr);
  EXPECT_EQ(*loaded->snapshot_stats(), ComputeTreeStats(*loaded));
  EXPECT_EQ(*loaded->snapshot_stats(), ComputeTreeStats(original));

  // GetOrComputeTreeStats serves the preloaded block without touching
  // scratch, and scans when there is no snapshot.
  TreeStats scratch;
  EXPECT_EQ(GetOrComputeTreeStats(*loaded, scratch),
            loaded->snapshot_stats());
  EXPECT_EQ(scratch.nodes, 0);
  const TreeStats* scanned = GetOrComputeTreeStats(original, scratch);
  EXPECT_EQ(scanned, &scratch);
  EXPECT_EQ(*scanned, *loaded->snapshot_stats());
}

// --- Formula features. -------------------------------------------------

TEST(FormulaFeatures, CountsStructure) {
  FormulaFeatures f = AnalyzeFormula(
      Parse("exists z ((desc(x, y) & E(y, z)) & !lab(z, a))"));
  EXPECT_EQ(f.atoms, 3);
  EXPECT_EQ(f.quantifiers, 1);
  EXPECT_EQ(f.exists_count, 1);
  EXPECT_EQ(f.forall_count, 0);
  EXPECT_EQ(f.negation_depth, 1);
  EXPECT_EQ(f.desc_atoms, 1);
  EXPECT_EQ(f.edge_atoms, 1);
  EXPECT_EQ(f.label_atoms, 1);
  EXPECT_EQ(f.width, 3);  // x, y, z live simultaneously
  EXPECT_TRUE(f.has_range_guard);
}

TEST(FormulaFeatures, RangeGuardRequiresPositiveTopLevelAxis) {
  EXPECT_TRUE(AnalyzeFormula(Parse("desc(x, y) & lab(y, a)"))
                  .has_range_guard);
  EXPECT_TRUE(AnalyzeFormula(Parse("exists z (E(x, z))")).has_range_guard);
  // Negated or disjoined axes do not bound the search range.
  EXPECT_FALSE(AnalyzeFormula(Parse("!desc(x, y)")).has_range_guard);
  EXPECT_FALSE(AnalyzeFormula(Parse("desc(x, y) | lab(y, a)"))
                   .has_range_guard);
  EXPECT_FALSE(AnalyzeFormula(Parse("lab(y, a)")).has_range_guard);
}

// --- Cost model. -------------------------------------------------------

/// Synthetic stats for a balanced-ish tree of n nodes, enough structure
/// for every estimate to be finite and positive.
TreeStats SyntheticStats(std::int64_t n) {
  TreeStats s;
  s.nodes = n;
  s.edges = n - 1;
  s.max_depth = 16;
  s.sum_depths = 8 * n;
  s.leaves = n / 2;
  s.parents = n - n / 2;
  s.max_fanout = 4;
  s.sib_pairs = n;
  s.succ_pairs = n - 1;
  s.label_counts = {n / 2, n - n / 2};
  return s;
}

TEST(CostModel, DenseIntervalCrossoverMatchesLegacyLimit) {
  // With default calibration, a span-1 workload's dense/interval cost
  // ratio is n / 4096: the crossover lands where the dense matrix
  // outgrows ~2MiB.
  Formula f = Parse("desc(x, y)");
  SelectorPlan small = PlanSelector(SyntheticStats(2048), f);
  EXPECT_LT(small.cost_dense, small.cost_interval);
  SelectorPlan large = PlanSelector(SyntheticStats(32768), f);
  EXPECT_GT(large.cost_dense, large.cost_interval);
  // Disjunctions widen interval rows and move the crossover up.
  SelectorPlan with_or =
      PlanSelector(SyntheticStats(32768), Parse("desc(x, y) | sib(x, y)"));
  EXPECT_GT(with_or.cost_interval / large.cost_interval, 1.5);
}

TEST(CostModel, ReferenceWinsForSingleOriginCheapSelector) {
  // One origin, one guarded atom: the reference evaluator enumerates a
  // handful of children, while any compiled path must first build the
  // full satisfier relation.  The planner must not compile.
  PlanOptions opts;
  opts.expected_origins = 1;
  SelectorPlan plan =
      PlanSelector(SyntheticStats(100000), Parse("E(x, y)"), {}, opts);
  EXPECT_EQ(plan.strategy, PlanStrategy::kReference);
  EXPECT_LT(plan.cost_reference, plan.cost_dense);
  EXPECT_LT(plan.cost_reference, plan.cost_interval);
  // A reference pick still names the cheaper compiled representation.
  EXPECT_LT(plan.cost_interval, plan.cost_dense);
  EXPECT_EQ(plan.repr, AxisRepr::kInterval);
}

TEST(CostModel, AtomEstimatesAreExactAndOrdered) {
  Tree t = Term("f(a, g(b, c), d)");
  TreeStats s = ComputeTreeStats(t);
  SelectorPlan plan = PlanSelector(s, Parse("desc(x, y)"));
  ASSERT_EQ(plan.operators.size(), 1u);
  EXPECT_TRUE(plan.operators[0].exact);
  // desc has exactly sum_depths satisfier pairs.
  EXPECT_NEAR(plan.operators[0].rows, 7.0, 1e-9);
  // Operators render in pre-order with child depth = parent depth + 1.
  SelectorPlan nested = PlanSelector(s, Parse("exists z (E(x, z))"));
  ASSERT_EQ(nested.operators.size(), 2u);
  EXPECT_EQ(nested.operators[0].depth, 0);
  EXPECT_EQ(nested.operators[1].depth, 1);
  EXPECT_NEAR(nested.operators[1].rows, 5.0, 1e-9);  // edges
}

TEST(CostModel, DegenerateInputsFallBackToReference) {
  TreeStats empty;
  EXPECT_EQ(PlanSelector(empty, Parse("desc(x, y)")).strategy,
            PlanStrategy::kReference);
  Formula invalid;
  EXPECT_EQ(PlanSelector(SyntheticStats(64), invalid).strategy,
            PlanStrategy::kReference);
}

// --- Calibration feedback. ---------------------------------------------

TEST(Recalibrate, GeometricHalfStepTowardMeasurement) {
  SelectorPlan plan = PlanSelector(SyntheticStats(4096), Parse("desc(x, y)"));
  ASSERT_GT(plan.cost_reference, 0.0);
  // A measurement 4x the prediction scales the constant by sqrt(4) = 2.
  std::vector<StrategyMeasurement> measured = {
      {PlanStrategy::kReference, 4.0 * plan.cost_reference}};
  PlannerCalibration base;
  PlannerCalibration tuned = RecalibrateFromMeasurements(base, plan, measured);
  EXPECT_NEAR(tuned.reference_visit_cost, 2.0 * base.reference_visit_cost,
              1e-9);
  // Unmeasured strategies keep their constants; bad samples are ignored.
  EXPECT_EQ(tuned.dense_word_cost, base.dense_word_cost);
  measured[0].nanos = 0.0;
  EXPECT_EQ(RecalibrateFromMeasurements(base, plan, measured), base);
}

// --- Interpreter pick counters. ----------------------------------------

/// Per-strategy counts of the picks PlanSelector makes for each
/// distinct atp() selector of `program` on delim(`input`), the tree a
/// run plans against.
std::array<std::int64_t, 3> ExpectedPicks(const Program& program,
                                          const Tree& input,
                                          const PlannerCalibration& cal) {
  const TreeStats stats = ComputeTreeStats(Delimit(input).tree);
  std::array<std::int64_t, 3> picks{};
  std::set<std::string> seen;
  for (const Rule& rule : program.rules()) {
    if (rule.action.kind != Action::Kind::kLookAhead) continue;
    if (!seen.insert(rule.action.selector.ToString()).second) continue;
    ++picks[static_cast<std::size_t>(
        PlanSelector(stats, rule.action.selector, cal).strategy)];
  }
  return picks;
}

TEST(PlannerPicks, CountersMatchPlanSelectorAndPricingKeepsTheRun) {
  auto program = Example32Program("a");
  ASSERT_TRUE(program.ok());
  PlannerCalibration no_dense;
  no_dense.dense_word_cost = 1e18;
  PlannerCalibration no_compile = no_dense;
  no_compile.interval_span_cost = 1e18;

  std::mt19937 rng(99);
  RandomTreeOptions options;
  options.labels = {"a", "sigma", "delta"};
  options.attributes = {"a"};
  for (int n : {24, 400}) {
    options.num_nodes = n;
    Tree t = RandomTree(rng, options);
    // Every selector is evaluated (so planned) only if a delta node
    // starts a subcomputation.
    bool has_delta = false;
    for (NodeId u = 0; u < static_cast<NodeId>(t.size()); ++u) {
      has_delta = has_delta || t.LabelName(t.label(u)) == "delta";
    }
    ASSERT_TRUE(has_delta) << PrintTerm(t);

    RunOptions planned_opts;
    planned_opts.record_trace = true;
    auto planned = Interpreter(*program, planned_opts).Run(t);
    ASSERT_TRUE(planned.ok()) << planned.status().ToString();
    EXPECT_GT(planned->stats.compiled_selector_evals, 0) << "n=" << n;

    for (const PlannerCalibration& cal :
         {PlannerCalibration{}, no_dense, no_compile}) {
      RunOptions opts = planned_opts;
      opts.planner_calibration = &cal;
      auto run = Interpreter(*program, opts).Run(t);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      const RunStats& st = run->stats;
      const std::array<std::int64_t, 3> expected =
          ExpectedPicks(*program, t, cal);
      EXPECT_EQ(st.planner_picks_reference, expected[0]) << "n=" << n;
      EXPECT_EQ(st.planner_picks_dense, expected[1]) << "n=" << n;
      EXPECT_EQ(st.planner_picks_interval, expected[2]) << "n=" << n;
    }

    // Pricing compilation out sends every selector to the reference
    // evaluator without changing the run.
    RunOptions ref_opts = planned_opts;
    ref_opts.planner_calibration = &no_compile;
    auto ref_run = Interpreter(*program, ref_opts).Run(t);
    ASSERT_TRUE(ref_run.ok()) << ref_run.status().ToString();
    EXPECT_EQ(ref_run->stats.compiled_selector_evals, 0);
    EXPECT_EQ(ref_run->accepted, planned->accepted);
    EXPECT_EQ(ref_run->reason, planned->reason);
    EXPECT_EQ(ref_run->stats.steps, planned->stats.steps);
    EXPECT_EQ(ref_run->trace, planned->trace);
  }
}

// --- The differential oracle: planned == every fixed strategy. ---------

/// Random FO tree formulas over {x, y} (same generator family as
/// tests/compiled_eval_test.cc, reproduced here so the two oracles can
/// evolve independently).
class SelectorGen {
 public:
  explicit SelectorGen(std::mt19937& rng) : rng_(rng) {}

  Formula Gen(int depth, std::vector<std::string> scope) {
    if (depth <= 0) return Atom(scope);
    switch (rng_() % 8) {
      case 0:
        return Atom(scope);
      case 1:
        return Formula::Not(Gen(depth - 1, scope));
      case 2:
        return Formula::And(Gen(depth - 1, scope), Gen(depth - 1, scope));
      case 3:
        return Formula::Or(Gen(depth - 1, scope), Gen(depth - 1, scope));
      case 4:
        return Formula::Implies(Gen(depth - 1, scope), Gen(depth - 1, scope));
      case 5: {
        std::string v = FreshVar(scope);
        scope.push_back(v);
        return Formula::Exists(v, Gen(depth - 1, scope));
      }
      case 6: {
        std::string v = FreshVar(scope);
        scope.push_back(v);
        return Formula::Forall(v, Gen(depth - 1, scope));
      }
      default:
        return Formula::Iff(Atom(scope), Gen(depth - 1, scope));
    }
  }

 private:
  const std::string& Var(const std::vector<std::string>& scope) {
    return scope[rng_() % scope.size()];
  }

  std::string FreshVar(const std::vector<std::string>& scope) {
    if (rng_() % 4 == 0) return Var(scope);
    return std::string("q") + std::to_string(rng_() % 3);
  }

  Formula Atom(const std::vector<std::string>& scope) {
    switch (rng_() % 10) {
      case 0:
        return Formula::Edge(Var(scope), Var(scope));
      case 1:
        return Formula::Sibling(Var(scope), Var(scope));
      case 2:
        return Formula::Descendant(Var(scope), Var(scope));
      case 3:
        return Formula::Succ(Var(scope), Var(scope));
      case 4:
        return Formula::VarEq(Var(scope), Var(scope));
      case 5:
        return Formula::Label(Var(scope), rng_() % 2 ? "a" : "b");
      case 6:
        return Formula::Root(Var(scope));
      case 7:
        return Formula::Leaf(Var(scope));
      case 8:
        return Formula::First(Var(scope));
      default:
        return Formula::Last(Var(scope));
    }
  }

  std::mt19937& rng_;
};

/// Evaluates `formula` from `origin` the way the interpreter would
/// execute `plan`: reference directly, compiled via the planned repr
/// with the runtime decline->reference fallback.
std::vector<NodeId> ExecutePlan(const Tree& tree, const AxisIndex& index,
                                const Formula& formula,
                                const SelectorPlan& plan, NodeId origin) {
  if (plan.strategy == PlanStrategy::kCompiledDense ||
      plan.strategy == PlanStrategy::kCompiledInterval) {
    auto compiled = CompileSelector(index, formula, "x", "y", plan.repr);
    if (compiled.ok()) return compiled->SelectFrom(origin);
  }
  auto reference = SelectNodes(tree, formula, origin);
  EXPECT_TRUE(reference.ok()) << formula.ToString();
  return reference.ok() ? *reference : std::vector<NodeId>{};
}

TEST(PlannerDifferentialOracle, PlannedMatchesEveryFixedStrategy) {
  std::mt19937 rng(20260809);
  SelectorGen gen(rng);
  RandomTreeOptions options;

  int instances = 0;
  int reference_picks = 0;
  int compiled_picks = 0;
  while (instances < 520) {
    options.num_nodes = 1 + static_cast<int>(rng() % 18);
    Tree tree = RandomTree(rng, options);
    TreeStats stats = ComputeTreeStats(tree);
    AxisIndex index(tree);
    Formula formula = gen.Gen(1 + static_cast<int>(rng() % 3), {"x", "y"});
    ++instances;

    SelectorPlan plan = PlanSelector(stats, formula);
    if (plan.strategy == PlanStrategy::kReference) {
      ++reference_picks;
    } else {
      ++compiled_picks;
    }

    auto dense = CompileSelector(index, formula, "x", "y", AxisRepr::kDense);
    auto interval =
        CompileSelector(index, formula, "x", "y", AxisRepr::kInterval);
    ASSERT_EQ(dense.ok(), interval.ok()) << formula.ToString();

    for (NodeId origin = 0; origin < static_cast<NodeId>(tree.size());
         ++origin) {
      auto reference = SelectNodes(tree, formula, origin);
      ASSERT_TRUE(reference.ok()) << formula.ToString();
      ASSERT_EQ(ExecutePlan(tree, index, formula, plan, origin), *reference)
          << "planned " << PlanStrategyName(plan.strategy) << " for "
          << formula.ToString() << " on " << PrintTerm(tree) << " at origin "
          << origin;
      if (dense.ok()) {
        ASSERT_EQ(dense->SelectFrom(origin), *reference) << formula.ToString();
        ASSERT_EQ(interval->SelectFrom(origin), *reference)
            << formula.ToString();
      }
    }
  }
  // The oracle only proves something if the planner actually exercises
  // both sides of the decision on this distribution.
  EXPECT_GE(instances, 500);
  EXPECT_GT(reference_picks, 0);
  EXPECT_GT(compiled_picks, 0);
}

}  // namespace
}  // namespace treewalk
