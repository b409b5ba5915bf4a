// Tests for the set-at-a-time compiled FO evaluator (src/logic/compile.h)
// and its per-tree axis index (src/tree/axis_index.h): unit tests for the
// bitset primitives, targeted selector shapes (including guarded joins,
// shadowing, and fallback triggers), and the headline property test that
// proves compiled == reference on >= 1000 random (formula, tree)
// instances, checking every origin of every tree.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "src/logic/compile.h"
#include "src/logic/parser.h"
#include "src/logic/tree_eval.h"
#include "src/tree/axis_index.h"
#include "src/tree/generate.h"
#include "src/tree/term_io.h"

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

// --- NodeSet / NodeMatrix primitives. ----------------------------------

TEST(NodeSet, BasicAlgebraAndDocumentOrder) {
  NodeSet s(130);
  s.set(0);
  s.set(63);
  s.set(64);
  s.set(129);
  EXPECT_TRUE(s.test(63));
  EXPECT_FALSE(s.test(62));
  EXPECT_EQ(s.count(), 4u);
  EXPECT_EQ(s.ToVector(), (std::vector<NodeId>{0, 63, 64, 129}));

  NodeSet t(130);
  t.SetRange(60, 70);
  EXPECT_EQ(t.count(), 10u);
  NodeSet u = s;
  u.Intersect(t);
  EXPECT_EQ(u.ToVector(), (std::vector<NodeId>{63, 64}));
  u = s;
  u.Union(t);
  EXPECT_EQ(u.count(), 12u);

  NodeSet c = NodeSet::Full(130);
  EXPECT_TRUE(c.all());
  c.Complement();
  EXPECT_FALSE(c.any());
}

TEST(NodeMatrix, TransposeAndReductions) {
  NodeMatrix m(70);
  m.set(0, 69);
  m.set(69, 0);
  m.set(5, 5);
  NodeMatrix t = m.Transposed();
  EXPECT_TRUE(t.test(69, 0));
  EXPECT_TRUE(t.test(0, 69));
  EXPECT_TRUE(t.test(5, 5));

  NodeSet any = m.AnyPerRow();
  EXPECT_EQ(any.ToVector(), (std::vector<NodeId>{0, 5, 69}));

  NodeMatrix full(70);
  full.Complement();  // all-zero -> all-one
  EXPECT_TRUE(full.AllPerRow().all());
  full.set(3, 3);  // still full
  EXPECT_TRUE(full.test(3, 3));
}

// --- AxisIndex against Tree navigation, brute force. -------------------

TEST(AxisIndex, MatchesTreePredicatesOnRandomTrees) {
  std::mt19937 rng(7);
  RandomTreeOptions options;
  options.attributes = {"a", "b"};
  for (int iter = 0; iter < 20; ++iter) {
    options.num_nodes = 1 + static_cast<int>(rng() % 40);
    Tree tree = RandomTree(rng, options);
    AxisIndex index(tree);
    const NodeId n = static_cast<NodeId>(tree.size());
    for (NodeId u = 0; u < n; ++u) {
      EXPECT_EQ(index.Roots().test(u), tree.IsRoot(u));
      EXPECT_EQ(index.Leaves().test(u), tree.IsLeaf(u));
      EXPECT_EQ(index.FirstChildren().test(u), tree.IsFirstChild(u));
      EXPECT_EQ(index.LastChildren().test(u), tree.IsLastChild(u));
      EXPECT_EQ(index.LabelSet(tree.LabelName(tree.label(u))).test(u), true);
      for (NodeId v = 0; v < n; ++v) {
        EXPECT_EQ(index.EdgeMatrix().test(u, v), tree.Parent(v) == u);
        EXPECT_EQ(index.DescendantMatrix().test(u, v),
                  tree.IsStrictAncestor(u, v));
        EXPECT_EQ(index.SuccMatrix().test(u, v), tree.NextSibling(u) == v);
        bool sib = u != v && tree.Parent(u) != kNoNode &&
                   tree.Parent(u) == tree.Parent(v) &&
                   tree.ChildIndex(u) < tree.ChildIndex(v);
        EXPECT_EQ(index.SiblingMatrix().test(u, v), sib);
        EXPECT_EQ(index.IdentityMatrix().test(u, v), u == v);
      }
      AttrId a = tree.FindAttribute("a");
      ASSERT_NE(a, kNoAttr);
      EXPECT_TRUE(index.AttrValueSet(a, tree.attr(a, u)).test(u));
      EXPECT_FALSE(index.AttrValueSet(a, 999).test(u));
    }
    EXPECT_FALSE(index.LabelSet("no-such-label").any());
  }
}

// --- Compiled selector equivalence on targeted shapes. -----------------

/// Asserts that CompileSelector succeeds on `selector` under BOTH
/// matrix representations and that each agrees with the reference
/// SelectNodes at every origin of `tree` — the three-way oracle
/// interval == dense == reference.
void ExpectCompiledMatches(const Tree& tree, const std::string& selector) {
  AxisIndex index(tree);
  Formula formula = Parse(selector);
  auto dense = CompileSelector(index, formula, "x", "y", AxisRepr::kDense);
  ASSERT_TRUE(dense.ok()) << selector << ": " << dense.status().ToString();
  auto interval =
      CompileSelector(index, formula, "x", "y", AxisRepr::kInterval);
  ASSERT_TRUE(interval.ok()) << selector << ": "
                             << interval.status().ToString();
  EXPECT_EQ(dense->repr(), AxisRepr::kDense);
  EXPECT_EQ(interval->repr(), AxisRepr::kInterval);
  for (NodeId origin = 0; origin < static_cast<NodeId>(tree.size());
       ++origin) {
    auto reference = SelectNodes(tree, formula, origin);
    ASSERT_TRUE(reference.ok()) << selector;
    EXPECT_EQ(dense->SelectFrom(origin), *reference)
        << selector << " (dense) at origin " << origin;
    EXPECT_EQ(interval->SelectFrom(origin), *reference)
        << selector << " (interval) at origin " << origin;
  }
}

TEST(CompiledSelector, AtomsAndBooleans) {
  Tree tree = Term("a(b(a,b,a),b,a(b(b)))");
  for (const char* s : {
           "E(x, y)", "desc(x, y)", "sib(x, y)", "succ(x, y)", "x = y",
           "E(y, x)", "desc(y, x)", "sib(y, x)", "succ(y, x)",
           "lab(y, #a)", "lab(y, #b)", "lab(y, #zzz)", "lab(x, #a)",
           "root(y)", "leaf(y)", "first(y)", "last(y)", "root(x)",
           "leaf(x)", "true", "false", "!desc(x, y)",
           "desc(x, y) & lab(y, #b)", "desc(x, y) | sib(x, y)",
           "desc(x, y) -> leaf(y)", "leaf(x) <-> leaf(y)",
       }) {
    ExpectCompiledMatches(tree, s);
  }
}

TEST(CompiledSelector, QuantifiersAndJoins) {
  Tree tree = Term("a(b(a,b,a(a,b)),b,a(b(b),a))");
  for (const char* s : {
           // Row reductions.
           "exists z (E(x, z) & desc(z, y))",
           "exists z (desc(x, z) & E(z, y))",
           "forall z (desc(y, z) -> lab(z, #a))",
           "exists z (desc(x, y) & E(y, z))",  // miniscoping pulls desc out
           // Guarded joins (x and y both under one exists).
           "exists z (E(x, z) & E(z, y))",
           "exists z (E(x, z) & sib(z, y))",
           "exists z exists w (E(x, z) & E(z, w) & E(w, y))",
           // De Morgan join for forall.
           "forall z (sib(x, z) | desc(z, y) | leaf(z))",
           // Quantifier over an unused variable.
           "exists z (desc(x, y))", "forall z (desc(x, y))",
           "exists z (z = z)", "forall z (leaf(z)) | E(x, y)",
           // Shadowing of x and y.
           "exists y (E(x, y) & leaf(y)) & desc(x, y)",
           "exists x (desc(y, x) & leaf(x)) | E(x, y)",
           // Degenerate same-variable atoms.
           "E(x, x)", "desc(y, y)", "sib(x, x)", "succ(y, y)", "x = x",
       }) {
    ExpectCompiledMatches(tree, s);
  }
}

TEST(CompiledSelector, AttributeEqualities) {
  std::mt19937 rng(11);
  RandomTreeOptions options;
  options.num_nodes = 24;
  options.attributes = {"a", "b"};
  options.value_range = 3;  // force collisions so joins are non-trivial
  Tree tree = RandomTree(rng, options);
  for (const char* s : {
           "val(a, x) = val(a, y)", "val(a, x) = val(b, y)",
           "val(a, y) = val(b, y)", "val(a, x) = val(b, x)",
           "val(a, y) = 1", "2 = val(b, y)", "val(a, x) = 7",
           "1 = 1", "1 = 2",
           "desc(x, y) & val(a, x) = val(a, y)",
           "exists z (E(x, z) & val(a, z) = val(a, y))",
       }) {
    ExpectCompiledMatches(tree, s);
  }
}

TEST(CompiledSelector, SingleNodeTree) {
  Tree tree = Term("a");
  for (const char* s : {"x = y", "E(x, y)", "desc(x, y)", "root(y)",
                        "leaf(y)", "exists z (z = y)", "forall z (leaf(z))"}) {
    ExpectCompiledMatches(tree, s);
  }
}

TEST(CompiledSelector, DeclinesGracefully) {
  Tree tree = Term("a(b,c)");
  AxisIndex index(tree);
  // Missing attribute: the reference errors, so the compiler declines
  // and callers fall back to get the identical error.
  EXPECT_FALSE(CompileSelector(index, Parse("val(nope, y) = 1"), "x", "y",
                               AxisRepr::kDense)
                   .ok());
  EXPECT_FALSE(SelectNodes(tree, Parse("val(nope, y) = 1"), 0).ok());
  // Free variable outside {x, y}.
  EXPECT_FALSE(CompileSelector(index, Parse("desc(x, q)"), "x", "y",
                               AxisRepr::kDense)
                   .ok());
  // Genuinely width-3 subformula: no two-variable materialization.
  Formula wide = Parse("exists z (E(x, z) & E(z, y) & desc(x, y))");
  auto compiled = CompileSelector(index, wide, "x", "y", AxisRepr::kDense);
  if (compiled.ok()) {  // if a future compiler handles it, it must agree
    for (NodeId origin = 0; origin < static_cast<NodeId>(tree.size());
         ++origin) {
      EXPECT_EQ(compiled->SelectFrom(origin),
                *SelectNodes(tree, wide, origin));
    }
  }
  // Empty trees cannot be compiled (callers fall back).
  Tree empty;
  AxisIndex empty_index(empty);
  EXPECT_FALSE(CompileSelector(empty_index, Parse("desc(x, y)"), "x", "y",
                               AxisRepr::kDense)
                   .ok());
}

// --- Random-formula property test: compiled == reference. --------------

/// Random FO tree formulas over variables in scope, weighted toward the
/// compilable two-variable fragment but including shadowing, negation,
/// implications, and attribute equalities.
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
    // Mostly fresh names; occasionally shadow one in scope.
    if (rng_() % 4 == 0) return Var(scope);
    return std::string("q") + std::to_string(rng_() % 3);
  }

  Formula Atom(const std::vector<std::string>& scope) {
    switch (rng_() % 12) {
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
      case 9:
        return Formula::Last(Var(scope));
      case 10:
        return Formula::Eq(Term::AttrOf("a", Var(scope)),
                           Term::Int(static_cast<DataValue>(rng_() % 4)));
      default:
        return Formula::Eq(Term::AttrOf(rng_() % 2 ? "a" : "b", Var(scope)),
                           Term::AttrOf("a", Var(scope)));
    }
  }

  std::mt19937& rng_;
};

TEST(CompiledSelectorProperty, MatchesReferenceOnRandomInstances) {
  std::mt19937 rng(20260805);
  SelectorGen gen(rng);
  RandomTreeOptions options;
  options.attributes = {"a", "b"};
  options.value_range = 4;

  int compiled_instances = 0;
  int declined_instances = 0;
  int attempts = 0;
  while (compiled_instances < 1100 && attempts < 8000) {
    ++attempts;
    options.num_nodes = 1 + static_cast<int>(rng() % 14);
    Tree tree = RandomTree(rng, options);
    AxisIndex index(tree);
    Formula formula = gen.Gen(1 + static_cast<int>(rng() % 3), {"x", "y"});
    auto compiled = CompileSelector(index, formula, "x", "y",
                                    AxisRepr::kDense);
    if (!compiled.ok()) {
      ++declined_instances;
      // The compiler declines on formula shape, never on representation.
      EXPECT_FALSE(
          CompileSelector(index, formula, "x", "y", AxisRepr::kInterval)
              .ok())
          << formula.ToString();
      continue;
    }
    auto interval =
        CompileSelector(index, formula, "x", "y", AxisRepr::kInterval);
    ASSERT_TRUE(interval.ok()) << formula.ToString() << ": "
                               << interval.status().ToString();
    ++compiled_instances;
    for (NodeId origin = 0; origin < static_cast<NodeId>(tree.size());
         ++origin) {
      auto reference = SelectNodes(tree, formula, origin);
      ASSERT_TRUE(reference.ok()) << formula.ToString();
      ASSERT_EQ(compiled->SelectFrom(origin), *reference)
          << formula.ToString() << " on " << PrintTerm(tree) << " at origin "
          << origin;
      ASSERT_EQ(interval->SelectFrom(origin), *reference)
          << formula.ToString() << " (interval) on " << PrintTerm(tree)
          << " at origin " << origin;
    }
  }
  // The acceptance bar: >= 1000 random (formula, tree) instances proven
  // equal under both representations (each checked at every origin).
  // Also make sure the fallback path is actually exercised.
  EXPECT_GE(compiled_instances, 1000);
  EXPECT_GT(declined_instances, 0);
}

// --- Large-n spot checks: interval selectors at n = 100000. ------------
//
// Exhaustive every-origin comparison is quadratic, so at n = 10^5 the
// oracle samples: a fixed spread of origins checked against the
// reference evaluator, plus ground-truth navigation for the
// grandchildren selector.  Only the interval representation fits at
// this size — the dense matrix alone would be 1.25GB.
TEST(CompiledSelectorLargeN, IntervalMatchesReferenceAtSampledOrigins) {
  std::mt19937 rng(3301);
  RandomTreeOptions options;
  options.num_nodes = 100000;
  options.max_children = 6;
  options.attributes = {};
  Tree tree = RandomTree(rng, options);
  AxisIndex index(tree);

  Formula grandchildren = Parse("exists z (E(x, z) & E(z, y))");
  auto compiled =
      CompileSelector(index, grandchildren, "x", "y", AxisRepr::kInterval);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  EXPECT_EQ(compiled->repr(), AxisRepr::kInterval);

  std::vector<NodeId> origins = {0, 1, 17, 4096, 50000, 99998, 99999};
  for (int i = 0; i < 40; ++i) {
    origins.push_back(static_cast<NodeId>(rng() % tree.size()));
  }
  for (NodeId origin : origins) {
    // Ground truth by direct navigation: v is a grandchild of origin.
    std::vector<NodeId> expected;
    for (NodeId c = tree.FirstChild(origin); c != kNoNode;
         c = tree.NextSibling(c)) {
      for (NodeId g = tree.FirstChild(c); g != kNoNode;
           g = tree.NextSibling(g)) {
        expected.push_back(g);
      }
    }
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(compiled->SelectFrom(origin), expected)
        << "grandchildren at origin " << origin;
  }

  // A mixed-axis selector checked against the reference evaluator at a
  // few origins (the reference is per-origin linear-ish here, so a
  // handful is affordable).
  Formula mixed = Parse("desc(x, y) & lab(y, #a) & !leaf(y)");
  auto compiled_mixed =
      CompileSelector(index, mixed, "x", "y", AxisRepr::kInterval);
  ASSERT_TRUE(compiled_mixed.ok()) << compiled_mixed.status().ToString();
  EXPECT_EQ(compiled_mixed->repr(), AxisRepr::kInterval);
  for (NodeId origin : {NodeId{0}, NodeId{123}, NodeId{77777}}) {
    auto reference = SelectNodes(tree, mixed, origin);
    ASSERT_TRUE(reference.ok());
    EXPECT_EQ(compiled_mixed->SelectFrom(origin), *reference)
        << "mixed at origin " << origin;
  }
}

TEST(CompiledSentenceProperty, MatchesReferenceOnRandomInstances) {
  std::mt19937 rng(42);
  SelectorGen gen(rng);
  RandomTreeOptions options;
  options.attributes = {"a", "b"};
  options.value_range = 4;

  int compiled_instances = 0;
  int attempts = 0;
  while (compiled_instances < 400 && attempts < 4000) {
    ++attempts;
    options.num_nodes = 1 + static_cast<int>(rng() % 12);
    Tree tree = RandomTree(rng, options);
    AxisIndex index(tree);
    Formula body = gen.Gen(1 + static_cast<int>(rng() % 2), {"x", "y"});
    Formula sentence =
        rng() % 2 ? Formula::Exists("x", Formula::Exists("y", body))
                  : Formula::Forall("x", Formula::Forall("y", body));
    auto compiled = CompileSentence(index, sentence, AxisRepr::kDense);
    if (!compiled.ok()) continue;
    ++compiled_instances;
    auto interval = CompileSentence(index, sentence, AxisRepr::kInterval);
    ASSERT_TRUE(interval.ok()) << sentence.ToString();
    auto reference = EvalTreeSentence(tree, sentence);
    ASSERT_TRUE(reference.ok()) << sentence.ToString();
    ASSERT_EQ(compiled->Eval(), *reference)
        << sentence.ToString() << " on " << PrintTerm(tree);
    ASSERT_EQ(interval->Eval(), *reference)
        << sentence.ToString() << " (interval) on " << PrintTerm(tree);
  }
  EXPECT_GE(compiled_instances, 300);
}

}  // namespace
}  // namespace treewalk
