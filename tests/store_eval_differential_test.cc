// The prepared store evaluator (PreparedStoreFormula, src/relstore/
// store_eval.h) against its reference twin EvalStoreSentence /
// EvalStoreFormula: random store formulas over random stores, at nodes
// with and without attributes, with string constants, missing
// attributes, nested quantifiers, unknown relations, free variables in
// guards and bad tuple-variable lists.  Every evaluation must return the
// identical Result: the same truth value or relation, or the same
// status code and message.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "src/common/interner.h"
#include "src/relstore/store.h"
#include "src/relstore/store_eval.h"

namespace treewalk {
namespace {

class FormulaGen {
 public:
  explicit FormulaGen(std::mt19937& rng) : rng_(rng) {}

  Formula Random(int depth) {
    const int pick = depth <= 0 ? Uniform(0, 2) : Uniform(0, 10);
    switch (pick) {
      case 0:
      case 1:
        return Atom();
      case 2:
        return Uniform(0, 1) == 0 ? Formula::True() : Formula::False();
      case 3:
        return Formula::Not(Random(depth - 1));
      case 4:
        return Formula::And(Random(depth - 1), Random(depth - 1));
      case 5:
        return Formula::Or(Random(depth - 1), Random(depth - 1));
      case 6:
        return Formula::Implies(Random(depth - 1), Random(depth - 1));
      case 7:
        return Formula::Iff(Random(depth - 1), Random(depth - 1));
      case 8:
      case 9:
        return Formula::Exists(Var(), Random(depth - 1));
      default:
        return Formula::Forall(Var(), Random(depth - 1));
    }
  }

  /// Closes most formulas under the quantifiers they need; some keep a
  /// free variable, which a sentence must reject.
  Formula Sentence(int depth) {
    Formula f = Random(depth);
    if (Uniform(0, 9) == 0) return f;
    for (const std::string& v : f.FreeVariables()) {
      f = Uniform(0, 1) == 0 ? Formula::Exists(v, f) : Formula::Forall(v, f);
    }
    return f;
  }

  /// A tuple-variable list: the free variables in a random order, now
  /// and then with an extra column, a duplicate or a missing variable.
  std::vector<std::string> Vars(const Formula& f) {
    std::vector<std::string> vars;
    for (const std::string& v : f.FreeVariables()) vars.push_back(v);
    std::shuffle(vars.begin(), vars.end(), rng_);
    switch (Uniform(0, 9)) {
      case 0:
        vars.push_back("extra");
        break;
      case 1:
        if (!vars.empty()) vars.push_back(vars.front());
        break;
      case 2:
        if (!vars.empty()) vars.pop_back();
        break;
      default:
        break;
    }
    return vars;
  }

 private:
  int Uniform(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng_);
  }

  std::string Var() {
    static const char* const kVars[] = {"x", "y", "z"};
    return kVars[Uniform(0, 2)];
  }

  Term RandomTerm() {
    switch (Uniform(0, 9)) {
      case 0:
      case 1:
      case 2:
      case 3:
        return Term::Var(Var());
      case 4:
      case 5:
        return Term::Int(Uniform(0, 3));
      case 6:
        return Term::Str(Uniform(0, 1) == 0 ? "s" : "t");
      case 7:
        return Term::CurrentAttr("a");
      case 8:
        return Term::CurrentAttr("b");
      default:
        return Uniform(0, 3) == 0 ? Term::CurrentAttr("zz")
                                  : Term::Var(Var());
    }
  }

  Formula Atom() {
    switch (Uniform(0, 19)) {
      case 0:
        return Formula::Relation("B", {});
      case 1:  // unknown relation
        return Formula::Relation("Z", {RandomTerm()});
      case 2:  // wrong arity
        return Formula::Relation("X", {RandomTerm(), RandomTerm()});
      case 3:
      case 4:
      case 5:
      case 6:
        return Formula::Relation("X", {RandomTerm()});
      case 7:
      case 8:
      case 9:
      case 10:
        return Formula::Relation("R", {RandomTerm(), RandomTerm()});
      default:
        return Formula::Eq(RandomTerm(), RandomTerm());
    }
  }

  std::mt19937& rng_;
};

/// The current node as each evaluator sees it.
struct NodeView {
  std::map<std::string, DataValue> by_name;  // reference
  Interner names;                            // prepared: column order
  std::vector<DataValue> columns;
};

NodeView MakeNode(std::mt19937& rng, int kind,
                  const std::vector<DataValue>& pool) {
  NodeView node;
  std::uniform_int_distribution<std::size_t> pick(0, pool.size() - 1);
  // kind 0: no attributes; 1: "a" only; 2: "b" then "a".
  std::vector<std::string> attrs;
  if (kind == 1) attrs = {"a"};
  if (kind == 2) attrs = {"b", "a"};
  for (const std::string& name : attrs) {
    const DataValue value = pool[pick(rng)];
    node.by_name[name] = value;
    node.names.Intern(name);
    node.columns.push_back(value);
  }
  return node;
}

Store RandomStore(std::mt19937& rng, const std::vector<DataValue>& pool) {
  Store store = Store::Create({{"X", 1}, {"R", 2}, {"B", 0}}).value();
  std::uniform_int_distribution<std::size_t> pick(0, pool.size() - 1);
  std::uniform_int_distribution<int> count(0, 4);
  Relation x(1);
  for (int i = count(rng); i > 0; --i) x.Insert({pool[pick(rng)]});
  Relation r(2);
  for (int i = count(rng); i > 0; --i) {
    r.Insert({pool[pick(rng)], pool[pick(rng)]});
  }
  Relation b(0);
  if (count(rng) % 2 == 0) b.Insert({});
  EXPECT_TRUE(store.Replace(0, std::move(x)).ok());
  EXPECT_TRUE(store.Replace(1, std::move(r)).ok());
  EXPECT_TRUE(store.Replace(2, std::move(b)).ok());
  return store;
}

template <typename T>
void ExpectSameResult(const Result<T>& prepared, const Result<T>& reference,
                      const std::string& what) {
  ASSERT_EQ(prepared.ok(), reference.ok())
      << what << "\n  prepared: "
      << (prepared.ok() ? "ok" : prepared.status().ToString())
      << "\n  reference: "
      << (reference.ok() ? "ok" : reference.status().ToString());
  if (reference.ok()) {
    EXPECT_EQ(*prepared, *reference) << what;
  } else {
    EXPECT_EQ(prepared.status().code(), reference.status().code()) << what;
    EXPECT_EQ(prepared.status().message(), reference.status().message())
        << what;
  }
}

TEST(PreparedStoreEval, MatchesTheReferenceOnRandomFormulas) {
  std::mt19937 rng(20260);
  FormulaGen gen(rng);
  ValueInterner values;
  const std::vector<DataValue> pool = {0, 1, 2, 3, values.ValueFor("s"),
                                       values.ValueFor("t")};
  const Store schema = Store::Create({{"X", 1}, {"R", 2}, {"B", 0}}).value();

  int true_sentences = 0, nonempty_updates = 0, errors = 0, checks = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const Formula guard = gen.Sentence(4);
    const Formula psi = gen.Random(4);
    const std::vector<std::string> vars = gen.Vars(psi);
    const PreparedStoreFormula prepared_guard =
        PreparedStoreFormula::Sentence(guard, schema);
    const PreparedStoreFormula prepared_psi =
        PreparedStoreFormula::Update(psi, schema, vars);

    for (int node_kind = 0; node_kind < 3; ++node_kind) {
      for (bool with_interner : {true, false}) {
        // One binding per (formula, node kind, interner), reused across
        // stores and nodes, as a run reuses it across steps.
        StoreBinding guard_binding;
        StoreBinding psi_binding;
        PreparedStoreContext context;
        Relation out;
        for (int sample = 0; sample < 3; ++sample) {
          const Store store = RandomStore(rng, pool);
          const NodeView node = MakeNode(rng, node_kind, pool);

          StoreContext reference;
          reference.store = &store;
          reference.current_attrs = node.by_name;
          reference.values = with_interner ? &values : nullptr;
          context.store = &store;
          context.attribute_names = &node.names;
          context.node_attrs = node.columns;
          context.values = with_interner ? &values : nullptr;

          const std::string what = "trial " + std::to_string(trial) +
                                   " guard " + guard.ToString() +
                                   " store " + store.ToString();
          const Result<bool> want = EvalStoreSentence(reference, guard);
          ExpectSameResult(prepared_guard.EvalSentence(context, guard_binding),
                           want, what);

          std::string columns;
          for (const std::string& v : vars) columns += v + " ";
          const std::string what_psi = "trial " + std::to_string(trial) +
                                       " update " + psi.ToString() +
                                       " over [" + columns + "] store " +
                                       store.ToString();
          const Result<Relation> want_psi =
              EvalStoreFormula(reference, psi, vars);
          const Status status =
              prepared_psi.EvalUpdate(context, psi_binding, out);
          ExpectSameResult(status.ok() ? Result<Relation>(out)
                                       : Result<Relation>(status),
                           want_psi, what_psi);
          if (HasFatalFailure()) return;

          checks += 2;
          if (want.ok() && *want) ++true_sentences;
          if (want_psi.ok() && !want_psi->empty()) ++nonempty_updates;
          errors += !want.ok() + !want_psi.ok();
        }
      }
    }
  }
  // The generator reaches every outcome often.
  EXPECT_GT(true_sentences, 300);
  EXPECT_GT(nonempty_updates, 300);
  EXPECT_GT(errors, 300);
  EXPECT_GT(checks - errors - true_sentences - nonempty_updates, 300);
}

TEST(PreparedStoreEval, LiteralTrueIsRecognized) {
  const Store schema = Store::Create({{"X", 1}}).value();
  EXPECT_TRUE(PreparedStoreFormula::Sentence(Formula::True(), schema)
                  .IsLiteralTrue());
  EXPECT_FALSE(PreparedStoreFormula::Sentence(
                   Formula::Not(Formula::False()), schema)
                   .IsLiteralTrue());
  EXPECT_FALSE(
      PreparedStoreFormula::Sentence(Formula(), schema).IsLiteralTrue());
}

}  // namespace
}  // namespace treewalk
