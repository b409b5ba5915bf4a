// RuleDispatch (src/automata/step.h), keyed by dense state ids, against
// a slow twin written straight from Definition 3.1 on state names.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "src/automata/step.h"
#include "src/tree/delimited.h"
#include "src/tree/generate.h"
#include "src/xtm/machine.h"

namespace treewalk {
namespace {

/// Definition 3.1's rule filter as a linear scan: a rule is a candidate
/// in state q at a sigma-node if its state is q and its label is sigma,
/// or its label is "*" and no rule for q names sigma exactly.  Labels
/// are compared as strings, so a label absent from the tree neither
/// matches nor shadows.
template <typename RuleT>
std::vector<std::uint32_t> SlowCandidates(const std::vector<RuleT>& rules,
                                          const std::string& state,
                                          const std::string& label) {
  bool shadowed = false;
  for (const RuleT& rule : rules) {
    if (rule.state == state && rule.label == label) shadowed = true;
  }
  std::vector<std::uint32_t> out;
  for (std::uint32_t i = 0; i < rules.size(); ++i) {
    if (rules[i].state != state) continue;
    if (rules[i].label == label || (rules[i].label == "*" && !shadowed)) {
      out.push_back(i);
    }
  }
  return out;
}

std::vector<std::uint32_t> ToVector(std::span<const std::uint32_t> span) {
  return {span.begin(), span.end()};
}

TEST(RuleDispatch, MatchesTheLinearScanOnRandomRuleSets) {
  const std::vector<std::string> states = {"q0", "q1", "q2", "q3"};
  // Wildcards, labels of the tree (delimiters included), and labels no
  // tree here uses.
  const std::vector<std::string> labels = {
      "*", "*", "a", "b", "c", "#top", "#open", "#close", "#leaf", "zz", "d"};
  std::mt19937 rng(20021);
  std::uniform_int_distribution<std::size_t> pick_state(0, states.size() - 1);
  std::uniform_int_distribution<std::size_t> pick_label(0, labels.size() - 1);
  std::uniform_int_distribution<int> num_rules(0, 14);

  RandomTreeOptions options;
  options.num_nodes = 12;
  options.labels = {"a", "b", "c"};
  int checked = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const Tree tree = Delimit(RandomTree(rng, options)).tree;
    std::vector<Rule> rules;
    std::vector<XtmTransition> transitions;
    for (int r = num_rules(rng); r > 0; --r) {
      Rule rule;
      rule.state = states[pick_state(rng)];
      rule.label = labels[pick_label(rng)];
      XtmTransition t;
      t.state = rule.state;
      t.label = rule.label;
      rules.push_back(rule);
      transitions.push_back(t);
    }
    // Every state, plus one no rule mentions, at every label of the tree.
    std::vector<std::string> probe_states = states;
    probe_states.push_back("unused");
    const StateIds ids(probe_states);
    const RuleDispatch by_rule(rules, ids, tree);
    const RuleDispatch by_transition(transitions, ids, tree);
    for (const std::string& state : probe_states) {
      const StateId id = ids.Find(state);
      ASSERT_NE(id, kNoState);
      EXPECT_EQ(ids.Name(id), state);
      for (Symbol s = 0; s < static_cast<Symbol>(tree.labels().size()); ++s) {
        const std::vector<std::uint32_t> want =
            SlowCandidates(rules, state, tree.LabelName(s));
        EXPECT_EQ(ToVector(by_rule.Candidates(id, s)), want)
            << "trial " << trial << " state " << state << " label "
            << tree.LabelName(s);
        EXPECT_EQ(ToVector(by_transition.Candidates(id, s)), want);
        ++checked;
      }
    }
    EXPECT_TRUE(by_rule.Candidates(kNoState, 0).empty());
  }
  EXPECT_GT(checked, 1000);
}

}  // namespace
}  // namespace treewalk
