#ifndef TREEWALK_AUTOMATA_STEP_H_
#define TREEWALK_AUTOMATA_STEP_H_

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/automata/program.h"
#include "src/common/result.h"
#include "src/relstore/store.h"
#include "src/relstore/store_eval.h"
#include "src/tree/tree.h"

namespace treewalk {

// The shared decisions of one step of Definition 3.1: which rules can
// fire at (state, node label), which of them has a true guard, and where
// a move leads.  Every walker — the interpreter, the configuration-graph
// evaluator (Thm 7.1(2)), the Lemma 4.5 protocol, the xTM runner and the
// LOGSPACE pebble simulation (Thm 7.1(1)) — takes them from here and
// keeps only its own loop.

/// The node m_d(u) a move in direction d reaches from u, or kNoNode when
/// the move leaves the tree.
NodeId MoveFrom(const Tree& tree, NodeId u, Move move);

/// Rule candidates by (state, node label), resolved once per (rule list,
/// tree).  Wildcard shadowing is settled at construction: an exact rule
/// for (q, sigma) hides q's "*" rules at sigma-nodes, and a rule whose
/// label the tree never uses neither matches nor shadows.  Reads only
/// the rules' `.state` and `.label`, so tree-walking rules and xTM
/// transitions share it.  Lookups do not allocate.
class RuleDispatch {
 public:
  template <typename RuleT>
  RuleDispatch(const std::vector<RuleT>& rules, const Tree& tree) {
    for (std::uint32_t i = 0; i < rules.size(); ++i) {
      Add(i, rules[i].state, rules[i].label, tree);
    }
  }

  /// Indices of the rules that may fire in `state` at a node labelled
  /// `label`, in program order.  Guards are not consulted.
  std::span<const std::uint32_t> Candidates(const std::string& state,
                                            Symbol label) const;

 private:
  struct StateRules {
    std::vector<std::uint32_t> wildcard;
    std::map<Symbol, std::vector<std::uint32_t>> exact;
  };

  void Add(std::uint32_t index, const std::string& state,
           const std::string& label, const Tree& tree);

  std::unordered_map<std::string, StateRules> by_state_;
};

/// The store-logic context at node u: the store plus the attribute
/// values of u (Section 3's attr(.) terms).
StoreContext MakeStoreContext(const Tree& tree, NodeId u, const Store& store);

/// The unique rule of `program` whose guard holds at [u, state, store],
/// nullptr when none does, or kNondeterminism naming the label, the
/// state and both guards when two do.  `dispatch` must be built from
/// program.rules() over `tree`.
Result<const Rule*> FindRule(const Program& program,
                             const RuleDispatch& dispatch, const Tree& tree,
                             NodeId u, const std::string& state,
                             const Store& store);

}  // namespace treewalk

#endif  // TREEWALK_AUTOMATA_STEP_H_
