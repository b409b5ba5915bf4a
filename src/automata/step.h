#ifndef TREEWALK_AUTOMATA_STEP_H_
#define TREEWALK_AUTOMATA_STEP_H_

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/automata/program.h"
#include "src/common/result.h"
#include "src/relstore/store.h"
#include "src/relstore/store_eval.h"
#include "src/tree/tree.h"

namespace treewalk {

// The shared decisions of one step of Definition 3.1: which rules can
// fire at (state, node label), which of them has a true guard, what an
// update writes and where a move leads.  Every walker — the interpreter,
// the configuration-graph evaluator (Thm 7.1(2)), the Lemma 4.5
// protocol, the xTM runner and the LOGSPACE pebble simulation
// (Thm 7.1(1)) — takes them from here and keeps only its own loop.
//
// The work is split in three (docs/EVALUATOR.md, "Prepared step"):
// StateIds and PreparedProgram are built once per program, StepContext
// once per run on one tree, and a step itself then allocates nothing.

/// The node m_d(u) a move in direction d reaches from u, or kNoNode when
/// the move leaves the tree.
NodeId MoveFrom(const Tree& tree, NodeId u, Move move);

/// Dense state id: a state's index in its StateIds.
using StateId = std::uint32_t;
inline constexpr StateId kNoState = ~StateId{0};

/// Dense ids for a set of state names: each name's index in the sorted,
/// duplicate-free list (for a program, the index in Program::States()).
/// Walkers keep ids in their configurations and turn them back into
/// names only for messages and traces.
class StateIds {
 public:
  StateIds() = default;
  /// `names` may be unsorted and repeat names.
  explicit StateIds(std::vector<std::string> names);

  /// The id of `name`, or kNoState.
  StateId Find(const std::string& name) const;
  const std::string& Name(StateId id) const { return names_[id]; }
  std::size_t size() const { return names_.size(); }

 private:
  std::vector<std::string> names_;  // sorted, unique
};

/// Rule candidates by (state id, node label), resolved once per (rule
/// list, tree).  Wildcard shadowing is settled at construction: an exact
/// rule for (q, sigma) hides q's "*" rules at sigma-nodes, and a rule
/// whose label the tree never uses neither matches nor shadows.  Reads
/// only the rules' `.state` and `.label`, so tree-walking rules and xTM
/// transitions share it.  Every rule's state must be in `states`.
/// Lookups index by state and search a short sorted label list; they
/// neither hash nor allocate.
class RuleDispatch {
 public:
  template <typename RuleT>
  RuleDispatch(const std::vector<RuleT>& rules, const StateIds& states,
               const Tree& tree)
      : by_state_(states.size()) {
    for (std::uint32_t i = 0; i < rules.size(); ++i) {
      Add(i, states.Find(rules[i].state), rules[i].label, tree);
    }
  }

  /// Indices of the rules that may fire in `state` at a node labelled
  /// `label`, in program order.  Guards are not consulted.
  std::span<const std::uint32_t> Candidates(StateId state,
                                            Symbol label) const;

 private:
  struct StateRules {
    std::vector<std::uint32_t> wildcard;
    /// Exact-label rules, sorted by label.
    std::vector<std::pair<Symbol, std::vector<std::uint32_t>>> exact;
  };

  void Add(std::uint32_t index, StateId state, const std::string& label,
           const Tree& tree);

  std::vector<StateRules> by_state_;  // by StateId
};

/// One rule of a prepared program: its states as ids and its store
/// formulas prepared.
struct PreparedRule {
  const Rule* rule = nullptr;
  StateId state = 0;
  StateId next_state = 0;
  /// kLookAhead: the state the subcomputations start in.
  StateId call_state = 0;
  PreparedStoreFormula guard;
  /// kUpdate: psi over the rule's update variables.
  PreparedStoreFormula update;
  /// kLookAhead: rules whose selectors print identically evaluate
  /// identically, so they share one id (the first such rule's index).
  std::size_t selector_id = 0;
};

/// A program prepared once for any number of runs: states numbered,
/// guards and updates validated against the register schema and
/// compiled to slots (PreparedStoreFormula).  Immutable; `program` must
/// outlive it.
class PreparedProgram {
 public:
  explicit PreparedProgram(const Program& program);

  const Program& program() const { return *program_; }
  const StateIds& states() const { return states_; }
  StateId initial_state() const { return initial_state_; }
  StateId final_state() const { return final_state_; }
  /// By rule index, parallel to program().rules().
  const std::vector<PreparedRule>& rules() const { return rules_; }

 private:
  const Program* program_;
  StateIds states_;
  StateId initial_state_ = 0;
  StateId final_state_ = 0;
  std::vector<PreparedRule> rules_;
};

/// The per-run half of the prepared step: rule dispatch over one tree,
/// each formula's binding to the tree's attribute names and interner
/// (made lazily, at most once per run), and the scratch every
/// evaluation reuses.  Not thread-safe; `program` and `tree` must
/// outlive it.
class StepContext {
 public:
  StepContext(const PreparedProgram& program, const Tree& tree);

  /// The unique rule whose guard holds at [u, state, store], nullptr
  /// when none does, or kNondeterminism naming the label, the state and
  /// both guards when two do.  Literal `true` guards hold without
  /// reading the store.
  Result<const PreparedRule*> FindRule(NodeId u, StateId state,
                                       const Store& store);

  /// The relation `rule`'s update psi defines at [u, store] (rule form 2
  /// of Definition 3.1).  Valid until the next EvalUpdate call.
  Result<const Relation*> EvalUpdate(const PreparedRule& rule, NodeId u,
                                     const Store& store);

 private:
  /// Points the evaluation context at [u, store].
  void Enter(NodeId u, const Store& store);

  const PreparedProgram& program_;
  const Tree& tree_;
  const RuleDispatch dispatch_;
  /// By rule index.
  std::vector<StoreBinding> guards_;
  std::vector<StoreBinding> updates_;
  std::vector<DataValue> node_attrs_;
  PreparedStoreContext context_;
  Relation update_;
};

}  // namespace treewalk

#endif  // TREEWALK_AUTOMATA_STEP_H_
