#ifndef TREEWALK_XTM_MACHINE_H_
#define TREEWALK_XTM_MACHINE_H_

#include <set>
#include <string>
#include <vector>

#include "src/automata/program.h"  // Move
#include "src/common/result.h"

namespace treewalk {

/// Movement of the work-tape head.
enum class TapeMove { kLeft, kRight, kStay };

/// Optional register operation attached to a transition.  xTM registers
/// (after Hull & Su's domain Turing machines) each hold one data value.
struct XtmRegOp {
  enum class Kind {
    kNone,
    kLoadAttr,  ///< reg := val_attr(current node)
  };
  Kind kind = Kind::kNone;
  int reg = 0;
  std::string attr;
};

/// Optional applicability guard comparing a register against an attribute
/// of the current node.  A transition with a guard only applies when the
/// comparison holds — this is how xTMs branch on data values.
struct XtmGuard {
  enum class Kind { kNone, kRegEqualsAttr, kRegNotEqualsAttr };
  Kind kind = Kind::kNone;
  int reg = 0;
  std::string attr;
};

/// One xTM transition.  Matched on (state, node label, tape symbol) plus
/// the guard.  `label` may be "*" (wildcard, shadowed by exact-label
/// transitions for the same state, as for tree-walking programs);
/// `read` may be -1 (any symbol).
struct XtmTransition {
  std::string state;
  std::string label;
  int read = -1;
  XtmGuard guard;

  std::string next_state;
  Move tree_move = Move::kStay;
  int write = -1;  ///< -1: leave the cell unchanged
  TapeMove tape_move = TapeMove::kStay;
  XtmRegOp reg_op;
};

/// An XML Turing machine (Definition 6.1): a tree-walking finite control
/// over delim(t) with a one-way infinite work-tape over a finite
/// alphabet {0 (blank), 1, ..., tape_alphabet_size-1}, plus data-value
/// registers.  States not listed in `universal_states` are existential;
/// a machine where every configuration has at most one applicable
/// transition is deterministic and can be run by XtmRunner::Run, any
/// machine by RunAlternating (acceptance = least fixpoint over the
/// AND/OR configuration graph).
///
/// Acceptance: reaching `accept_state`.  A stuck existential
/// configuration rejects; a stuck universal configuration accepts
/// (vacuous conjunction).
struct Xtm {
  std::string initial_state;
  std::string accept_state;
  int tape_alphabet_size = 2;
  int num_registers = 0;
  std::vector<XtmTransition> transitions;
  std::set<std::string> universal_states;

  /// Structural checks: nonempty states, symbols within the alphabet,
  /// register indices within range, no transition out of accept_state.
  Status Validate() const;

  /// Every state the machine mentions (unsorted, with repeats).
  std::vector<std::string> States() const;
};

}  // namespace treewalk

#endif  // TREEWALK_XTM_MACHINE_H_
