#include "src/xtm/run.h"

#include <algorithm>
#include <functional>
#include <map>
#include <tuple>
#include <vector>

#include "src/automata/step.h"
#include "src/tree/delimited.h"

namespace treewalk {

namespace {

struct Config {
  NodeId node;
  StateId state;
  std::vector<int> tape;  // trailing blanks trimmed
  std::size_t head = 0;
  std::vector<DataValue> registers;

  friend auto operator<=>(const Config&, const Config&) = default;
};

class XtmEngine {
 public:
  XtmEngine(const Xtm& machine, const Tree& tree, const XtmOptions& options)
      : machine_(machine),
        tree_(tree),
        options_(options),
        states_(machine.States()),
        dispatch_(machine.transitions, states_, tree),
        accept_state_(states_.Find(machine.accept_state)),
        universal_(states_.size(), false) {
    for (const std::string& q : machine.universal_states) {
      universal_[states_.Find(q)] = true;
    }
    for (const XtmTransition& t : machine.transitions) {
      next_states_.push_back(states_.Find(t.next_state));
      attr_ids_.push_back(
          t.guard.kind == XtmGuard::Kind::kNone
              ? kNoAttr
              : tree.FindAttribute(t.guard.attr));
      load_attr_ids_.push_back(
          t.reg_op.kind == XtmRegOp::Kind::kNone
              ? kNoAttr
              : tree.FindAttribute(t.reg_op.attr));
    }
  }

  Config InitialConfig() const {
    Config c;
    c.node = tree_.root();
    c.state = states_.Find(machine_.initial_state);
    c.registers.assign(static_cast<std::size_t>(machine_.num_registers), 0);
    return c;
  }

  Status ApplicableTransitions(const Config& c,
                               std::vector<std::size_t>& out) const {
    out.clear();
    int read = c.head < c.tape.size() ? c.tape[c.head] : 0;
    for (std::size_t i : dispatch_.Candidates(c.state, tree_.label(c.node))) {
      const XtmTransition& t = machine_.transitions[i];
      if (t.read != -1 && t.read != read) continue;
      if (t.guard.kind != XtmGuard::Kind::kNone) {
        if (attr_ids_[i] == kNoAttr) {
          return InvalidArgument("guard references unknown attribute '" +
                                 t.guard.attr + "'");
        }
        DataValue attr = tree_.attr(attr_ids_[i], c.node);
        DataValue reg = c.registers[static_cast<std::size_t>(t.guard.reg)];
        bool equal = attr == reg;
        if (t.guard.kind == XtmGuard::Kind::kRegEqualsAttr ? !equal : equal) {
          continue;
        }
      }
      out.push_back(i);
    }
    return Status::Ok();
  }

  /// Applies transition `index`; returns false when the move leaves the
  /// tree or the tape head falls off the left end (that branch rejects).
  bool Apply(std::size_t index, Config& c, std::size_t& space) const {
    const XtmTransition& t = machine_.transitions[index];
    NodeId v = MoveFrom(tree_, c.node, t.tree_move);
    if (v == kNoNode) return false;
    c.node = v;
    // Tape write.
    if (t.write != -1) {
      if (c.head >= c.tape.size()) c.tape.resize(c.head + 1, 0);
      c.tape[c.head] = t.write;
    }
    // Tape move.
    switch (t.tape_move) {
      case TapeMove::kStay:
        break;
      case TapeMove::kLeft:
        if (c.head == 0) return false;
        --c.head;
        break;
      case TapeMove::kRight:
        ++c.head;
        break;
    }
    space = std::max(space, c.head + 1);
    while (!c.tape.empty() && c.tape.back() == 0) c.tape.pop_back();
    // Register op.  An unknown attribute was rejected when the machine
    // was matched against the tree (see ApplicableTransitions' guard
    // handling); loads against a missing column read kBottom so the
    // machine still behaves deterministically on label-only trees.
    if (t.reg_op.kind == XtmRegOp::Kind::kLoadAttr) {
      c.registers[static_cast<std::size_t>(t.reg_op.reg)] =
          load_attr_ids_[index] == kNoAttr
              ? kBottom
              : tree_.attr(load_attr_ids_[index], c.node);
    }
    c.state = next_states_[index];
    return true;
  }

  bool Accepting(const Config& c) const { return c.state == accept_state_; }
  bool Universal(const Config& c) const { return universal_[c.state]; }
  const std::string& StateName(const Config& c) const {
    return states_.Name(c.state);
  }

  const Xtm& machine_;
  const Tree& tree_;
  const XtmOptions& options_;
  const StateIds states_;
  const RuleDispatch dispatch_;
  const StateId accept_state_;
  std::vector<bool> universal_;  // by StateId
  std::vector<StateId> next_states_;  // by transition index
  std::vector<AttrId> attr_ids_;
  std::vector<AttrId> load_attr_ids_;
};

}  // namespace

Result<XtmResult> RunXtm(const Xtm& machine, const Tree& input,
                         XtmOptions options) {
  TREEWALK_RETURN_IF_ERROR(machine.Validate());
  if (input.empty()) return InvalidArgument("empty input tree");
  DelimitedTree delimited = Delimit(input);
  XtmEngine engine(machine, delimited.tree, options);

  XtmResult result;
  result.space = 1;
  Config c = engine.InitialConfig();
  std::vector<std::size_t> applicable;
  while (true) {
    if (engine.Accepting(c)) {
      result.accepted = true;
      return result;
    }
    TREEWALK_RETURN_IF_ERROR(engine.ApplicableTransitions(c, applicable));
    if (applicable.empty()) {
      result.accepted = engine.Universal(c);
      return result;
    }
    if (applicable.size() > 1) {
      return Nondeterminism(
          "deterministic run: " + std::to_string(applicable.size()) +
          " transitions apply in state " + engine.StateName(c));
    }
    if (++result.steps > options.max_steps) {
      return ResourceExhausted("xTM exceeded max_steps");
    }
    if (!engine.Apply(applicable[0], c, result.space)) {
      result.accepted = false;  // fell off the tree or tape
      return result;
    }
  }
}

Result<XtmResult> RunXtmAlternating(const Xtm& machine, const Tree& input,
                                    XtmOptions options) {
  TREEWALK_RETURN_IF_ERROR(machine.Validate());
  if (input.empty()) return InvalidArgument("empty input tree");
  DelimitedTree delimited = Delimit(input);
  XtmEngine engine(machine, delimited.tree, options);

  XtmResult result;
  result.space = 1;

  // Phase 1: materialize the reachable configuration graph.  Successor
  // index -1 encodes a branch that falls off the tree/tape (never
  // accepting).
  constexpr int kFalseSink = -1;
  std::map<Config, int> index_of;
  std::vector<Config> configs;
  std::vector<std::vector<int>> successors;
  std::vector<bool> is_universal;
  std::vector<bool> is_accepting_terminal;

  auto intern = [&](const Config& c) -> Result<int> {
    auto it = index_of.find(c);
    if (it != index_of.end()) return it->second;
    if (configs.size() >= options.max_configs) {
      return ResourceExhausted("alternating xTM exceeded max_configs");
    }
    int id = static_cast<int>(configs.size());
    index_of.emplace(c, id);
    configs.push_back(c);
    successors.emplace_back();
    is_universal.push_back(engine.Universal(c));
    is_accepting_terminal.push_back(engine.Accepting(c));
    return id;
  };

  TREEWALK_ASSIGN_OR_RETURN(int initial, intern(engine.InitialConfig()));
  std::vector<std::size_t> applicable;
  for (int id = 0; id < static_cast<int>(configs.size()); ++id) {
    if (is_accepting_terminal[static_cast<std::size_t>(id)]) continue;
    Config c = configs[static_cast<std::size_t>(id)];  // copy: vector grows
    TREEWALK_RETURN_IF_ERROR(engine.ApplicableTransitions(c, applicable));
    for (std::size_t t : applicable) {
      if (++result.steps > options.max_steps) {
        return ResourceExhausted("alternating xTM exceeded max_steps");
      }
      Config next = c;
      if (!engine.Apply(t, next, result.space)) {
        successors[static_cast<std::size_t>(id)].push_back(kFalseSink);
        continue;
      }
      TREEWALK_ASSIGN_OR_RETURN(int next_id, intern(next));
      successors[static_cast<std::size_t>(id)].push_back(next_id);
    }
  }
  result.configs = configs.size();

  // Phase 2: least fixpoint.  Start all-false; OR for existential
  // configurations, AND for universal ones (a stuck universal
  // configuration is a vacuous conjunction and accepts immediately).
  std::vector<bool> value(configs.size(), false);
  for (std::size_t id = 0; id < configs.size(); ++id) {
    value[id] = is_accepting_terminal[id] ||
                (is_universal[id] && successors[id].empty());
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t id = 0; id < configs.size(); ++id) {
      if (value[id] || is_accepting_terminal[id]) continue;
      if (successors[id].empty()) continue;  // stuck existential: false
      bool next;
      if (is_universal[id]) {
        next = true;
        for (int s : successors[id]) {
          if (s == kFalseSink || !value[static_cast<std::size_t>(s)]) {
            next = false;
            break;
          }
        }
      } else {
        next = false;
        for (int s : successors[id]) {
          if (s != kFalseSink && value[static_cast<std::size_t>(s)]) {
            next = true;
            break;
          }
        }
      }
      if (next) {
        value[id] = true;
        changed = true;
      }
    }
  }
  result.accepted = value[static_cast<std::size_t>(initial)];
  return result;
}

}  // namespace treewalk
