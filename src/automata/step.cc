#include "src/automata/step.h"

#include <algorithm>
#include <cassert>
#include <map>

namespace treewalk {

NodeId MoveFrom(const Tree& tree, NodeId u, Move move) {
  switch (move) {
    case Move::kStay:
      return u;
    case Move::kLeft:
      return tree.PrevSibling(u);
    case Move::kRight:
      return tree.NextSibling(u);
    case Move::kUp:
      return tree.Parent(u);
    case Move::kDown:
      return tree.FirstChild(u);
  }
  return kNoNode;
}

StateIds::StateIds(std::vector<std::string> names) : names_(std::move(names)) {
  std::sort(names_.begin(), names_.end());
  names_.erase(std::unique(names_.begin(), names_.end()), names_.end());
}

StateId StateIds::Find(const std::string& name) const {
  auto it = std::lower_bound(names_.begin(), names_.end(), name);
  if (it == names_.end() || *it != name) return kNoState;
  return static_cast<StateId>(it - names_.begin());
}

void RuleDispatch::Add(std::uint32_t index, StateId state,
                       const std::string& label, const Tree& tree) {
  assert(state < by_state_.size());
  StateRules& rules = by_state_[state];
  if (label == "*") {
    rules.wildcard.push_back(index);
    return;
  }
  // A label the tree never uses can neither match nor shadow.
  Symbol symbol = tree.FindLabel(label);
  if (symbol < 0) return;
  auto it = std::lower_bound(
      rules.exact.begin(), rules.exact.end(), symbol,
      [](const auto& entry, Symbol s) { return entry.first < s; });
  if (it == rules.exact.end() || it->first != symbol) {
    it = rules.exact.insert(it, {symbol, {}});
  }
  it->second.push_back(index);
}

std::span<const std::uint32_t> RuleDispatch::Candidates(StateId state,
                                                        Symbol label) const {
  if (state >= by_state_.size()) return {};
  const StateRules& rules = by_state_[state];
  auto it = std::lower_bound(
      rules.exact.begin(), rules.exact.end(), label,
      [](const auto& entry, Symbol s) { return entry.first < s; });
  if (it != rules.exact.end() && it->first == label) return it->second;
  return rules.wildcard;
}

PreparedProgram::PreparedProgram(const Program& program)
    : program_(&program), states_(program.States()) {
  initial_state_ = states_.Find(program.initial_state());
  final_state_ = states_.Find(program.final_state());
  const Store& schema = program.initial_store();
  std::map<std::string, std::size_t> first_use;
  rules_.resize(program.rules().size());
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    const Rule& rule = program.rules()[i];
    PreparedRule& prepared = rules_[i];
    prepared.rule = &rule;
    prepared.state = states_.Find(rule.state);
    prepared.next_state = states_.Find(rule.action.next_state);
    prepared.guard = PreparedStoreFormula::Sentence(rule.guard, schema);
    switch (rule.action.kind) {
      case Action::Kind::kMove:
        break;
      case Action::Kind::kUpdate:
        prepared.update = PreparedStoreFormula::Update(
            rule.action.update, schema, rule.action.update_vars);
        break;
      case Action::Kind::kLookAhead:
        prepared.call_state = states_.Find(rule.action.call_state);
        prepared.selector_id =
            first_use.emplace(rule.action.selector.ToString(), i)
                .first->second;
        break;
    }
  }
}

StepContext::StepContext(const PreparedProgram& program, const Tree& tree)
    : program_(program),
      tree_(tree),
      dispatch_(program.program().rules(), program.states(), tree),
      guards_(program.rules().size()),
      updates_(program.rules().size()),
      node_attrs_(tree.num_attributes()) {
  context_.attribute_names = &tree.attributes();
  context_.values = &tree.values();
}

void StepContext::Enter(NodeId u, const Store& store) {
  for (AttrId a = 0; a < static_cast<AttrId>(node_attrs_.size()); ++a) {
    node_attrs_[static_cast<std::size_t>(a)] = tree_.attr(a, u);
  }
  context_.store = &store;
  context_.node_attrs = node_attrs_;
}

Result<const PreparedRule*> StepContext::FindRule(NodeId u, StateId state,
                                                  const Store& store) {
  const Symbol label = tree_.label(u);
  const PreparedRule* found = nullptr;
  bool entered = false;
  for (std::uint32_t i : dispatch_.Candidates(state, label)) {
    const PreparedRule& rule = program_.rules()[i];
    if (!rule.guard.IsLiteralTrue()) {
      if (!entered) {
        Enter(u, store);
        entered = true;
      }
      TREEWALK_ASSIGN_OR_RETURN(bool holds,
                                rule.guard.EvalSentence(context_, guards_[i]));
      if (!holds) continue;
    }
    if (found != nullptr) {
      return Nondeterminism("rules for (" + tree_.LabelName(label) + ", " +
                            program_.states().Name(state) +
                            ") both apply: guards " +
                            found->rule->guard.ToString() + " and " +
                            rule.rule->guard.ToString());
    }
    found = &rule;
  }
  return found;
}

Result<const Relation*> StepContext::EvalUpdate(const PreparedRule& rule,
                                                NodeId u, const Store& store) {
  Enter(u, store);
  const std::size_t index =
      static_cast<std::size_t>(&rule - program_.rules().data());
  TREEWALK_RETURN_IF_ERROR(
      rule.update.EvalUpdate(context_, updates_[index], update_));
  return &update_;
}

}  // namespace treewalk
