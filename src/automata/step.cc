#include "src/automata/step.h"

#include <optional>

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

void RuleDispatch::Add(std::uint32_t index, const std::string& state,
                       const std::string& label, const Tree& tree) {
  StateRules& rules = by_state_[state];
  if (label == "*") {
    rules.wildcard.push_back(index);
    return;
  }
  // A label the tree never uses can neither match nor shadow.
  Symbol symbol = tree.FindLabel(label);
  if (symbol >= 0) rules.exact[symbol].push_back(index);
}

std::span<const std::uint32_t> RuleDispatch::Candidates(
    const std::string& state, Symbol label) const {
  auto found = by_state_.find(state);
  if (found == by_state_.end()) return {};
  const StateRules& rules = found->second;
  auto exact = rules.exact.find(label);
  if (exact != rules.exact.end()) return exact->second;
  return rules.wildcard;
}

StoreContext MakeStoreContext(const Tree& tree, NodeId u, const Store& store) {
  StoreContext context;
  context.store = &store;
  context.values = &tree.values();
  for (AttrId a = 0; a < static_cast<AttrId>(tree.num_attributes()); ++a) {
    context.current_attrs[tree.attributes().NameOf(a)] = tree.attr(a, u);
  }
  return context;
}

Result<const Rule*> FindRule(const Program& program,
                             const RuleDispatch& dispatch, const Tree& tree,
                             NodeId u, const std::string& state,
                             const Store& store) {
  Symbol label = tree.label(u);
  std::span<const std::uint32_t> candidates = dispatch.Candidates(state, label);
  if (candidates.empty()) return nullptr;
  const Rule* found = nullptr;
  // Built at the first guard that reads the store, at most once.  A
  // literal `true` guard holds without it: EvalStoreSentence(context,
  // true) cannot fail, so skipping the validation, free-variable scan
  // and active-domain sort is exactly equivalent.
  std::optional<StoreContext> context;
  for (std::uint32_t i : candidates) {
    const Rule& rule = program.rules()[i];
    if (!rule.guard.valid() || rule.guard.node().kind != FormulaKind::kTrue) {
      if (!context.has_value()) context = MakeStoreContext(tree, u, store);
      TREEWALK_ASSIGN_OR_RETURN(bool holds,
                                EvalStoreSentence(*context, rule.guard));
      if (!holds) continue;
    }
    if (found != nullptr) {
      return Nondeterminism("rules for (" + tree.LabelName(label) + ", " +
                            state + ") both apply: guards " +
                            found->guard.ToString() + " and " +
                            rule.guard.ToString());
    }
    found = &rule;
  }
  return found;
}

}  // namespace treewalk
