#include "src/automata/builder.h"

#include <set>
#include <tuple>

#include "src/logic/parser.h"

namespace treewalk {

ProgramBuilder& ProgramBuilder::SetStates(std::string_view initial,
                                          std::string_view final) {
  initial_state_ = std::string(initial);
  final_state_ = std::string(final);
  return *this;
}

ProgramBuilder& ProgramBuilder::DeclareRegister(std::string_view name,
                                                int arity) {
  registers_.emplace_back(std::string(name), arity);
  return *this;
}

ProgramBuilder& ProgramBuilder::InitRegister(std::string_view name,
                                             DataValue value) {
  initial_contents_.emplace_back(std::string(name),
                                 Relation::Singleton(value));
  return *this;
}

ProgramBuilder& ProgramBuilder::InitRegisterRelation(std::string_view name,
                                                     Relation relation) {
  initial_contents_.emplace_back(std::string(name), std::move(relation));
  return *this;
}

ProgramBuilder& ProgramBuilder::OnMove(std::string_view label,
                                       std::string_view state,
                                       std::string_view guard,
                                       std::string_view next_state,
                                       Move move) {
  PendingRule r;
  r.label = std::string(label);
  r.state = std::string(state);
  r.guard = std::string(guard);
  r.kind = Action::Kind::kMove;
  r.next_state = std::string(next_state);
  r.move = move;
  pending_.push_back(std::move(r));
  return *this;
}

ProgramBuilder& ProgramBuilder::OnUpdate(
    std::string_view label, std::string_view state, std::string_view guard,
    std::string_view next_state, std::string_view reg, std::string_view psi,
    std::vector<std::string> vars) {
  PendingRule r;
  r.label = std::string(label);
  r.state = std::string(state);
  r.guard = std::string(guard);
  r.kind = Action::Kind::kUpdate;
  r.next_state = std::string(next_state);
  r.reg = std::string(reg);
  r.formula = std::string(psi);
  r.vars = std::move(vars);
  pending_.push_back(std::move(r));
  return *this;
}

ProgramBuilder& ProgramBuilder::OnLookAhead(
    std::string_view label, std::string_view state, std::string_view guard,
    std::string_view next_state, std::string_view reg, std::string_view phi,
    std::string_view call_state) {
  PendingRule r;
  r.label = std::string(label);
  r.state = std::string(state);
  r.guard = std::string(guard);
  r.kind = Action::Kind::kLookAhead;
  r.next_state = std::string(next_state);
  r.reg = std::string(reg);
  r.formula = std::string(phi);
  r.call_state = std::string(call_state);
  pending_.push_back(std::move(r));
  return *this;
}

namespace {

Status RuleError(std::size_t index, const std::string& message) {
  return InvalidArgument("rule #" + std::to_string(index) + ": " + message);
}

}  // namespace

Result<Program> ProgramBuilder::Build() const {
  if (initial_state_.empty() || final_state_.empty()) {
    return InvalidArgument("initial/final states not set");
  }

  Program program;
  program.class_ = class_;
  program.initial_state_ = initial_state_;
  program.final_state_ = final_state_;

  // --- Register schema. ----------------------------------------------
  if (class_ == ProgramClass::kTw && !registers_.empty()) {
    return FailedPrecondition("class tw allows no registers");
  }
  if (class_ == ProgramClass::kTwL) {
    for (const auto& [name, arity] : registers_) {
      if (arity != 1) {
        return FailedPrecondition("class tw^l requires unary registers; '" +
                                  name + "' has arity " +
                                  std::to_string(arity));
      }
    }
  }
  TREEWALK_ASSIGN_OR_RETURN(program.initial_store_,
                            Store::Create(registers_));
  for (const auto& [name, relation] : initial_contents_) {
    int index = program.initial_store_.IndexOf(name);
    if (index < 0) return NotFound("unknown register '" + name + "'");
    TREEWALK_RETURN_IF_ERROR(program.initial_store_.Replace(
        static_cast<std::size_t>(index), relation));
    if (class_ == ProgramClass::kTwL && relation.size() > 1) {
      return FailedPrecondition("class tw^l registers hold at most one "
                                "value; initial '" +
                                name + "' has " +
                                std::to_string(relation.size()));
    }
  }

  const Store& store = program.initial_store_;
  auto arity_of = [&store](const std::string& name) {
    return store.ArityOf(name);
  };

  // --- Rules. ----------------------------------------------------------
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    const PendingRule& p = pending_[i];
    if (p.state == final_state_) {
      return RuleError(i, "no transition may leave the final state");
    }
    Rule rule;
    rule.label = p.label;
    rule.state = p.state;

    auto guard = ParseFormula(p.guard);
    if (!guard.ok()) {
      return RuleError(i, "guard: " + guard.status().message());
    }
    rule.guard = *guard;
    if (class_ == ProgramClass::kTw) {
      if (rule.guard.node().kind != FormulaKind::kTrue) {
        return RuleError(i, "class tw has no store; guard must be 'true'");
      }
    } else {
      Status valid = ValidateStoreFormula(rule.guard, arity_of);
      if (!valid.ok()) return RuleError(i, "guard: " + valid.message());
      if (!rule.guard.FreeVariables().empty()) {
        return RuleError(i, "guard must be a sentence");
      }
    }

    rule.action.kind = p.kind;
    rule.action.next_state = p.next_state;
    switch (p.kind) {
      case Action::Kind::kMove:
        rule.action.move = p.move;
        break;
      case Action::Kind::kUpdate: {
        if (class_ == ProgramClass::kTw) {
          return RuleError(i, "class tw has no registers to update");
        }
        int reg = store.IndexOf(p.reg);
        if (reg < 0) return RuleError(i, "unknown register '" + p.reg + "'");
        rule.action.register_index = reg;
        auto psi = ParseFormula(p.formula);
        if (!psi.ok()) {
          return RuleError(i, "update: " + psi.status().message());
        }
        rule.action.update = *psi;
        Status valid = ValidateStoreFormula(rule.action.update, arity_of);
        if (!valid.ok()) return RuleError(i, "update: " + valid.message());
        rule.action.update_vars = p.vars;
        if (static_cast<int>(p.vars.size()) != store.ArityOf(p.reg)) {
          return RuleError(i, "update variable list has " +
                                  std::to_string(p.vars.size()) +
                                  " entries for register of arity " +
                                  std::to_string(store.ArityOf(p.reg)));
        }
        for (const std::string& v : rule.action.update.FreeVariables()) {
          bool found = false;
          for (const std::string& w : p.vars) {
            if (v == w) {
              found = true;
              break;
            }
          }
          if (!found) {
            return RuleError(i, "update formula has stray free variable '" +
                                    v + "'");
          }
        }
        break;
      }
      case Action::Kind::kLookAhead: {
        if (class_ == ProgramClass::kTw || class_ == ProgramClass::kTwR) {
          return RuleError(
              i, std::string("class ") + ProgramClassName(class_) +
                     " has no look-ahead (Definition 5.1)");
        }
        int reg = store.IndexOf(p.reg);
        if (reg < 0) return RuleError(i, "unknown register '" + p.reg + "'");
        rule.action.register_index = reg;
        if (store.At(static_cast<std::size_t>(reg)).arity() !=
            store.At(0).arity()) {
          return RuleError(i,
                           "look-ahead target register must share the arity "
                           "of the first register (subcomputations return "
                           "their first register)");
        }
        auto phi = ParseFormula(p.formula);
        if (!phi.ok()) {
          return RuleError(i, "selector: " + phi.status().message());
        }
        rule.action.selector = *phi;
        Status valid = ValidateTreeFormula(rule.action.selector);
        if (!valid.ok()) return RuleError(i, "selector: " + valid.message());
        if (!rule.action.selector.IsExistentialPrenex()) {
          return RuleError(i, "selector must be FO(exists*) (Section 2.3)");
        }
        for (const std::string& v : rule.action.selector.FreeVariables()) {
          if (v != "x" && v != "y") {
            return RuleError(
                i, "selector free variables must be within {x, y}; found '" +
                       v + "'");
          }
        }
        rule.action.call_state = p.call_state;
        break;
      }
    }
    program.rules_.push_back(std::move(rule));
  }

  // --- Static determinism screen: identical (label, state) pairs with
  // syntactically identical guards are certainly nondeterministic; the
  // general case is checked at runtime.
  std::set<std::tuple<std::string, std::string, std::string>> seen;
  for (const Rule& rule : program.rules_) {
    if (!seen.emplace(rule.label, rule.state, rule.guard.ToString()).second) {
      return Nondeterminism("two rules for (" + rule.label + ", " +
                            rule.state + ") with identical guard " +
                            rule.guard.ToString());
    }
  }
  return program;
}

}  // namespace treewalk
