#include "src/relstore/store_eval.h"

#include <algorithm>
#include <cassert>

namespace treewalk {

namespace {

/// Collects the data constants of a formula into `out`; string constants
/// are resolved through the context's interner.
Status CollectConstants(const StoreContext& context, const Formula& f,
                        std::vector<DataValue>& out) {
  const FormulaNode& n = f.node();
  for (const Formula& c : n.children) {
    TREEWALK_RETURN_IF_ERROR(CollectConstants(context, c, out));
  }
  if (n.kind != FormulaKind::kAtom) return Status::Ok();
  for (const Term& t : n.terms) {
    switch (t.kind) {
      case Term::Kind::kIntConst:
        out.push_back(t.value);
        break;
      case Term::Kind::kStrConst:
        if (context.values == nullptr) {
          return InvalidArgument(
              "string constant \"" + t.text +
              "\" requires a ValueInterner in the store context");
        }
        out.push_back(context.values->ValueFor(t.text));
        break;
      case Term::Kind::kCurrentAttr: {
        auto it = context.current_attrs.find(t.attr);
        if (it == context.current_attrs.end()) {
          return InvalidArgument("current node has no attribute '" + t.attr +
                                 "'");
        }
        break;
      }
      default:
        break;
    }
  }
  return Status::Ok();
}

class StoreEvaluator {
 public:
  StoreEvaluator(const StoreContext& context, std::vector<DataValue> domain)
      : context_(context), domain_(std::move(domain)) {}

  bool Eval(const Formula& f, std::map<std::string, DataValue>& env) {
    const FormulaNode& n = f.node();
    switch (n.kind) {
      case FormulaKind::kTrue:
        return true;
      case FormulaKind::kFalse:
        return false;
      case FormulaKind::kNot:
        return !Eval(n.children[0], env);
      case FormulaKind::kAnd:
        return Eval(n.children[0], env) && Eval(n.children[1], env);
      case FormulaKind::kOr:
        return Eval(n.children[0], env) || Eval(n.children[1], env);
      case FormulaKind::kImplies:
        return !Eval(n.children[0], env) || Eval(n.children[1], env);
      case FormulaKind::kIff:
        return Eval(n.children[0], env) == Eval(n.children[1], env);
      case FormulaKind::kExists:
      case FormulaKind::kForall: {
        bool exists = n.kind == FormulaKind::kExists;
        auto it = env.find(n.var);
        bool had = it != env.end();
        DataValue saved = had ? it->second : 0;
        bool result = !exists;
        for (DataValue v : domain_) {
          env[n.var] = v;
          if (Eval(n.children[0], env) == exists) {
            result = exists;
            break;
          }
        }
        if (had) {
          env[n.var] = saved;
        } else {
          env.erase(n.var);
        }
        return result;
      }
      case FormulaKind::kAtom: {
        if (n.atom == AtomKind::kEq) {
          return Value(n.terms[0], env) == Value(n.terms[1], env);
        }
        assert(n.atom == AtomKind::kRelation);
        const Relation* rel = context_.store->Find(n.symbol);
        assert(rel != nullptr);
        Tuple t;
        t.reserve(n.terms.size());
        for (const Term& term : n.terms) t.push_back(Value(term, env));
        return rel->Contains(t);
      }
    }
    return false;
  }

 private:
  DataValue Value(const Term& t, std::map<std::string, DataValue>& env) {
    switch (t.kind) {
      case Term::Kind::kVar: {
        auto it = env.find(t.var);
        assert(it != env.end());
        return it->second;
      }
      case Term::Kind::kIntConst:
        return t.value;
      case Term::Kind::kStrConst:
        assert(context_.values != nullptr);
        return context_.values->ValueFor(t.text);
      case Term::Kind::kCurrentAttr: {
        auto it = context_.current_attrs.find(t.attr);
        assert(it != context_.current_attrs.end());
        return it->second;
      }
      case Term::Kind::kAttrOfVar:
        assert(false && "val(.,.) in store formula");
        return 0;
    }
    return 0;
  }

  const StoreContext& context_;
  std::vector<DataValue> domain_;
};

Status Validate(const StoreContext& context, const Formula& formula) {
  if (!formula.valid()) return InvalidArgument("empty formula");
  if (context.store == nullptr) {
    return InvalidArgument("store context has no store");
  }
  const Store* store = context.store;
  return ValidateStoreFormula(
      formula, [store](const std::string& name) { return store->ArityOf(name); });
}

}  // namespace

Result<std::vector<DataValue>> ActiveDomain(const StoreContext& context,
                                            const Formula& formula) {
  TREEWALK_RETURN_IF_ERROR(Validate(context, formula));
  std::vector<DataValue> domain = context.store->ActiveDomain();
  for (const auto& [name, value] : context.current_attrs) {
    domain.push_back(value);
  }
  TREEWALK_RETURN_IF_ERROR(CollectConstants(context, formula, domain));
  std::sort(domain.begin(), domain.end());
  domain.erase(std::unique(domain.begin(), domain.end()), domain.end());
  return domain;
}

Result<bool> EvalStoreSentence(const StoreContext& context,
                               const Formula& formula) {
  if (formula.valid() && !formula.FreeVariables().empty()) {
    return InvalidArgument("store sentence has free variables");
  }
  TREEWALK_ASSIGN_OR_RETURN(std::vector<DataValue> domain,
                            ActiveDomain(context, formula));
  StoreEvaluator evaluator(context, std::move(domain));
  std::map<std::string, DataValue> env;
  return evaluator.Eval(formula, env);
}

Result<Relation> EvalStoreFormula(const StoreContext& context,
                                  const Formula& formula,
                                  const std::vector<std::string>& vars) {
  TREEWALK_ASSIGN_OR_RETURN(std::vector<DataValue> domain,
                            ActiveDomain(context, formula));
  for (const std::string& v : formula.FreeVariables()) {
    if (std::find(vars.begin(), vars.end(), v) == vars.end()) {
      return InvalidArgument("free variable '" + v +
                             "' missing from the tuple variable list");
    }
  }
  for (std::size_t i = 0; i < vars.size(); ++i) {
    for (std::size_t j = i + 1; j < vars.size(); ++j) {
      if (vars[i] == vars[j]) {
        return InvalidArgument("duplicate tuple variable '" + vars[i] + "'");
      }
    }
  }

  StoreEvaluator evaluator(context, domain);
  Relation result(static_cast<int>(vars.size()));
  if (vars.empty()) {
    std::map<std::string, DataValue> env;
    if (evaluator.Eval(formula, env)) result.Insert({});
    return result;
  }

  std::map<std::string, DataValue> env;
  std::vector<std::size_t> odometer(vars.size(), 0);
  if (domain.empty()) return result;  // no tuples over an empty domain
  while (true) {
    Tuple tuple;
    tuple.reserve(vars.size());
    for (std::size_t i = 0; i < vars.size(); ++i) {
      env[vars[i]] = domain[odometer[i]];
      tuple.push_back(domain[odometer[i]]);
    }
    if (evaluator.Eval(formula, env)) result.Insert(tuple);
    std::size_t slot = vars.size() - 1;
    while (true) {
      if (++odometer[slot] < domain.size()) break;
      odometer[slot] = 0;
      if (slot == 0) return result;
      --slot;
    }
  }
}

// --- The prepared evaluator. ------------------------------------------

PreparedStoreFormula PreparedStoreFormula::Sentence(const Formula& formula,
                                                    const Store& schema) {
  PreparedStoreFormula prepared;
  if (formula.valid() && !formula.FreeVariables().empty()) {
    prepared.early_error_ = InvalidArgument("store sentence has free variables");
    return prepared;
  }
  std::vector<std::string> slot_names;
  prepared.Compile(formula, schema, slot_names);
  prepared.literal_true_ = prepared.early_error_.ok() &&
                           formula.node().kind == FormulaKind::kTrue;
  return prepared;
}

PreparedStoreFormula PreparedStoreFormula::Update(
    const Formula& formula, const Store& schema,
    const std::vector<std::string>& vars) {
  PreparedStoreFormula prepared;
  std::vector<std::string> slot_names;
  for (const std::string& v : vars) {
    prepared.tuple_slots_.push_back(prepared.SlotOf(v, slot_names));
  }
  prepared.needs_domain_ = !vars.empty();
  prepared.Compile(formula, schema, slot_names);
  if (!prepared.early_error_.ok()) return prepared;
  for (const std::string& v : formula.FreeVariables()) {
    if (std::find(vars.begin(), vars.end(), v) == vars.end()) {
      prepared.late_error_ = InvalidArgument(
          "free variable '" + v + "' missing from the tuple variable list");
      return prepared;
    }
  }
  for (std::size_t i = 0; i < vars.size(); ++i) {
    for (std::size_t j = i + 1; j < vars.size(); ++j) {
      if (vars[i] == vars[j]) {
        prepared.late_error_ =
            InvalidArgument("duplicate tuple variable '" + vars[i] + "'");
        return prepared;
      }
    }
  }
  return prepared;
}

void PreparedStoreFormula::Compile(const Formula& formula, const Store& schema,
                                   std::vector<std::string>& slot_names) {
  if (!formula.valid()) {
    early_error_ = InvalidArgument("empty formula");
    return;
  }
  early_error_ = ValidateStoreFormula(
      formula,
      [&schema](const std::string& name) { return schema.ArityOf(name); });
  if (!early_error_.ok()) return;
  CompileNode(formula, schema, slot_names);
  num_slots_ = slot_names.size();
}

std::uint32_t PreparedStoreFormula::SlotOf(
    const std::string& var, std::vector<std::string>& slot_names) {
  auto it = std::find(slot_names.begin(), slot_names.end(), var);
  if (it == slot_names.end()) it = slot_names.insert(it, var);
  return static_cast<std::uint32_t>(it - slot_names.begin());
}

std::uint32_t PreparedStoreFormula::CompileNode(
    const Formula& f, const Store& schema,
    std::vector<std::string>& slot_names) {
  const FormulaNode& n = f.node();
  const auto index = static_cast<std::uint32_t>(nodes_.size());
  nodes_.emplace_back();
  Node node;
  node.kind = n.kind;
  switch (n.kind) {
    case FormulaKind::kTrue:
    case FormulaKind::kFalse:
      break;
    case FormulaKind::kNot:
      node.left = CompileNode(n.children[0], schema, slot_names);
      break;
    case FormulaKind::kAnd:
    case FormulaKind::kOr:
    case FormulaKind::kImplies:
    case FormulaKind::kIff:
      node.left = CompileNode(n.children[0], schema, slot_names);
      node.right = CompileNode(n.children[1], schema, slot_names);
      break;
    case FormulaKind::kExists:
    case FormulaKind::kForall:
      needs_domain_ = true;
      node.slot = SlotOf(n.var, slot_names);
      node.left = CompileNode(n.children[0], schema, slot_names);
      break;
    case FormulaKind::kAtom: {
      node.atom = n.atom;
      if (n.atom == AtomKind::kRelation) {
        node.relation = static_cast<std::uint32_t>(schema.IndexOf(n.symbol));
      }
      node.first_operand = static_cast<std::uint32_t>(operands_.size());
      node.num_operands = static_cast<std::uint32_t>(n.terms.size());
      for (const Term& t : n.terms) {
        Operand operand;
        if (t.kind == Term::Kind::kVar) {
          operand.index = SlotOf(t.var, slot_names);
          operands_.push_back(operand);
          continue;
        }
        // Validation admits only variables, constants and attr(.) here.
        Constant constant;
        constant.kind = t.kind;
        constant.value = t.value;
        constant.text = t.kind == Term::Kind::kCurrentAttr ? t.attr : t.text;
        auto same = [&constant](const Constant& c) {
          return c.kind == constant.kind && c.value == constant.value &&
                 c.text == constant.text;
        };
        auto it = std::find_if(constants_.begin(), constants_.end(), same);
        if (it == constants_.end()) {
          it = constants_.insert(it, std::move(constant));
        }
        operand.kind = t.kind == Term::Kind::kCurrentAttr
                           ? Operand::Kind::kAttr
                           : Operand::Kind::kConstant;
        operand.index = static_cast<std::uint32_t>(it - constants_.begin());
        operands_.push_back(operand);
      }
      break;
    }
  }
  nodes_[index] = node;
  return index;
}

Status PreparedStoreFormula::Resolve(PreparedStoreContext& context,
                                     StoreBinding& binding) const {
  if (binding.resolved) return Status::Ok();
  // The order and the messages of CollectConstants.
  binding.constants.resize(constants_.size());
  for (std::size_t i = 0; i < constants_.size(); ++i) {
    const Constant& c = constants_[i];
    switch (c.kind) {
      case Term::Kind::kStrConst:
        if (context.values == nullptr) {
          return InvalidArgument(
              "string constant \"" + c.text +
              "\" requires a ValueInterner in the store context");
        }
        binding.constants[i] = context.values->ValueFor(c.text);
        break;
      case Term::Kind::kCurrentAttr: {
        const std::int64_t column = context.attribute_names == nullptr
                                        ? -1
                                        : context.attribute_names->Find(c.text);
        if (column < 0 ||
            static_cast<std::size_t>(column) >= context.node_attrs.size()) {
          return InvalidArgument("current node has no attribute '" + c.text +
                                 "'");
        }
        binding.constants[i] = column;
        break;
      }
      default:
        binding.constants[i] = c.value;
        break;
    }
  }
  binding.resolved = true;
  return Status::Ok();
}

void PreparedStoreFormula::BuildDomain(PreparedStoreContext& context,
                                       const StoreBinding& binding) const {
  std::vector<DataValue>& domain = context.domain;
  domain.clear();
  context.store->AppendValues(domain);
  domain.insert(domain.end(), context.node_attrs.begin(),
                context.node_attrs.end());
  for (std::size_t i = 0; i < constants_.size(); ++i) {
    if (constants_[i].kind != Term::Kind::kCurrentAttr) {
      domain.push_back(binding.constants[i]);
    }
  }
  std::sort(domain.begin(), domain.end());
  domain.erase(std::unique(domain.begin(), domain.end()), domain.end());
}

DataValue PreparedStoreFormula::Value(const Operand& operand,
                                      const PreparedStoreContext& context,
                                      const StoreBinding& binding) const {
  switch (operand.kind) {
    case Operand::Kind::kSlot:
      return context.env[operand.index];
    case Operand::Kind::kConstant:
      return binding.constants[operand.index];
    case Operand::Kind::kAttr:
      return context.node_attrs[static_cast<std::size_t>(
          binding.constants[operand.index])];
  }
  return 0;
}

bool PreparedStoreFormula::Eval(std::uint32_t index,
                                PreparedStoreContext& context,
                                const StoreBinding& binding) const {
  const Node& n = nodes_[index];
  switch (n.kind) {
    case FormulaKind::kTrue:
      return true;
    case FormulaKind::kFalse:
      return false;
    case FormulaKind::kNot:
      return !Eval(n.left, context, binding);
    case FormulaKind::kAnd:
      return Eval(n.left, context, binding) && Eval(n.right, context, binding);
    case FormulaKind::kOr:
      return Eval(n.left, context, binding) || Eval(n.right, context, binding);
    case FormulaKind::kImplies:
      return !Eval(n.left, context, binding) || Eval(n.right, context, binding);
    case FormulaKind::kIff:
      return Eval(n.left, context, binding) == Eval(n.right, context, binding);
    case FormulaKind::kExists:
    case FormulaKind::kForall: {
      const bool exists = n.kind == FormulaKind::kExists;
      const DataValue saved = context.env[n.slot];
      bool result = !exists;
      for (DataValue v : context.domain) {
        context.env[n.slot] = v;
        if (Eval(n.left, context, binding) == exists) {
          result = exists;
          break;
        }
      }
      context.env[n.slot] = saved;
      return result;
    }
    case FormulaKind::kAtom: {
      const Operand* operands = operands_.data() + n.first_operand;
      if (n.atom == AtomKind::kEq) {
        return Value(operands[0], context, binding) ==
               Value(operands[1], context, binding);
      }
      std::vector<DataValue>& tuple = context.tuple;
      tuple.resize(n.num_operands);
      for (std::uint32_t i = 0; i < n.num_operands; ++i) {
        tuple[i] = Value(operands[i], context, binding);
      }
      return context.store->At(n.relation).Contains(tuple);
    }
  }
  return false;
}

Result<bool> PreparedStoreFormula::EvalSentence(PreparedStoreContext& context,
                                                StoreBinding& binding) const {
  TREEWALK_RETURN_IF_ERROR(early_error_);
  TREEWALK_RETURN_IF_ERROR(Resolve(context, binding));
  if (needs_domain_) BuildDomain(context, binding);
  context.env.resize(num_slots_);
  return Eval(0, context, binding);
}

Status PreparedStoreFormula::EvalUpdate(PreparedStoreContext& context,
                                        StoreBinding& binding,
                                        Relation& out) const {
  TREEWALK_RETURN_IF_ERROR(early_error_);
  TREEWALK_RETURN_IF_ERROR(Resolve(context, binding));
  TREEWALK_RETURN_IF_ERROR(late_error_);
  const std::size_t arity = tuple_slots_.size();
  out.Reset(static_cast<int>(arity));
  if (needs_domain_) BuildDomain(context, binding);
  context.env.resize(num_slots_);
  if (arity == 0) {
    if (Eval(0, context, binding)) out.Append({});
    return Status::Ok();
  }
  const std::vector<DataValue>& domain = context.domain;
  if (domain.empty()) return Status::Ok();  // no tuples over an empty domain
  // The odometer runs the columns in lexicographic order over the sorted
  // domain, so the satisfying tuples arrive sorted and distinct.
  std::vector<std::size_t>& odometer = context.odometer;
  odometer.assign(arity, 0);
  std::vector<DataValue>& tuple = context.tuple;
  while (true) {
    for (std::size_t i = 0; i < arity; ++i) {
      context.env[tuple_slots_[i]] = domain[odometer[i]];
    }
    if (Eval(0, context, binding)) {
      tuple.resize(arity);
      for (std::size_t i = 0; i < arity; ++i) {
        tuple[i] = domain[odometer[i]];
      }
      out.Append(tuple);
    }
    std::size_t slot = arity - 1;
    while (true) {
      if (++odometer[slot] < domain.size()) break;
      odometer[slot] = 0;
      if (slot == 0) return Status::Ok();
      --slot;
    }
  }
}

}  // namespace treewalk
