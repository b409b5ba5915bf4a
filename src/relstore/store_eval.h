#ifndef TREEWALK_RELSTORE_STORE_EVAL_H_
#define TREEWALK_RELSTORE_STORE_EVAL_H_

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "src/common/interner.h"
#include "src/common/result.h"
#include "src/logic/formula.h"
#include "src/relstore/store.h"

namespace treewalk {

// Two evaluators of the store logic share this header.  The reference
// one (StoreContext, EvalStoreSentence, EvalStoreFormula) reads the
// formula AST on every call: it validates it, scans its free variables
// and constants, and binds variables in a string-keyed map.  It is the
// slow twin.  The prepared one (PreparedStoreFormula) does the
// per-formula work once and evaluates on slots and scratch buffers;
// tests/store_eval_differential_test.cc holds it to the reference,
// errors included.

/// Evaluation context for the store logic of Section 3: the formula sees
/// the relational storage, the attribute values of the automaton's
/// current node (the attr(.) terms), and its own constants.  All
/// quantification ranges over the *active domain*: values in the store,
/// the current attribute values, and the constants appearing in the
/// formula.
struct StoreContext {
  const Store* store = nullptr;
  /// Attribute name -> value at the automaton's current node.
  std::map<std::string, DataValue> current_attrs;
  /// Interner used to resolve string constants; may be null when the
  /// formula has none.
  ValueInterner* values = nullptr;
};

/// The active domain of a formula under a context (sorted, unique).
/// Exposed for tests and for the PSPACE simulation's accounting.
Result<std::vector<DataValue>> ActiveDomain(const StoreContext& context,
                                            const Formula& formula);

/// Evaluates a store sentence (no free variables): the guards xi of
/// Definition 3.1.
Result<bool> EvalStoreSentence(const StoreContext& context,
                               const Formula& formula);

/// Evaluates a store formula with free variables `vars` (in tuple order):
/// returns the relation { d-bar in active-domain^|vars| : psi(d-bar) }.
/// This is the register-update semantics of Definition 3.1 rule form 2.
///
/// Every free variable of the formula must appear in `vars`; `vars` may
/// list extra variables (they become unconstrained columns over the
/// active domain).
Result<Relation> EvalStoreFormula(const StoreContext& context,
                                  const Formula& formula,
                                  const std::vector<std::string>& vars);

/// What a prepared formula reads when it is evaluated: the store, the
/// current node's attributes and the interner for string constants.
/// The vectors are scratch space reused from one evaluation to the
/// next; one context serves a whole run and is not thread-safe.
struct PreparedStoreContext {
  const Store* store = nullptr;
  /// Attribute names by column; null or empty when there are none.
  const Interner* attribute_names = nullptr;
  /// Every attribute value of the current node, by column.
  std::span<const DataValue> node_attrs;
  /// Resolves string constants; may be null when no formula has one.
  ValueInterner* values = nullptr;

  std::vector<DataValue> domain;
  std::vector<DataValue> env;
  std::vector<DataValue> tuple;
  std::vector<std::size_t> odometer;
};

/// The run-time half of a prepared formula: its constants resolved
/// against one run's attribute names and interner.  Filled at the
/// formula's first evaluation in a run and reused after that.
struct StoreBinding {
  bool resolved = false;
  /// By constant slot: the data value of an int or string constant,
  /// the attribute column of an attr(.) term.
  std::vector<DataValue> constants;
};

/// A store formula prepared once per program: validated against the
/// register schema, its variables numbered into slots, its relation
/// names resolved to store indices and its constants collected in the
/// order the reference evaluator meets them.  Immutable.
///
/// Evaluation returns exactly what EvalStoreSentence / EvalStoreFormula
/// return on the same inputs, errors included and in the same order.
/// An error the preparation finds is therefore not reported at once; it
/// is returned by every evaluation, at the point where the reference
/// would raise it.
class PreparedStoreFormula {
 public:
  PreparedStoreFormula() = default;

  /// A guard xi, evaluated like EvalStoreSentence.  `schema` gives the
  /// relation names and arities every evaluated store will have.
  static PreparedStoreFormula Sentence(const Formula& formula,
                                       const Store& schema);
  /// An update psi with tuple variables `vars`, evaluated like
  /// EvalStoreFormula.
  static PreparedStoreFormula Update(const Formula& formula,
                                     const Store& schema,
                                     const std::vector<std::string>& vars);

  /// The formula is the literal `true`: as a sentence it holds on every
  /// store without reading it.
  bool IsLiteralTrue() const { return literal_true_; }

  /// Evaluates a sentence.  `binding` must be used with this formula
  /// and one run's attribute names and interner only.
  Result<bool> EvalSentence(PreparedStoreContext& context,
                            StoreBinding& binding) const;

  /// Evaluates an update into `out`, which is reset to the number of
  /// tuple variables and filled in sorted order.
  Status EvalUpdate(PreparedStoreContext& context, StoreBinding& binding,
                    Relation& out) const;

 private:
  struct Operand {
    enum class Kind : std::uint8_t { kSlot, kConstant, kAttr };
    Kind kind = Kind::kSlot;
    /// Variable slot or constant slot.
    std::uint32_t index = 0;
  };
  struct Node {
    FormulaKind kind = FormulaKind::kTrue;
    AtomKind atom = AtomKind::kEq;
    /// Connectives: the children's node indices.  Quantifiers: the
    /// body in `left` and the bound variable's slot in `slot`.
    std::uint32_t left = 0;
    std::uint32_t right = 0;
    std::uint32_t slot = 0;
    /// Relation atoms: the store index.
    std::uint32_t relation = 0;
    /// Atoms: the operands [first_operand, first_operand + num_operands).
    std::uint32_t first_operand = 0;
    std::uint32_t num_operands = 0;
  };
  /// A constant in reference order: int and string constants join the
  /// active domain, attr(.) names are checked against the node.
  struct Constant {
    Term::Kind kind = Term::Kind::kIntConst;
    DataValue value = 0;
    std::string text;
  };

  void Compile(const Formula& formula, const Store& schema,
               std::vector<std::string>& slot_names);
  std::uint32_t CompileNode(const Formula& f, const Store& schema,
                            std::vector<std::string>& slot_names);
  std::uint32_t SlotOf(const std::string& var,
                       std::vector<std::string>& slot_names);
  Status Resolve(PreparedStoreContext& context, StoreBinding& binding) const;
  void BuildDomain(PreparedStoreContext& context,
                   const StoreBinding& binding) const;
  bool Eval(std::uint32_t node, PreparedStoreContext& context,
            const StoreBinding& binding) const;
  DataValue Value(const Operand& operand, const PreparedStoreContext& context,
                  const StoreBinding& binding) const;

  /// Returned before the constants are resolved / after them.
  Status early_error_;
  Status late_error_;
  bool literal_true_ = false;
  /// Quantifiers or tuple variables range over the active domain; a
  /// formula with neither never builds it.
  bool needs_domain_ = false;
  std::vector<Node> nodes_;  // the root is node 0
  std::vector<Operand> operands_;
  std::vector<Constant> constants_;
  std::size_t num_slots_ = 0;
  /// The slot of each tuple variable, in column order.
  std::vector<std::uint32_t> tuple_slots_;
};

}  // namespace treewalk

#endif  // TREEWALK_RELSTORE_STORE_EVAL_H_
