#ifndef TREEWALK_LOGIC_BITSET_EVAL_H_
#define TREEWALK_LOGIC_BITSET_EVAL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/tree/axis_index.h"
#include "src/tree/interval_matrix.h"
#include "src/tree/tree.h"

namespace treewalk {

/// Set-at-a-time evaluation machine behind src/logic/compile.h: a
/// formula compiles into a DAG of operations over satisfier sets.  Each
/// op produces one of three value shapes —
///
///   Bool          a closed subformula's truth value,
///   NodeSet       {u : t |= phi(u)} for a one-free-variable subformula,
///   Mat           {(u, v) : t |= phi(u, v)} for two free variables
///                 (rows = the variable with the smaller compile slot),
///
/// — so every set connective is an O(n/64) word-parallel pass.  Mat
/// values are span-compressed IntervalMatrix rows
/// (src/tree/interval_matrix.h): axis loads, range algebra, row
/// reductions and guarded joins stay O(n·spans) instead of O(n^2),
/// which is what reaches million-node trees.  Shapes and variable bookkeeping live entirely
/// in the compiler; the ops here are shape-correct by construction.
enum class OpKind : std::uint8_t {
  kConstBool,   ///< literal truth value
  kLoadSet,     ///< precomputed NodeSet (axis-index unary predicate)
  kLoadMat,     ///< precomputed IntervalMatrix (axis relation)
  kNotBool,     ///< !a
  kAndBool,     ///< a && b
  kOrBool,      ///< a || b
  kNotSet,      ///< complement over Dom(t)
  kAndSet,      ///< intersection
  kOrSet,       ///< union
  kNotMat,      ///< complement over Dom(t)^2
  kAndMat,      ///< intersection
  kOrMat,       ///< union
  kBoolToSet,   ///< Bool -> full / empty NodeSet
  kSetToMatRow, ///< Set s -> Mat M with M[u][v] = s[u]
  kSetToMatCol, ///< Set s -> Mat M with M[u][v] = s[v]
  kAnyRow,      ///< Mat -> Set: {u : exists v M[u][v]} (exists on cols)
  kAllRow,      ///< Mat -> Set: {u : forall v M[u][v]} (forall on cols)
  kAnySet,      ///< Set -> Bool: nonempty
  kAllSet,      ///< Set -> Bool: full
  kCompose,     ///< Mats P, Q (opt. Set guard C) -> Mat R:
                ///< R[u][v] = exists w P[u][w] & Q[v][w] & (c < 0 || C[w])
};

struct Op {
  OpKind kind = OpKind::kConstBool;
  int a = -1;  ///< first operand op index
  int b = -1;  ///< second operand op index
  /// kCompose: op index of an optional Set-shaped guard on the joined
  /// variable w, or -1 for an unguarded join.  Folding the quantified
  /// variable's unary constraints here (instead of broadcasting them to
  /// a matrix and intersecting) is what keeps interval joins narrow.
  int c = -1;
  bool literal = false;  ///< kConstBool
  std::shared_ptr<const NodeSet> set;         ///< kLoadSet
  std::shared_ptr<const IntervalMatrix> mat;  ///< kLoadMat
};

/// One evaluated op result; exactly one field is active per the op's
/// shape.  Loads alias their precomputed payload, so evaluating a
/// program allocates only for derived ops.
struct OpValue {
  bool b = false;
  std::shared_ptr<const NodeSet> set;
  std::shared_ptr<const IntervalMatrix> mat;
};

/// Evaluates `ops` (children always precede parents) over a domain of
/// `n` nodes and returns one value per op.  O(total op cost); cannot
/// fail on well-formed programs (the compiler guarantees shape
/// correctness, enforced here by assertions).
std::vector<OpValue> EvaluateOps(const std::vector<Op>& ops, std::size_t n);

/// Governed variant: each derived-op allocation is charged against the
/// governor's memory budget under MemoryCategory::kCompiledOps before
/// allocating, and the deadline is polled between ops.  The transient evaluation charges are released on
/// return — the caller deep-copies what it keeps and accounts for that
/// copy itself — so what this bounds is the peak footprint of one
/// evaluation.  With a null governor this is exactly EvaluateOps.
Result<std::vector<OpValue>> EvaluateOpsGoverned(const std::vector<Op>& ops,
                                                 std::size_t n,
                                                 ResourceGovernor* governor);

/// A binary FO selector phi(x, y) compiled and materialized against one
/// tree: the full relation {(u, v) : t |= phi(u, v)} is computed once
/// (set-at-a-time), after which SelectFrom is a row read — every origin
/// shares the one materialization, unlike the node-at-a-time reference
/// SelectNodes which restarts per origin.  Build with CompileSelector()
/// (src/logic/compile.h).
class CompiledSelector {
 public:
  /// All v with t |= phi(origin, v), in document order.  Equivalent to
  /// SelectNodes(tree, phi, origin); O(n/64 + |result|).  `origin` must
  /// be a valid node of the tree compiled against.
  std::vector<NodeId> SelectFrom(NodeId origin) const;
  /// SelectFrom into `out`, which is cleared first; allocates only when
  /// `out` grows.
  void SelectInto(NodeId origin, std::vector<NodeId>& out) const;

  /// Number of nodes of the tree this selector was compiled against.
  std::size_t tree_size() const { return n_; }

  /// Approximate heap bytes the materialized payload retains (0 for a
  /// constant, one bitset row for a set, the descriptor+pool footprint
  /// for a matrix); what a caller keeping the selector alive charges
  /// its memory budget.
  std::int64_t RetainedBytes() const;

 private:
  friend class Compiler;
  // src/logic/selector_cache.cc: persistent-cache (de)serialization of
  // the materialized payload.
  friend class SelectorCacheCodec;

  /// Which shape the materialized result took: a selector that ignores
  /// one of its variables materializes as a set or a constant.
  enum class Shape : std::uint8_t { kBool, kSetX, kSetY, kMat };

  std::size_t n_ = 0;
  Shape shape_ = Shape::kBool;
  bool literal_ = false;
  std::shared_ptr<const NodeSet> set_;
  std::shared_ptr<const IntervalMatrix> mat_;  // rows = x, cols = y
};

/// A sentence compiled and evaluated against one tree.  Build with
/// CompileSentence() (src/logic/compile.h).
class CompiledSentence {
 public:
  bool Eval() const { return value_; }

 private:
  friend class Compiler;
  bool value_ = false;
};

}  // namespace treewalk

#endif  // TREEWALK_LOGIC_BITSET_EVAL_H_
