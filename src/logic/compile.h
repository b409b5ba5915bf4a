#ifndef TREEWALK_LOGIC_COMPILE_H_
#define TREEWALK_LOGIC_COMPILE_H_

#include <string>

#include "src/common/result.h"
#include "src/logic/bitset_eval.h"
#include "src/logic/formula.h"
#include "src/tree/axis_index.h"

namespace treewalk {

/// Set-at-a-time compilation of FO tree formulas (docs/EVALUATOR.md).
///
/// A formula is normalized (NNF via ToNegationNormalForm), variables are
/// assigned scope-ordered slots, and each subformula becomes one op in a
/// hash-consed DAG over bitset satisfier sets: atoms load unary
/// predicate sets and axis relation matrices from the AxisIndex,
/// connectives are word-parallel set algebra, and quantifiers are
/// OR/AND-reductions along the quantified axis (with miniscoping and a
/// guarded-join composition for the one extra existential variable the
/// width-2 representation cannot hold directly).  Evaluating the DAG
/// once materializes the full satisfier relation; SelectFrom(origin) is
/// then an O(n/64) row read per origin instead of an O(n^depth)
/// recursive scan.
///
/// Compilation is *partial*: formulas whose subformulas need three or
/// more simultaneous free variables (after miniscoping and the guarded
/// join), empty trees, and ill-formed inputs return a non-OK status.
/// Callers fall back to the reference SelectNodes / EvalTreeFormula,
/// which also reproduces the reference error behavior exactly; the
/// compiled path never diverges from the oracle, it only declines.
///
/// Results are self-contained copies: the AxisIndex and Tree need only
/// outlive the CompileSelector/CompileSentence call itself, not the
/// returned object.  Compile once per (selector, tree); reuse across
/// origins.

/// Compiles a binary selector phi(x, y) against the tree behind `index`.
/// Free variables must be within {x, y} (either may be unused).
///
/// `repr` picks the Mat-shape carrier for the whole compilation: dense
/// NodeMatrix rows or interval-encoded rows (runs compile under the
/// planner's SelectorPlan::repr).  Both produce byte-identical
/// SelectFrom answers; they differ only in space (O(n^2) vs
/// O(n·spans)) and in which op costs dominate.
Result<CompiledSelector> CompileSelector(const AxisIndex& index,
                                         const Formula& formula,
                                         const std::string& x,
                                         const std::string& y,
                                         AxisRepr repr);

/// Compiles and evaluates a sentence (no free variables).
Result<CompiledSentence> CompileSentence(const AxisIndex& index,
                                         const Formula& formula,
                                         AxisRepr repr);

}  // namespace treewalk

#endif  // TREEWALK_LOGIC_COMPILE_H_
