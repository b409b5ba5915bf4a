#ifndef TREEWALK_LOGIC_PLANNER_H_
#define TREEWALK_LOGIC_PLANNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/logic/formula.h"
#include "src/tree/axis_index.h"
#include "src/tree/tree_stats.h"

namespace treewalk {

/// Cost-based strategy selection for selector evaluation
/// (docs/PLANNER.md).
///
/// The engine has three ways to answer "which nodes satisfy phi(x, y)
/// from origin u":
///   - the reference arena evaluator (per-origin recursive search),
///   - the compiled bitset path with dense NodeMatrix rows,
///   - the compiled bitset path with interval-encoded rows.
/// PlanSelector is the one place that chooses among them: cheap exact
/// tree statistics (TreeStats) plus structural formula features feed a
/// per-strategy cost estimate, and the cheapest strategy wins.  Nothing
/// else picks a strategy or a representation; callers that need a
/// particular one price the others out with a PlannerCalibration.
///
/// The planner is advisory about *performance*, never about
/// *correctness*: all strategies agree byte-for-byte (the differential
/// oracle in tests/planner_test.cc holds that line), and a compiled
/// pick that the partial compiler declines at runtime still falls back
/// to the reference evaluator exactly as before.  The planner does not
/// try to predict compiler declines — raw quantifier width is not
/// decidable evidence (miniscoping and the guarded join compile many
/// width-3 formulas), so the runtime fallback stays the safety net.
///
/// Determinism: planning is a pure function of (stats, formula,
/// calibration).  Calibration constants are passed by value or const
/// pointer — there is no global mutable state — so results cannot
/// depend on what other threads ran first.

enum class PlanStrategy {
  kReference = 0,
  kCompiledDense,
  kCompiledInterval,
};

/// "reference", "compiled-dense", "compiled-interval".
const char* PlanStrategyName(PlanStrategy s);

/// Structural features of a selector, extracted in one AST walk.
struct FormulaFeatures {
  int size = 0;             ///< AST nodes
  int atoms = 0;            ///< atom leaves
  int quantifiers = 0;      ///< exists + forall
  int exists_count = 0;
  int forall_count = 0;
  int quantifier_depth = 0; ///< max nesting of quantifiers
  int negation_depth = 0;   ///< max nesting of kNot
  int or_count = 0;         ///< disjunctions (widen interval rows)
  int iff_count = 0;
  int implies_count = 0;
  /// Max simultaneous free variables over all subformulas ("width" of
  /// the *raw* formula; the compiler may still shrink it).
  int width = 0;
  // Axis mix: how many atoms of each shape appear.
  int edge_atoms = 0;
  int desc_atoms = 0;
  int sib_atoms = 0;
  int succ_atoms = 0;
  int label_atoms = 0;
  int unary_atoms = 0;      ///< root/leaf/first/last
  int node_eq_atoms = 0;
  int data_atoms = 0;       ///< equalities over attribute values
  /// A positive desc/E guard at the top level of the (stripped)
  /// existential block — the shape the reference evaluator's range
  /// planner prunes to subtree/children enumeration.
  bool has_range_guard = false;

  friend bool operator==(const FormulaFeatures&,
                         const FormulaFeatures&) = default;
};

FormulaFeatures AnalyzeFormula(const Formula& f);

/// Unit costs, in arbitrary "work units" (roughly: one word of bitset
/// algebra = 1).  The defaults are chosen so that on a span-1 axis
/// workload the dense/interval crossover lands at n = 4096 nodes, where
/// the dense matrix outgrows ~2MiB.  `twq explain --timing`
/// measures real strategies and prints rescaled constants
/// (RecalibrateFromMeasurements); nothing updates these globally.
struct PlannerCalibration {
  /// Reference evaluator: cost of visiting one node in one atom check.
  double reference_visit_cost = 4.0;
  /// Compiled dense: cost per 64-bit word of row algebra.
  double dense_word_cost = 1.0;
  /// Compiled interval: cost per span per row of range algebra.
  double interval_span_cost = 64.0;
  /// One-time compile overhead per op (normalization, hash-consing).
  double compile_op_cost = 32.0;

  friend bool operator==(const PlannerCalibration&,
                         const PlannerCalibration&) = default;
};

/// Cardinality estimate for one subformula, in pre-order; rendered by
/// `twq explain`.
struct OperatorEstimate {
  std::string op;          ///< short operator description
  int depth = 0;           ///< AST depth, for indented rendering
  double rows = 0.0;       ///< estimated satisfier count over free vars
  double selectivity = 0.0;///< rows / domain size
  bool exact = false;      ///< closed-form from TreeStats (atom leaves)
};

struct SelectorPlan {
  PlanStrategy strategy = PlanStrategy::kReference;
  /// The cheaper compiled representation, on every plan (reference
  /// picks included): the one to compile when strategy is compiled.
  AxisRepr repr = AxisRepr::kDense;
  FormulaFeatures features;
  /// Estimated total work units per strategy.
  double cost_reference = 0.0;
  double cost_dense = 0.0;
  double cost_interval = 0.0;
  /// Estimated satisfier pairs of the whole selector phi(x, y).
  double estimated_rows = 0.0;
  /// Per-subformula estimates, pre-order over the AST.
  std::vector<OperatorEstimate> operators;
};

struct PlanOptions {
  /// Expected number of distinct origins the selector will be evaluated
  /// from.  The interpreter does not know this upfront and uses the
  /// node count (every-node worst case); `twq explain --origin` uses 1.
  double expected_origins = -1.0;  ///< -1: default to stats.nodes
};

/// Plans evaluation of `selector` (free variables within {x, y})
/// against a tree summarized by `stats`.  Pure function; never fails —
/// a degenerate input (empty tree, invalid formula) costs out to the
/// reference strategy, which is total.
SelectorPlan PlanSelector(const TreeStats& stats, const Formula& selector,
                          const PlannerCalibration& cal = {},
                          const PlanOptions& opts = {});

/// One measured strategy run, for calibration feedback.
struct StrategyMeasurement {
  PlanStrategy strategy = PlanStrategy::kReference;
  double nanos = 0.0;
};

/// Returns `base` with each measured strategy's unit cost rescaled
/// halfway (geometric damping) toward measured/predicted, so repeated
/// `twq explain --timing` runs converge instead of oscillating.
/// Strategies without a measurement (or with a non-positive predicted
/// cost) keep their constants.
PlannerCalibration RecalibrateFromMeasurements(
    const PlannerCalibration& base, const SelectorPlan& plan,
    const std::vector<StrategyMeasurement>& measured);

}  // namespace treewalk

#endif  // TREEWALK_LOGIC_PLANNER_H_
