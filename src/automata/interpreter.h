#ifndef TREEWALK_AUTOMATA_INTERPRETER_H_
#define TREEWALK_AUTOMATA_INTERPRETER_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "src/automata/program.h"
#include "src/automata/step.h"
#include "src/common/governor.h"
#include "src/common/result.h"
#include "src/tree/delimited.h"
#include "src/tree/tree.h"

namespace treewalk {

class SelectorDiskCache;     // src/logic/selector_cache.h
struct PlannerCalibration;   // src/logic/planner.h

/// Resource limits for a run.  Exceeding any limit aborts the run with
/// kResourceExhausted (an *error*, distinct from semantic rejection).
struct RunOptions {
  /// Total transitions across the main computation and all
  /// subcomputations.
  std::int64_t max_steps = 1'000'000;
  /// Maximum atp() nesting depth.
  int max_depth = 64;
  /// Record a human-readable trace of the first `max_trace_entries`
  /// transitions.
  bool record_trace = false;
  std::size_t max_trace_entries = 1000;
  /// Ablation: exact cycle detection memoizes every configuration
  /// (node, state, store) of a computation.  Stores are hash-consed per
  /// run, so the memo key is three integers: one hash-set insert per
  /// step, plus one fingerprint and intern lookup per store update.
  /// The same interned ids key the run-wide table of finished atp()
  /// subcomputations (docs/EVALUATOR.md, "Tabled walking"), which is
  /// active only with detection on and record_trace off.  With
  /// detection off there is neither memo nor table: a looping
  /// computation runs into max_steps (kResourceExhausted) instead of
  /// rejecting with kCycle; terminating runs are unaffected.
  bool detect_cycles = true;
  /// Set-at-a-time selector evaluation: the cost-based planner
  /// (src/logic/planner.h) picks, once per distinct atp() selector per
  /// run, between the reference evaluator and compiling the selector
  /// into an interval-encoded satisfier relation over a per-run axis
  /// index (src/logic/compile.h), answering every SelectNodes with a
  /// row read.  Selectors the partial compiler declines (three-plus-
  /// variable subformulas) fall back to the reference evaluator, so
  /// this is semantically invisible; turn off to ablate or to force the
  /// reference path.
  bool compile_selectors = true;
  /// Cost-model constants for planning; null uses the built-in
  /// defaults.  Passed by pointer so calibration stays per-run and
  /// deterministic — there is no global mutable calibration.  Pricing
  /// strategies out is how a caller pins one.  Must outlive the run.
  const PlannerCalibration* planner_calibration = nullptr;
  /// Persistent compiled-selector cache (src/logic/selector_cache.h).
  /// When non-null, each selector compile first consults the on-disk
  /// cache keyed by (formula, tree content hash) and
  /// persists fresh compiles back.  Any cache failure degrades to a
  /// plain compile — semantically invisible, like compile_selectors
  /// itself.  Must outlive the run.
  const SelectorDiskCache* selector_disk_cache = nullptr;
  /// Cooperative cancellation: when non-null and set, the run aborts
  /// with kCancelled at the next transition boundary.  The pointee must
  /// outlive the run; src/engine points every job of a batch at one
  /// flag.
  const std::atomic<bool>* cancel = nullptr;
  /// Per-run resource governor (src/common/governor.h).  When non-null,
  /// the deadline is polled at every transition boundary (beside the
  /// cancel flag; a trip aborts with kDeadlineExceeded) and the run's
  /// growing structures — cycle memo, trace, store tuples, axis index,
  /// compiled selectors — charge its memory budget (a trip aborts with
  /// kResourceExhausted and a category breakdown).
  /// Not thread-safe: one governor per run; must outlive the run.
  ResourceGovernor* governor = nullptr;
};

/// Why a run rejected (Section 3 semantics; cycles reject per the
/// protocol convention of Lemma 4.5).
enum class RejectReason {
  kNone,                     ///< run accepted
  kStuck,                    ///< no rule applies
  kCycle,                    ///< a configuration repeated
  kSubcomputationRejected,   ///< an atp() subcomputation rejected
  kMoveOffTree,              ///< a move left the (delimited) tree
};

const char* RejectReasonName(RejectReason r);

struct RunStats {
  /// Definition 3.1 transitions, including those a table hit replayed.
  std::int64_t steps = 0;
  /// The part of `steps` replayed from the table of finished
  /// subcomputations instead of executed; steps - tabled_steps were
  /// executed.  Always 0 for traced runs and with detect_cycles off.
  std::int64_t tabled_steps = 0;
  /// atp() subcomputations started: one per node a look-ahead selected,
  /// up to the first that rejects.  Those a table hit replayed count
  /// too, so the figure does not depend on tabling.
  std::int64_t subcomputations = 0;
  /// atp() rule firings (each starts one subcomputation per selected
  /// node).
  std::int64_t atp_calls = 0;
  /// Never written (always 0): there is no selector result cache.
  /// Kept only because perfbench/driver.cc reads them.
  std::int64_t selector_cache_hits = 0;
  std::int64_t selector_cache_misses = 0;
  /// Selector evaluations answered by the compiled set-at-a-time
  /// evaluator; the other atp_calls were answered by the reference
  /// evaluator.
  std::int64_t compiled_selector_evals = 0;
  /// Planner strategy picks, one per distinct selector planned this run
  /// (all zero with compile_selectors off).  A reference pick means the
  /// planner chose not to compile; compile *declines* after an interval
  /// pick still count under the pick that was made.
  std::int64_t planner_picks_reference = 0;
  std::int64_t planner_picks_interval = 0;
  /// Never written (always 0): there is no dense strategy.  Kept only
  /// because perfbench/driver.cc reads it.
  std::int64_t planner_picks_dense = 0;
  /// Register writes (update rules and look-ahead collections).
  std::int64_t store_updates = 0;
  std::size_t max_store_tuples = 0;
  int max_depth_reached = 0;

  friend bool operator==(const RunStats&, const RunStats&) = default;
};

struct RunResult {
  bool accepted = false;
  RejectReason reason = RejectReason::kNone;
  RunStats stats;
  std::vector<std::string> trace;
};

/// Deterministic interpreter for tree-walking programs: the reference
/// semantics of Definition 3.1.  Programs walk delim(t); Run() wraps the
/// input itself, RunDelimited() accepts a pre-delimited tree (so repeated
/// runs over one input can share the transform).  The program is
/// prepared once, at construction (PreparedProgram, src/automata/step.h),
/// and every run reuses it; the program must outlive the interpreter.
///
/// Determinism is enforced at runtime: if two rules apply to one
/// configuration the run aborts with kNondeterminism.  Class tw^l's
/// register discipline (at most one value per register, at most one
/// selected node per look-ahead) is likewise enforced, aborting with
/// kFailedPrecondition on violation.
class Interpreter {
 public:
  explicit Interpreter(const Program& program, RunOptions options = {});

  /// Runs on (the delimitation of) `input`.
  Result<RunResult> Run(const Tree& input) const;

  /// Runs directly on an already-delimited tree.
  Result<RunResult> RunDelimited(const Tree& delimited) const;

 private:
  PreparedProgram prepared_;
  RunOptions options_;
};

/// Convenience: build-run-report in one call; true iff accepted.
Result<bool> Accepts(const Program& program, const Tree& input,
                     RunOptions options = {});

}  // namespace treewalk

#endif  // TREEWALK_AUTOMATA_INTERPRETER_H_
