#include "src/automata/interpreter.h"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "src/automata/step.h"
#include "src/common/failpoint.h"
#include "src/common/governor.h"
#include "src/common/metrics.h"
#include "src/logic/compile.h"
#include "src/logic/planner.h"
#include "src/logic/selector_cache.h"
#include "src/logic/tree_eval.h"
#include "src/tree/snapshot.h"
#include "src/relstore/store_eval.h"
#include "src/tree/axis_index.h"
#include "src/tree/tree_stats.h"

namespace treewalk {

const char* RejectReasonName(RejectReason r) {
  switch (r) {
    case RejectReason::kNone:
      return "none";
    case RejectReason::kStuck:
      return "stuck";
    case RejectReason::kCycle:
      return "cycle";
    case RejectReason::kSubcomputationRejected:
      return "subcomputation-rejected";
    case RejectReason::kMoveOffTree:
      return "move-off-tree";
  }
  return "?";
}

namespace {

/// Interpreter instrument family (docs/OBSERVABILITY.md).  RunStats
/// stays the per-run view; these registry counters are its process-wide
/// aggregation, flushed once per run (end of Runner::Run, success or
/// error) so the per-transition hot loop never touches an atomic.
struct InterpMetrics {
  Counter* runs;
  Counter* steps;
  Counter* tabled_steps;
  Counter* subcomputations;
  Counter* atp_calls;
  Counter* compiled_evals;
  Counter* reference_evals;
  Counter* interval_evals;
  Counter* dense_evals;
  Counter* store_updates;
  Counter* picks_reference;
  Counter* picks_dense;
  Counter* picks_interval;
  Histogram* compiled_eval_us;
  Histogram* reference_eval_us;

  static InterpMetrics& Get() {
    static InterpMetrics* metrics = [] {
      auto* m = new InterpMetrics;
      MetricsRegistry& r = MetricsRegistry::Global();
      m->runs = r.FindOrCreateCounter("treewalk_interp_runs_total",
                                      "Interpreter runs started");
      m->steps = r.FindOrCreateCounter(
          "treewalk_interp_steps_total",
          "Transitions, including those replayed from the table of "
          "finished subcomputations");
      m->tabled_steps = r.FindOrCreateCounter(
          "treewalk_interp_tabled_steps_total",
          "Transitions replayed from the table of finished subcomputations "
          "(counted in treewalk_interp_steps_total too)");
      m->subcomputations =
          r.FindOrCreateCounter("treewalk_interp_subcomputations_total",
                                "atp() subcomputations spawned");
      m->atp_calls = r.FindOrCreateCounter("treewalk_interp_atp_calls_total",
                                           "atp() rule firings");
      m->compiled_evals = r.FindOrCreateCounter(
          "treewalk_interp_selector_evals_total",
          "Selector evaluations by evaluator path, table replays included",
          {{"path", "compiled"}});
      m->reference_evals = r.FindOrCreateCounter(
          "treewalk_interp_selector_evals_total",
          "Selector evaluations by evaluator path, table replays included",
          {{"path", "reference"}});
      m->interval_evals = r.FindOrCreateCounter(
          "treewalk_interp_selector_repr_total",
          "Compiled selector evaluations by matrix representation",
          {{"repr", "interval"}});
      m->dense_evals = r.FindOrCreateCounter(
          "treewalk_interp_selector_repr_total",
          "Compiled selector evaluations by matrix representation",
          {{"repr", "dense"}});
      m->store_updates = r.FindOrCreateCounter(
          "treewalk_interp_store_updates_total", "Register store writes");
      m->picks_reference = r.FindOrCreateCounter(
          "treewalk_planner_picks_total",
          "Cost-based planner strategy picks, one per distinct selector "
          "per run",
          {{"strategy", "reference"}});
      m->picks_dense = r.FindOrCreateCounter(
          "treewalk_planner_picks_total",
          "Cost-based planner strategy picks, one per distinct selector "
          "per run",
          {{"strategy", "compiled-dense"}});
      m->picks_interval = r.FindOrCreateCounter(
          "treewalk_planner_picks_total",
          "Cost-based planner strategy picks, one per distinct selector "
          "per run",
          {{"strategy", "compiled-interval"}});
      m->compiled_eval_us = r.FindOrCreateHistogram(
          "treewalk_interp_selector_eval_us",
          "Selector evaluation latency by evaluator path", LatencyBucketsUs(),
          {{"path", "compiled"}});
      m->reference_eval_us = r.FindOrCreateHistogram(
          "treewalk_interp_selector_eval_us",
          "Selector evaluation latency by evaluator path", LatencyBucketsUs(),
          {{"path", "reference"}});
      return m;
    }();
    return *metrics;
  }
};

using StateId = std::uint32_t;
using StoreId = std::uint32_t;
constexpr StoreId kNoStore = ~StoreId{0};

/// A configuration [u, q, tau] on interned ids.
struct ConfigKey {
  NodeId node;
  StateId state;
  StoreId store;

  friend bool operator==(const ConfigKey&, const ConfigKey&) = default;
};

struct ConfigKeyHash {
  std::size_t operator()(const ConfigKey& k) const {
    std::uint64_t h = (std::uint64_t{static_cast<std::uint32_t>(k.node)}
                       << 32) |
                      k.state;
    h ^= std::uint64_t{k.store} * 0x9e3779b97f4a7c15ULL;
    h ^= h >> 29;
    h *= 0xbf58476d1ce4e5b9ULL;
    return static_cast<std::size_t>(h ^ (h >> 32));
  }
};

/// Governor charges (kCycleMemo) for the structures keyed by interned
/// ids, in bytes.  A hash-set or hash-map node is the payload plus a
/// link and an allocator header (16), and its bucket slot (8).
constexpr std::int64_t kNodeOverheadBytes = 24;

/// Outcome of one (sub)computation.
struct Outcome {
  bool accepted = false;
  RejectReason reason = RejectReason::kNone;
  /// The store at acceptance, when stores are interned; its first
  /// register is what atp() collects.
  StoreId final_store = kNoStore;
  /// That register's content, copied, when stores are not interned.
  Relation returned{0};
};

/// A finished atp() subcomputation: its outcome and what its suffix of
/// the run added to RunStats, so a later call on the same configuration
/// replays it instead of walking it again.
struct TableEntry {
  std::int64_t steps = 0;
  std::int64_t subcomputations = 0;
  std::int64_t atp_calls = 0;
  std::int64_t store_updates = 0;
  std::int64_t compiled_evals = 0;
  std::int64_t interval_evals = 0;
  std::int64_t dense_evals = 0;
  /// The deepest atp() nesting inside the suffix, relative to its call.
  int depth = 0;
  StoreId final_store = kNoStore;
  bool accepted = false;
  RejectReason reason = RejectReason::kNone;
};

class Runner {
 public:
  Runner(const Program& program, const Tree& tree, const RunOptions& options)
      : program_(program),
        tree_(tree),
        options_(options),
        dispatch_(program.rules(), tree),
        tabling_(options.detect_cycles && !options.record_trace),
        run_charge_(options.governor, MemoryCategory::kCycleMemo) {
    // Dense state ids: each state's index in Program::States().
    state_names_ = program.States();
    std::unordered_map<std::string, StateId> ids;
    for (StateId i = 0; i < state_names_.size(); ++i) {
      ids.emplace(state_names_[i], i);
    }
    initial_state_ = ids.at(program.initial_state());
    final_state_ = ids.at(program.final_state());
    // Selector identities: rules whose selectors print identically
    // evaluate identically, so they share one id (the first such rule's
    // index) and with it one plan and one compile.
    const std::size_t num_rules = program.rules().size();
    selector_ids_.resize(num_rules, 0);
    next_states_.resize(num_rules, 0);
    call_states_.resize(num_rules, 0);
    std::map<std::string, std::size_t> first_use;
    for (std::size_t i = 0; i < num_rules; ++i) {
      const Rule& rule = program.rules()[i];
      next_states_[i] = ids.at(rule.action.next_state);
      if (rule.action.kind != Action::Kind::kLookAhead) continue;
      call_states_[i] = ids.at(rule.action.call_state);
      selector_ids_[i] =
          first_use.emplace(rule.action.selector.ToString(), i).first->second;
    }
  }

  Result<RunResult> Run() {
    Result<Outcome> outcome = Start();
    // Flush stats into the registry whether the run completed or
    // aborted — observability counts work done, not work finished.
    FlushMetrics();
    if (!outcome.ok()) return outcome.status();
    RunResult result;
    result.accepted = outcome->accepted;
    result.reason = outcome->reason;
    result.stats = stats_;
    result.trace = std::move(trace_);
    return result;
  }

 private:
  Result<Outcome> Start() {
    const Store& initial = program_.initial_store();
    if (!options_.detect_cycles) {
      return Compute(tree_.root(), initial_state_, initial, kNoStore, 0);
    }
    TREEWALK_ASSIGN_OR_RETURN(StoreId id, Intern(Store(initial)));
    return Compute(tree_.root(), initial_state_, stores_[id], id, 0);
  }

  /// The hash-consed id of `store`: an existing id when an equal store
  /// was reached before in this run, else a fresh one.  Keyed by
  /// Fingerprint(), with exact comparison on collision.
  Result<StoreId> Intern(Store store) {
    const std::uint64_t fingerprint = store.Fingerprint();
    auto [first, last] = store_index_.equal_range(fingerprint);
    for (auto it = first; it != last; ++it) {
      if (stores_[it->second] == store) return it->second;
    }
    // The Store in its pool slot, each tuple at pointer-ish granularity
    // as the store charge counts them, and the index node (a 16-byte
    // fingerprint/id payload).
    TREEWALK_RETURN_IF_ERROR(run_charge_.Add(
        static_cast<std::int64_t>(sizeof(Store)) + kNodeOverheadBytes + 16 +
        static_cast<std::int64_t>(store.TotalTuples()) * 24));
    const StoreId id = static_cast<StoreId>(stores_.size());
    stores_.push_back(std::move(store));
    store_index_.emplace(fingerprint, id);
    return id;
  }

  /// Makes `relation` register `index` of the current store.  With
  /// interning the new store is hash-consed and `store` points into the
  /// run's pool; without it the frame's `owned` copy is edited in place.
  Status ReplaceRegister(const Store*& store, StoreId& store_id, Store& owned,
                         std::size_t index, Relation relation) {
    if (!options_.detect_cycles) {
      if (store != &owned) {
        owned = *store;
        store = &owned;
      }
      return owned.Replace(index, std::move(relation));
    }
    Store next = *store;
    TREEWALK_RETURN_IF_ERROR(next.Replace(index, std::move(relation)));
    TREEWALK_ASSIGN_OR_RETURN(store_id, Intern(std::move(next)));
    store = &stores_[store_id];
    return Status::Ok();
  }

  /// What an accepting subcomputation hands back to atp().
  const Relation& Returned(const Outcome& out) const {
    return out.final_store == kNoStore ? out.returned
                                       : stores_[out.final_store].At(0);
  }

  /// One atp() subcomputation, answered from the table when the same
  /// configuration already finished this run.  Under Definition 3.1 a
  /// run is deterministic, so a call started at [v, p, tau] always ends
  /// the same way; only finished outcomes are entered (an error aborts
  /// the run, and a call still on the stack is absent, so
  /// self-recursion still ends in the max_depth error).  A hit replays
  /// the suffix's counts; it is taken only when the replayed steps and
  /// nesting fit the limits, so a limit that falls inside the suffix
  /// trips exactly where the untabled run trips.  Planner picks and the
  /// store high-water mark need no replay: the suffix ran earlier in
  /// this run, so both already cover it.
  Result<Outcome> Call(NodeId v, StateId call_state, const Store& store,
                       StoreId store_id, int depth) {
    if (!tabling_) return Compute(v, call_state, store, store_id, depth);
    const ConfigKey key{v, call_state, store_id};
    auto hit = table_.find(key);
    const bool known = hit != table_.end();
    if (known) {
      const TableEntry& e = hit->second;
      if (stats_.steps + e.steps <= options_.max_steps &&
          depth + e.depth <= options_.max_depth) {
        stats_.steps += e.steps;
        stats_.tabled_steps += e.steps;
        stats_.subcomputations += e.subcomputations;
        stats_.atp_calls += e.atp_calls;
        stats_.store_updates += e.store_updates;
        stats_.compiled_selector_evals += e.compiled_evals;
        stats_.interval_selector_evals += e.interval_evals;
        stats_.dense_selector_evals += e.dense_evals;
        stats_.max_depth_reached =
            std::max(stats_.max_depth_reached, depth + e.depth);
        suffix_depth_ = std::max(suffix_depth_, depth + e.depth);
        Outcome out;
        out.accepted = e.accepted;
        out.reason = e.reason;
        out.final_store = e.final_store;
        return out;
      }
    }

    const RunStats before = stats_;
    const int outer_depth = suffix_depth_;
    suffix_depth_ = depth;
    TREEWALK_ASSIGN_OR_RETURN(Outcome out,
                              Compute(v, call_state, store, store_id, depth));
    TableEntry e;
    e.steps = stats_.steps - before.steps;
    e.subcomputations = stats_.subcomputations - before.subcomputations;
    e.atp_calls = stats_.atp_calls - before.atp_calls;
    e.store_updates = stats_.store_updates - before.store_updates;
    e.compiled_evals =
        stats_.compiled_selector_evals - before.compiled_selector_evals;
    e.interval_evals =
        stats_.interval_selector_evals - before.interval_selector_evals;
    e.dense_evals = stats_.dense_selector_evals - before.dense_selector_evals;
    e.depth = suffix_depth_ - depth;
    e.final_store = out.final_store;
    e.accepted = out.accepted;
    e.reason = out.reason;
    suffix_depth_ = std::max(outer_depth, suffix_depth_);
    if (!known) {
      TREEWALK_RETURN_IF_ERROR(run_charge_.Add(
          static_cast<std::int64_t>(sizeof(ConfigKey) + sizeof(TableEntry)) +
          kNodeOverheadBytes));
      table_.emplace(key, e);
    }
    return out;
  }

  /// The computation started at [start, start_state, start_store].
  /// `start_id` is the store's interned id, or kNoStore with cycle
  /// detection off.
  Result<Outcome> Compute(NodeId start, StateId start_state,
                          const Store& start_store, StoreId start_id,
                          int depth) {
    if (depth > options_.max_depth) {
      return ResourceExhausted("atp nesting exceeded max_depth=" +
                               std::to_string(options_.max_depth));
    }
    stats_.max_depth_reached = std::max(stats_.max_depth_reached, depth);

    NodeId u = start;
    StateId state = start_state;
    const Store* store = &start_store;
    StoreId store_id = start_id;
    Store owned;  // the current store when stores are not interned
    std::unordered_set<ConfigKey, ConfigKeyHash> visited;
    // The memo lives for this (sub)computation; its budget charge is
    // released with it at scope exit.
    ScopedMemoryCharge memo_charge(options_.governor,
                                   MemoryCategory::kCycleMemo);

    while (true) {
      if (options_.cancel != nullptr &&
          options_.cancel->load(std::memory_order_relaxed)) {
        return Cancelled("run cancelled after " +
                         std::to_string(stats_.steps) + " steps");
      }
      TREEWALK_RETURN_IF_ERROR(GovernorCheckDeadline(options_.governor));
      TREEWALK_FAILPOINT("interpreter/step");
      if (state == final_state_) {
        Outcome out;
        out.accepted = true;
        out.final_store = store_id;
        if (store_id == kNoStore && store->num_relations() > 0) {
          out.returned = store->At(0);
        }
        return out;
      }
      if (options_.detect_cycles) {
        if (!visited.insert(ConfigKey{u, state, store_id}).second) {
          return Rejected(RejectReason::kCycle);
        }
        TREEWALK_RETURN_IF_ERROR(memo_charge.Add(
            static_cast<std::int64_t>(sizeof(ConfigKey)) +
            kNodeOverheadBytes));
      }

      TREEWALK_ASSIGN_OR_RETURN(
          const Rule* rule,
          FindRule(program_, dispatch_, tree_, u, state_names_[state],
                   *store));
      if (rule == nullptr) return Rejected(RejectReason::kStuck);

      if (++stats_.steps > options_.max_steps) {
        return ResourceExhausted("exceeded max_steps=" +
                                 std::to_string(options_.max_steps));
      }
      if (options_.record_trace &&
          trace_.size() < options_.max_trace_entries) {
        TREEWALK_RETURN_IF_ERROR(
            GovernorCharge(options_.governor, MemoryCategory::kTrace, 128));
      }
      Trace(u, state_names_[state], *rule);

      const std::size_t rule_index =
          static_cast<std::size_t>(rule - program_.rules().data());
      const Action& action = rule->action;
      switch (action.kind) {
        case Action::Kind::kMove: {
          NodeId v = MoveFrom(tree_, u, action.move);
          if (v == kNoNode) return Rejected(RejectReason::kMoveOffTree);
          u = v;
          break;
        }
        case Action::Kind::kUpdate: {
          StoreContext context = MakeStoreContext(tree_, u, *store);
          TREEWALK_ASSIGN_OR_RETURN(
              Relation result,
              EvalStoreFormula(context, action.update, action.update_vars));
          TREEWALK_RETURN_IF_ERROR(CheckDiscipline(result, "update"));
          TREEWALK_RETURN_IF_ERROR(ReplaceRegister(
              store, store_id, owned,
              static_cast<std::size_t>(action.register_index),
              std::move(result)));
          ++stats_.store_updates;
          break;
        }
        case Action::Kind::kLookAhead: {
          ++stats_.subcomputations;
          ++stats_.atp_calls;
          TREEWALK_ASSIGN_OR_RETURN(
              std::vector<NodeId> selected,
              EvalSelector(selector_ids_[rule_index], action.selector, u));
          if (program_.program_class() == ProgramClass::kTwL &&
              selected.size() > 1) {
            return FailedPrecondition(
                "tw^l look-ahead selected " +
                std::to_string(selected.size()) +
                " nodes; Definition 5.1 allows at most one");
          }
          Relation collected(store->At(0).arity());
          for (NodeId v : selected) {
            TREEWALK_ASSIGN_OR_RETURN(
                Outcome sub, Call(v, call_states_[rule_index], *store,
                                  store_id, depth + 1));
            if (!sub.accepted) {
              return Rejected(RejectReason::kSubcomputationRejected);
            }
            collected.UnionWith(Returned(sub));
          }
          TREEWALK_RETURN_IF_ERROR(CheckDiscipline(collected, "look-ahead"));
          TREEWALK_RETURN_IF_ERROR(ReplaceRegister(
              store, store_id, owned,
              static_cast<std::size_t>(action.register_index),
              std::move(collected)));
          ++stats_.store_updates;
          break;
        }
      }
      state = next_states_[rule_index];
      std::size_t tuples = store->TotalTuples();
      if (tuples > stats_.max_store_tuples) {
        // Store growth is charged at its high-water mark across the
        // whole run (monotone; never released).
        TREEWALK_RETURN_IF_ERROR(GovernorCharge(
            options_.governor, MemoryCategory::kStore,
            static_cast<std::int64_t>(tuples - stats_.max_store_tuples) *
                24));
        stats_.max_store_tuples = tuples;
      }
    }
  }

  /// Definition 3.1's atp() node selection, by the evaluator the
  /// planner picked for this selector.  Each canonical selector is
  /// planned and compiled at most once per run against the lazily built
  /// axis index; a reference pick or a selector the partial compiler
  /// declines is remembered as a fallback and served by the reference
  /// SelectNodes, which also reproduces the reference error behavior
  /// (docs/EVALUATOR.md).
  Result<std::vector<NodeId>> EvalSelector(std::size_t canonical_id,
                                           const Formula& selector,
                                           NodeId origin) {
    TREEWALK_FAILPOINT("interpreter/select");
    if (options_.compile_selectors) {
      auto it = compiled_.find(canonical_id);
      if (it == compiled_.end()) {
        // The cost-based planner (src/logic/planner.h) picks the
        // strategy once per canonical selector.  A reference pick is
        // remembered as an empty compiled slot, exactly like a compiler
        // decline, so later evaluations skip straight to SelectNodes.
        if (!tree_stats_.has_value()) {
          TreeStats scratch;
          tree_stats_ = *GetOrComputeTreeStats(tree_, scratch);
        }
        const SelectorPlan plan = PlanSelector(
            *tree_stats_, selector,
            options_.planner_calibration != nullptr
                ? *options_.planner_calibration
                : PlannerCalibration{});
        switch (plan.strategy) {
          case PlanStrategy::kReference: {
            ++stats_.planner_picks_reference;
            compiled_.emplace(canonical_id, std::nullopt);
            ScopedLatencyUs timer(InterpMetrics::Get().reference_eval_us);
            return SelectNodes(tree_, selector, origin);
          }
          case PlanStrategy::kCompiledDense:
            ++stats_.planner_picks_dense;
            break;
          case PlanStrategy::kCompiledInterval:
            ++stats_.planner_picks_interval;
            break;
        }
        if (!axis_index_.has_value()) {
          axis_index_.emplace(tree_, options_.governor);
          // Construction charges the base bitsets; a trip surfaces here
          // as the run's error rather than in a getter.
          TREEWALK_RETURN_IF_ERROR(axis_index_->status());
        }
        if (options_.selector_disk_cache != nullptr &&
            !tree_hash_.has_value()) {
          // One content hash per run, shared by every cached compile.
          tree_hash_ = TreeContentHash(tree_);
        }
        Result<CompiledSelector> compiled = CompileSelectorCached(
            *axis_index_, selector, "x", "y", plan.repr,
            options_.selector_disk_cache, tree_hash_.value_or(0));
        if (!compiled.ok() &&
            (compiled.status().code() == StatusCode::kResourceExhausted ||
             compiled.status().code() == StatusCode::kDeadlineExceeded)) {
          // Budget and deadline trips are hard errors for the whole run:
          // falling back to the reference evaluator would evade the very
          // limits the governor enforces.  Every other compile failure
          // (width > 2, injected compiler faults) is a decline, served
          // by the reference SelectNodes below.
          return compiled.status();
        }
        std::optional<CompiledSelector> slot;
        if (compiled.ok()) {
          slot = std::move(compiled).value();
          // The materialized relation stays alive for the run.
          TREEWALK_RETURN_IF_ERROR(GovernorCharge(
              options_.governor, MemoryCategory::kCompiledOps,
              slot->RetainedBytes()));
        }
        it = compiled_.emplace(canonical_id, std::move(slot)).first;
      }
      if (it->second.has_value()) {
        ++stats_.compiled_selector_evals;
        if (it->second->repr() == AxisRepr::kInterval) {
          ++stats_.interval_selector_evals;
        } else {
          ++stats_.dense_selector_evals;
        }
        ScopedLatencyUs timer(InterpMetrics::Get().compiled_eval_us);
        return it->second->SelectFrom(origin);
      }
    }
    ScopedLatencyUs timer(InterpMetrics::Get().reference_eval_us);
    return SelectNodes(tree_, selector, origin);
  }

  void FlushMetrics() const {
    InterpMetrics& m = InterpMetrics::Get();
    m.runs->Increment();
    m.steps->Increment(stats_.steps);
    m.tabled_steps->Increment(stats_.tabled_steps);
    m.subcomputations->Increment(stats_.subcomputations);
    m.atp_calls->Increment(stats_.atp_calls);
    m.compiled_evals->Increment(stats_.compiled_selector_evals);
    m.reference_evals->Increment(stats_.atp_calls -
                                 stats_.compiled_selector_evals);
    m.interval_evals->Increment(stats_.interval_selector_evals);
    m.dense_evals->Increment(stats_.dense_selector_evals);
    m.picks_reference->Increment(stats_.planner_picks_reference);
    m.picks_dense->Increment(stats_.planner_picks_dense);
    m.picks_interval->Increment(stats_.planner_picks_interval);
    m.store_updates->Increment(stats_.store_updates);
  }

  static Result<Outcome> Rejected(RejectReason reason) {
    Outcome out;
    out.accepted = false;
    out.reason = reason;
    return out;
  }

  Status CheckDiscipline(const Relation& r, const char* what) const {
    if (program_.program_class() == ProgramClass::kTwL && r.size() > 1) {
      return FailedPrecondition(
          std::string("tw^l register discipline violated: ") + what +
          " produced " + std::to_string(r.size()) + " values");
    }
    return Status::Ok();
  }

  void Trace(NodeId u, const std::string& state, const Rule& rule) {
    if (!options_.record_trace ||
        trace_.size() >= options_.max_trace_entries) {
      return;
    }
    std::string entry = "[" + std::to_string(u) + ":" +
                        tree_.LabelName(tree_.label(u)) + ", " + state + "]";
    switch (rule.action.kind) {
      case Action::Kind::kMove:
        entry += " move " + std::string(MoveName(rule.action.move));
        break;
      case Action::Kind::kUpdate:
        entry += " update X" + std::to_string(rule.action.register_index + 1);
        break;
      case Action::Kind::kLookAhead:
        entry += " atp(" + rule.action.selector.ToString() + ", " +
                 rule.action.call_state + ")";
        break;
    }
    entry += " -> " + rule.action.next_state;
    trace_.push_back(std::move(entry));
  }

  const Program& program_;
  const Tree& tree_;
  const RunOptions& options_;
  const RuleDispatch dispatch_;
  /// The outcome table is on: cycle detection on and no trace.  Traced
  /// runs stay the untabled reference; with detection off (degradation
  /// rung 3) nothing is interned or tabled.
  const bool tabling_;
  /// kCycleMemo charges held for the whole run: interned stores and
  /// table entries.  Released when the run ends.
  ScopedMemoryCharge run_charge_;
  std::vector<std::string> state_names_;  // Program::States(), by StateId
  StateId initial_state_ = 0;
  StateId final_state_ = 0;
  /// Per rule index: the successor state and, for look-aheads, the call
  /// state.
  std::vector<StateId> next_states_;
  std::vector<StateId> call_states_;
  std::vector<std::size_t> selector_ids_;
  /// The run's hash-consed stores (stable addresses), by StoreId, and
  /// their index by Fingerprint().
  std::deque<Store> stores_;
  std::unordered_multimap<std::uint64_t, StoreId> store_index_;
  /// Finished atp() subcomputations by call configuration.
  std::unordered_map<ConfigKey, TableEntry, ConfigKeyHash> table_;
  /// The deepest nesting reached inside the innermost call being
  /// tabled.
  int suffix_depth_ = 0;
  std::optional<AxisIndex> axis_index_;
  std::optional<std::uint64_t> tree_hash_;  // lazy; disk-cache key half
  /// Lazy tree statistics for the planner (snapshot-preloaded or one
  /// O(n) scan, computed at the first selector planned this run).
  std::optional<TreeStats> tree_stats_;
  /// Per-canonical-selector compile result: absent = untried, nullopt =
  /// compiler declined (reference fallback), value = compiled.
  std::map<std::size_t, std::optional<CompiledSelector>> compiled_;
  RunStats stats_;
  std::vector<std::string> trace_;
};

}  // namespace

Interpreter::Interpreter(const Program& program, RunOptions options)
    : program_(program), options_(options) {}

Result<RunResult> Interpreter::Run(const Tree& input) const {
  if (input.empty()) return InvalidArgument("empty input tree");
  DelimitedTree delimited = Delimit(input);
  return RunDelimited(delimited.tree);
}

Result<RunResult> Interpreter::RunDelimited(const Tree& delimited) const {
  if (delimited.empty()) return InvalidArgument("empty input tree");
  Runner runner(program_, delimited, options_);
  return runner.Run();
}

Result<bool> Accepts(const Program& program, const Tree& input,
                     RunOptions options) {
  Interpreter interpreter(program, options);
  TREEWALK_ASSIGN_OR_RETURN(RunResult result, interpreter.Run(input));
  return result.accepted;
}

}  // namespace treewalk
