#include "src/automata/interpreter.h"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <unordered_map>
#include <utility>

#include "src/common/failpoint.h"
#include "src/common/governor.h"
#include "src/common/metrics.h"
#include "src/logic/compile.h"
#include "src/logic/planner.h"
#include "src/logic/selector_cache.h"
#include "src/logic/tree_eval.h"
#include "src/tree/snapshot.h"
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
  Counter* store_updates;
  Counter* picks_reference;
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
      m->subcomputations = r.FindOrCreateCounter(
          "treewalk_interp_subcomputations_total",
          "atp() subcomputations started, one per selected node, table "
          "replays included");
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
      m->store_updates = r.FindOrCreateCounter(
          "treewalk_interp_store_updates_total", "Register store writes");
      m->picks_reference = r.FindOrCreateCounter(
          "treewalk_planner_picks_total",
          "Cost-based planner strategy picks, one per distinct selector "
          "per run",
          {{"strategy", "reference"}});
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

/// The configurations one computation has visited: an open-addressing
/// hash set whose table is reused by every computation at the same
/// nesting depth.  Clear() starts a new generation instead of touching
/// the table, so a computation allocates only when its memo outgrows
/// every earlier one at its depth.
class ConfigSet {
 public:
  void Clear() {
    size_ = 0;
    if (++generation_ == 0) {  // wrapped: forget every stamp
      for (Slot& slot : slots_) slot.generation = 0;
      generation_ = 1;
    }
  }

  /// True when `key` was not in the set yet.
  bool Insert(const ConfigKey& key) {
    if ((size_ + 1) * 2 > slots_.size()) Grow();
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = ConfigKeyHash{}(key) & mask;; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.generation != generation_) {
        slot.key = key;
        slot.generation = generation_;
        ++size_;
        return true;
      }
      if (slot.key == key) return false;
    }
  }

 private:
  struct Slot {
    ConfigKey key{};
    std::uint32_t generation = 0;
  };

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(std::max<std::size_t>(16, old.size() * 2), Slot{});
    const std::uint32_t live = generation_;
    generation_ = 1;
    size_ = 0;
    for (const Slot& slot : old) {
      if (slot.generation == live) Insert(slot.key);
    }
  }

  std::vector<Slot> slots_;  // power-of-two size
  std::size_t size_ = 0;
  std::uint32_t generation_ = 1;
};

/// Scratch of the computations at one atp() nesting depth, reused by
/// each of them in turn.
struct Frame {
  ConfigSet visited;
  /// The nodes the current look-ahead selected.
  std::vector<NodeId> selected;
  /// The union of what its subcomputations returned.
  Relation collected{0};
  /// The current store when stores are not interned.
  Store owned;
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
  /// The deepest atp() nesting inside the suffix, relative to its call.
  int depth = 0;
  StoreId final_store = kNoStore;
  bool accepted = false;
  RejectReason reason = RejectReason::kNone;
};

class Runner {
 public:
  Runner(const PreparedProgram& prepared, const Tree& tree,
         const RunOptions& options)
      : prepared_(prepared),
        program_(prepared.program()),
        tree_(tree),
        options_(options),
        step_(prepared, tree),
        tabling_(options.detect_cycles && !options.record_trace),
        run_charge_(options.governor, MemoryCategory::kCycleMemo) {}

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
    const StateId initial_state = prepared_.initial_state();
    if (!options_.detect_cycles) {
      return Compute(tree_.root(), initial_state, initial, kNoStore, 0);
    }
    TREEWALK_ASSIGN_OR_RETURN(StoreId id, Intern(initial));
    return Compute(tree_.root(), initial_state, stores_[id], id, 0);
  }

  /// The hash-consed id of `store`: an existing id when an equal store
  /// was reached before in this run, else a fresh one holding a copy.
  /// Keyed by Fingerprint(), with exact comparison on collision.
  Result<StoreId> Intern(const Store& store) {
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
    stores_.push_back(store);
    store_index_.emplace(fingerprint, id);
    return id;
  }

  /// Makes `relation` register `index` of the current store.  With
  /// interning the new store is assembled in reused scratch and
  /// hash-consed, and `store` points into the run's pool; without it the
  /// frame's `owned` copy is edited in place.
  Status ReplaceRegister(const Store*& store, StoreId& store_id, Store& owned,
                         std::size_t index, const Relation& relation) {
    if (!options_.detect_cycles) {
      if (store != &owned) {
        owned = *store;
        store = &owned;
      }
      return owned.Assign(index, relation);
    }
    next_store_ = *store;
    TREEWALK_RETURN_IF_ERROR(next_store_.Assign(index, relation));
    TREEWALK_ASSIGN_OR_RETURN(store_id, Intern(next_store_));
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
    while (frames_.size() <= static_cast<std::size_t>(depth)) {
      frames_.emplace_back();
    }
    Frame& frame = frames_[static_cast<std::size_t>(depth)];
    frame.visited.Clear();
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
      if (state == prepared_.final_state()) {
        Outcome out;
        out.accepted = true;
        out.final_store = store_id;
        if (store_id == kNoStore && store->num_relations() > 0) {
          out.returned = store->At(0);
        }
        return out;
      }
      if (options_.detect_cycles) {
        if (!frame.visited.Insert(ConfigKey{u, state, store_id})) {
          return Rejected(RejectReason::kCycle);
        }
        TREEWALK_RETURN_IF_ERROR(memo_charge.Add(
            static_cast<std::int64_t>(sizeof(ConfigKey)) +
            kNodeOverheadBytes));
      }

      TREEWALK_ASSIGN_OR_RETURN(const PreparedRule* rule,
                                step_.FindRule(u, state, *store));
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
      Trace(u, prepared_.states().Name(state), *rule->rule);

      const Action& action = rule->rule->action;
      switch (action.kind) {
        case Action::Kind::kMove: {
          NodeId v = MoveFrom(tree_, u, action.move);
          if (v == kNoNode) return Rejected(RejectReason::kMoveOffTree);
          u = v;
          break;
        }
        case Action::Kind::kUpdate: {
          TREEWALK_ASSIGN_OR_RETURN(const Relation* result,
                                    step_.EvalUpdate(*rule, u, *store));
          TREEWALK_RETURN_IF_ERROR(CheckDiscipline(*result, "update"));
          TREEWALK_RETURN_IF_ERROR(ReplaceRegister(
              store, store_id, frame.owned,
              static_cast<std::size_t>(action.register_index), *result));
          ++stats_.store_updates;
          break;
        }
        case Action::Kind::kLookAhead: {
          ++stats_.atp_calls;
          std::vector<NodeId>& selected = frame.selected;
          TREEWALK_RETURN_IF_ERROR(
              EvalSelector(rule->selector_id, action.selector, u, selected));
          if (program_.program_class() == ProgramClass::kTwL &&
              selected.size() > 1) {
            return FailedPrecondition(
                "tw^l look-ahead selected " +
                std::to_string(selected.size()) +
                " nodes; Definition 5.1 allows at most one");
          }
          Relation& collected = frame.collected;
          collected.Reset(store->At(0).arity());
          for (NodeId v : selected) {
            ++stats_.subcomputations;
            TREEWALK_ASSIGN_OR_RETURN(
                Outcome sub,
                Call(v, rule->call_state, *store, store_id, depth + 1));
            if (!sub.accepted) {
              return Rejected(RejectReason::kSubcomputationRejected);
            }
            collected.UnionWith(Returned(sub));
          }
          TREEWALK_RETURN_IF_ERROR(CheckDiscipline(collected, "look-ahead"));
          TREEWALK_RETURN_IF_ERROR(ReplaceRegister(
              store, store_id, frame.owned,
              static_cast<std::size_t>(action.register_index), collected));
          ++stats_.store_updates;
          break;
        }
      }
      state = rule->next_state;
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
  /// Fills `out` with the selected nodes, in document order.
  Status EvalSelector(std::size_t canonical_id, const Formula& selector,
                      NodeId origin, std::vector<NodeId>& out) {
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
        if (plan.strategy == PlanStrategy::kReference) {
          ++stats_.planner_picks_reference;
          compiled_.emplace(canonical_id, std::nullopt);
          return SelectReference(selector, origin, out);
        }
        ++stats_.planner_picks_interval;
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
            *axis_index_, selector, "x", "y", options_.selector_disk_cache,
            tree_hash_.value_or(0));
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
        ScopedLatencyUs timer(InterpMetrics::Get().compiled_eval_us);
        it->second->SelectInto(origin, out);
        return Status::Ok();
      }
    }
    return SelectReference(selector, origin, out);
  }

  Status SelectReference(const Formula& selector, NodeId origin,
                         std::vector<NodeId>& out) {
    ScopedLatencyUs timer(InterpMetrics::Get().reference_eval_us);
    TREEWALK_ASSIGN_OR_RETURN(out, SelectNodes(tree_, selector, origin));
    return Status::Ok();
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
    m.picks_reference->Increment(stats_.planner_picks_reference);
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

  const PreparedProgram& prepared_;
  const Program& program_;
  const Tree& tree_;
  const RunOptions& options_;
  StepContext step_;
  /// The outcome table is on: cycle detection on and no trace.  Traced
  /// runs stay the untabled reference; with detection off (degradation
  /// rung 3) nothing is interned or tabled.
  const bool tabling_;
  /// kCycleMemo charges held for the whole run: interned stores and
  /// table entries.  Released when the run ends.
  ScopedMemoryCharge run_charge_;
  /// Scratch by atp() nesting depth (stable addresses).
  std::deque<Frame> frames_;
  /// Where ReplaceRegister assembles the next store before interning it.
  Store next_store_;
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
    : prepared_(program), options_(options) {}

Result<RunResult> Interpreter::Run(const Tree& input) const {
  if (input.empty()) return InvalidArgument("empty input tree");
  DelimitedTree delimited = Delimit(input);
  return RunDelimited(delimited.tree);
}

Result<RunResult> Interpreter::RunDelimited(const Tree& delimited) const {
  if (delimited.empty()) return InvalidArgument("empty input tree");
  Runner runner(prepared_, delimited, options_);
  return runner.Run();
}

Result<bool> Accepts(const Program& program, const Tree& input,
                     RunOptions options) {
  Interpreter interpreter(program, options);
  TREEWALK_ASSIGN_OR_RETURN(RunResult result, interpreter.Run(input));
  return result.accepted;
}

}  // namespace treewalk
