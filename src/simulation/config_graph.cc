#include "src/simulation/config_graph.h"

#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "src/automata/step.h"
#include "src/logic/tree_eval.h"
#include "src/tree/delimited.h"

namespace treewalk {

namespace {

using ConfigKey = std::tuple<NodeId, StateId, Store>;

struct CallOutcome {
  enum class Kind { kInProgress, kAccept, kReject };
  Kind kind = Kind::kInProgress;
  Relation returned{0};
};

class GraphEvaluator {
 public:
  GraphEvaluator(const Program& program, const Tree& tree,
                 const RunOptions& options)
      : program_(program),
        tree_(tree),
        options_(options),
        prepared_(program),
        step_(prepared_, tree) {}

  Result<ConfigGraphResult> Run() {
    TREEWALK_ASSIGN_OR_RETURN(
        CallOutcome outcome,
        Resolve(tree_.root(), prepared_.initial_state(),
                program_.initial_store(), 0));
    ConfigGraphResult result;
    result.accepted = outcome.kind == CallOutcome::Kind::kAccept;
    result.configs = seen_configs_.size();
    result.memoized_calls = memo_.size();
    result.steps = steps_;
    return result;
  }

 private:
  /// Outcome of the computation started at [u, q, tau], memoized.
  Result<CallOutcome> Resolve(NodeId start, StateId start_state,
                              const Store& start_store, int depth) {
    if (depth > options_.max_depth) {
      return ResourceExhausted("atp nesting exceeded max_depth");
    }
    ConfigKey key(start, start_state, start_store);
    auto it = memo_.find(key);
    if (it != memo_.end()) {
      if (it->second.kind == CallOutcome::Kind::kInProgress) {
        // Self-referential subcomputation: the direct semantics recurses
        // forever, which is rejection.
        CallOutcome reject;
        reject.kind = CallOutcome::Kind::kReject;
        return reject;
      }
      return it->second;
    }
    memo_.emplace(key, CallOutcome{});

    NodeId u = start;
    StateId state = start_state;
    Store store = start_store;
    std::set<ConfigKey> visited;

    CallOutcome outcome;
    outcome.kind = CallOutcome::Kind::kReject;
    while (true) {
      if (state == prepared_.final_state()) {
        outcome.kind = CallOutcome::Kind::kAccept;
        if (store.num_relations() > 0) outcome.returned = store.At(0);
        break;
      }
      ConfigKey config(u, state, store);
      if (!visited.insert(config).second) break;  // cycle: reject
      seen_configs_.insert(config);

      TREEWALK_ASSIGN_OR_RETURN(const PreparedRule* rule,
                                step_.FindRule(u, state, store));
      if (rule == nullptr) break;  // stuck: reject
      if (++steps_ > options_.max_steps) {
        return ResourceExhausted("exceeded max_steps");
      }

      const Action& action = rule->rule->action;
      bool rejected = false;
      switch (action.kind) {
        case Action::Kind::kMove: {
          NodeId v = MoveFrom(tree_, u, action.move);
          if (v == kNoNode) {
            rejected = true;
            break;
          }
          u = v;
          break;
        }
        case Action::Kind::kUpdate: {
          TREEWALK_ASSIGN_OR_RETURN(const Relation* updated,
                                    step_.EvalUpdate(*rule, u, store));
          TREEWALK_RETURN_IF_ERROR(store.Assign(
              static_cast<std::size_t>(action.register_index), *updated));
          break;
        }
        case Action::Kind::kLookAhead: {
          TREEWALK_ASSIGN_OR_RETURN(
              std::vector<NodeId> selected,
              SelectNodes(tree_, action.selector, u));
          Relation collected(store.At(0).arity());
          for (NodeId v : selected) {
            TREEWALK_ASSIGN_OR_RETURN(
                CallOutcome sub,
                Resolve(v, rule->call_state, store, depth + 1));
            if (sub.kind != CallOutcome::Kind::kAccept) {
              rejected = true;
              break;
            }
            collected.UnionWith(sub.returned);
          }
          if (rejected) break;
          TREEWALK_RETURN_IF_ERROR(store.Replace(
              static_cast<std::size_t>(action.register_index),
              std::move(collected)));
          break;
        }
      }
      if (rejected) break;
      state = rule->next_state;
    }

    memo_[key] = outcome;
    return outcome;
  }

  const Program& program_;
  const Tree& tree_;
  const RunOptions& options_;
  const PreparedProgram prepared_;
  StepContext step_;
  std::map<ConfigKey, CallOutcome> memo_;
  std::set<ConfigKey> seen_configs_;
  std::int64_t steps_ = 0;
};

}  // namespace

Result<ConfigGraphResult> EvaluateViaConfigGraph(const Program& program,
                                                 const Tree& input,
                                                 RunOptions options) {
  if (input.empty()) return InvalidArgument("empty input tree");
  DelimitedTree delimited = Delimit(input);
  GraphEvaluator evaluator(program, delimited.tree, options);
  return evaluator.Run();
}

}  // namespace treewalk
