#include "src/protocol/protocol.h"

#include <map>
#include <set>
#include <tuple>

#include "src/automata/step.h"
#include "src/hyperset/hyperset.h"
#include "src/logic/atomic_types.h"
#include "src/logic/tree_eval.h"
#include "src/relstore/store_eval.h"
#include "src/tree/delimited.h"
#include "src/tree/term_io.h"

namespace treewalk {

const char* MessageKindName(ProtocolMessage::Kind kind) {
  switch (kind) {
    case ProtocolMessage::Kind::kType:
      return "type";
    case ProtocolMessage::Kind::kAtpRequest:
      return "atp-request";
    case ProtocolMessage::Kind::kReply:
      return "reply";
    case ProtocolMessage::Kind::kConfig:
      return "config";
    case ProtocolMessage::Kind::kConfigNeedAnswer:
      return "config-need-answer";
    case ProtocolMessage::Kind::kAccept:
      return "accept";
    case ProtocolMessage::Kind::kReject:
      return "reject";
  }
  return "?";
}

namespace {

using ConfigKey = std::tuple<NodeId, std::string, Store>;

struct CallOutcome {
  enum class Kind { kInProgress, kAccept, kReject };
  Kind kind = Kind::kInProgress;
  Relation returned{0};
};

std::string SerializeStore(const Store& store) { return store.ToString(); }

/// The protocol session: a memoizing evaluation of the program on the
/// full split string, attributing every step to the party owning the
/// current node and recording the messages the Lemma 4.5 protocol
/// exchanges.
class Session {
 public:
  Session(const Program& program, const Tree& tree,
          const std::vector<int>& owner, const ProtocolOptions& options)
      : program_(program),
        tree_(tree),
        owner_(owner),
        options_(options),
        dispatch_(program.rules(), tree) {}

  Result<ProtocolResult> Run(std::uint64_t type_token_f,
                             std::uint64_t type_token_g) {
    Emit(ProtocolMessage::Kind::kType, 0, std::to_string(type_token_f));
    Emit(ProtocolMessage::Kind::kType, 1, std::to_string(type_token_g));

    TREEWALK_ASSIGN_OR_RETURN(
        CallOutcome outcome,
        Resolve(tree_.root(), program_.initial_state(),
                program_.initial_store(), 0));
    bool accepted = outcome.kind == CallOutcome::Kind::kAccept;
    Emit(accepted ? ProtocolMessage::Kind::kAccept
                  : ProtocolMessage::Kind::kReject,
         last_party_, "");

    ProtocolResult result;
    result.accepted = accepted;
    result.steps = steps_;
    result.dialogue_fingerprint = fingerprint_;
    result.transcript = std::move(transcript_);
    return result;
  }

 private:
  int OwnerOf(NodeId u) const { return owner_[static_cast<std::size_t>(u)]; }

  void Emit(ProtocolMessage::Kind kind, int from, std::string payload) {
    // Fingerprint: FNV-1a over (kind, from, payload).
    auto mix = [this](std::uint64_t v) {
      for (int byte = 0; byte < 8; ++byte) {
        fingerprint_ ^= (v >> (8 * byte)) & 0xff;
        fingerprint_ *= 1099511628211ull;
      }
    };
    mix(static_cast<std::uint64_t>(kind));
    mix(static_cast<std::uint64_t>(from));
    for (char c : payload) mix(static_cast<unsigned char>(c));
    transcript_.push_back(
        ProtocolMessage{kind, from, std::move(payload)});
  }

  Result<CallOutcome> Resolve(NodeId start, const std::string& start_state,
                              const Store& start_store, int depth) {
    if (depth > options_.max_depth) {
      return ResourceExhausted("atp nesting exceeded max_depth");
    }
    ConfigKey key(start, start_state, start_store);
    auto it = memo_.find(key);
    if (it != memo_.end()) {
      if (it->second.kind == CallOutcome::Kind::kInProgress) {
        // Lemma 4.5's rule (ii): a request re-issued while in flight
        // means the computation cycled; the party sends <reject>.
        Emit(ProtocolMessage::Kind::kReject, OwnerOf(start), "cycle");
        CallOutcome reject;
        reject.kind = CallOutcome::Kind::kReject;
        return reject;
      }
      return it->second;  // rule (i): reuse, no message
    }
    memo_.emplace(key, CallOutcome{});

    NodeId u = start;
    std::string state = start_state;
    Store store = start_store;
    std::set<ConfigKey> visited;

    CallOutcome outcome;
    outcome.kind = CallOutcome::Kind::kReject;
    while (true) {
      last_party_ = OwnerOf(u);
      if (state == program_.final_state()) {
        outcome.kind = CallOutcome::Kind::kAccept;
        if (store.num_relations() > 0) outcome.returned = store.At(0);
        break;
      }
      ConfigKey config(u, state, store);
      if (!visited.insert(config).second) {
        Emit(ProtocolMessage::Kind::kReject, OwnerOf(u), "cycle");
        break;
      }

      TREEWALK_ASSIGN_OR_RETURN(
          const Rule* rule,
          FindRule(program_, dispatch_, tree_, u, state, store));
      if (rule == nullptr) break;  // stuck
      if (++steps_ > options_.max_steps) {
        return ResourceExhausted("exceeded max_steps");
      }

      const Action& action = rule->action;
      bool rejected = false;
      switch (action.kind) {
        case Action::Kind::kMove: {
          NodeId v = MoveFrom(tree_, u, action.move);
          if (v == kNoNode) {
            rejected = true;
            break;
          }
          if (OwnerOf(v) != OwnerOf(u)) {
            // The walk crosses the boundary: the active party ships the
            // configuration (with NeedAnswer when a caller awaits us).
            Emit(depth == 0 ? ProtocolMessage::Kind::kConfig
                            : ProtocolMessage::Kind::kConfigNeedAnswer,
                 OwnerOf(u),
                 action.next_state + " | " + SerializeStore(store));
          }
          u = v;
          break;
        }
        case Action::Kind::kUpdate: {
          StoreContext context = MakeStoreContext(tree_, u, store);
          TREEWALK_ASSIGN_OR_RETURN(
              Relation updated,
              EvalStoreFormula(context, action.update, action.update_vars));
          TREEWALK_RETURN_IF_ERROR(store.Replace(
              static_cast<std::size_t>(action.register_index),
              std::move(updated)));
          break;
        }
        case Action::Kind::kLookAhead: {
          TREEWALK_ASSIGN_OR_RETURN(
              std::vector<NodeId> selected,
              SelectNodes(tree_, action.selector, u));
          // Partition by owner; a nonempty foreign part costs an
          // atp-request (once per distinct request payload).
          bool has_foreign = false;
          for (NodeId v : selected) {
            if (OwnerOf(v) != OwnerOf(u)) has_foreign = true;
          }
          if (has_foreign) {
            std::string payload = action.selector.ToString() + " | " +
                                  action.call_state + " | " +
                                  SerializeStore(store);
            if (requests_sent_.insert(payload).second) {
              Emit(ProtocolMessage::Kind::kAtpRequest, OwnerOf(u),
                   std::move(payload));
            } else {
              has_foreign = false;  // answered before: reuse silently
            }
          }
          Relation collected(store.At(0).arity());
          Relation foreign_part(store.At(0).arity());
          for (NodeId v : selected) {
            TREEWALK_ASSIGN_OR_RETURN(
                CallOutcome sub,
                Resolve(v, action.call_state, store, depth + 1));
            if (sub.kind != CallOutcome::Kind::kAccept) {
              rejected = true;
              break;
            }
            collected.UnionWith(sub.returned);
            if (OwnerOf(v) != OwnerOf(u)) {
              foreign_part.UnionWith(sub.returned);
            }
          }
          if (rejected) break;
          if (has_foreign) {
            Emit(ProtocolMessage::Kind::kReply, 1 - OwnerOf(u),
                 foreign_part.ToString());
          }
          TREEWALK_RETURN_IF_ERROR(store.Replace(
              static_cast<std::size_t>(action.register_index),
              std::move(collected)));
          break;
        }
      }
      if (rejected) break;
      state = action.next_state;
    }

    memo_[key] = outcome;
    return outcome;
  }

  const Program& program_;
  const Tree& tree_;
  const std::vector<int>& owner_;
  const ProtocolOptions& options_;
  const RuleDispatch dispatch_;
  std::map<ConfigKey, CallOutcome> memo_;
  std::set<std::string> requests_sent_;
  std::vector<ProtocolMessage> transcript_;
  std::uint64_t fingerprint_ = 1469598103934665603ull;
  std::int64_t steps_ = 0;
  int last_party_ = 0;
};

}  // namespace

Result<ProtocolResult> RunSplitProtocol(const Program& program,
                                        const std::vector<DataValue>& f,
                                        const std::vector<DataValue>& g,
                                        DataValue hash,
                                        ProtocolOptions options) {
  for (const auto* half : {&f, &g}) {
    for (DataValue v : *half) {
      if (v == hash) {
        return InvalidArgument("separator value occurs inside a half");
      }
    }
  }
  std::vector<DataValue> s = SplitString(f, g, hash);
  Tree string_tree = StringTree(s);
  DelimitedTree delimited = Delimit(string_tree);
  const Tree& tree = delimited.tree;

  // Ownership: original chain position <= |f| (f plus the separator)
  // belongs to party I; delimiters follow their parent; the top wrapper
  // is party I's.
  const NodeId boundary = static_cast<NodeId>(f.size());
  std::vector<int> owner(tree.size(), 0);
  for (NodeId d = 0; d < static_cast<NodeId>(tree.size()); ++d) {
    NodeId orig = delimited.to_original[static_cast<std::size_t>(d)];
    if (orig != kNoNode) {
      owner[static_cast<std::size_t>(d)] = orig <= boundary ? 0 : 1;
    } else if (tree.Parent(d) != kNoNode) {
      owner[static_cast<std::size_t>(d)] =
          owner[static_cast<std::size_t>(tree.Parent(d))];
    }
  }

  // N-type tokens over the shared finite domain (all values of s).
  std::vector<DataValue> domain = s;
  std::sort(domain.begin(), domain.end());
  domain.erase(std::unique(domain.begin(), domain.end()), domain.end());
  std::vector<DataValue> f_hash = f;
  f_hash.push_back(hash);
  std::vector<DataValue> hash_g = {hash};
  hash_g.insert(hash_g.end(), g.begin(), g.end());
  std::uint64_t token_f =
      TypeSetFingerprint(AtomicTypeSet(f_hash, options.type_k, domain));
  std::uint64_t token_g =
      TypeSetFingerprint(AtomicTypeSet(hash_g, options.type_k, domain));

  Session session(program, tree, owner, options);
  return session.Run(token_f, token_g);
}

Result<DialogueCensus> RunDialogueCensus(const Program& program, int level,
                                         const std::vector<DataValue>& domain,
                                         DataValue hash,
                                         ProtocolOptions options) {
  DialogueCensus census;
  census.level = level;
  std::map<std::uint64_t, const Hyperset*> seen;
  std::vector<Hyperset> hypersets = EnumerateHypersets(level, domain);
  census.num_hypersets = hypersets.size();
  for (const Hyperset& h : hypersets) {
    std::vector<DataValue> f = EncodeHyperset(h);
    TREEWALK_ASSIGN_OR_RETURN(ProtocolResult run,
                              RunSplitProtocol(program, f, f, hash, options));
    auto [it, inserted] = seen.emplace(run.dialogue_fingerprint, &h);
    if (!inserted && !census.collision_found && !(*it->second == h)) {
      census.collision_found = true;
      census.collision_a = it->second->ToString();
      census.collision_b = h.ToString();
    }
  }
  census.num_distinct_dialogues = seen.size();
  return census;
}

}  // namespace treewalk
