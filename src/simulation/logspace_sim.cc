#include "src/simulation/logspace_sim.h"

#include <algorithm>
#include <string>
#include <vector>

#include "src/automata/step.h"
#include "src/simulation/pebbles.h"
#include "src/tree/delimited.h"

namespace treewalk {

namespace {

/// Number of bit-planes needed for `alphabet` symbols.
int PlanesFor(int alphabet) {
  int planes = 0;
  for (int v = alphabet - 1; v > 0; v >>= 1) ++planes;
  return std::max(planes, 1);
}

}  // namespace

Result<LogspaceSimResult> RunLogspaceSimulation(const Xtm& machine,
                                                const Tree& input,
                                                XtmOptions options) {
  TREEWALK_RETURN_IF_ERROR(machine.Validate());
  if (machine.num_registers != 0) {
    return FailedPrecondition(
        "the LOGSPACE simulation handles register-free machines");
  }
  if (!machine.universal_states.empty()) {
    return FailedPrecondition(
        "the LOGSPACE simulation handles deterministic machines");
  }
  if (input.empty()) return InvalidArgument("empty input tree");

  DelimitedTree delimited = Delimit(input);
  const Tree& tree = delimited.tree;

  // Pebble layout: planes value pebbles encoding the tape, then the head.
  const int planes = PlanesFor(machine.tape_alphabet_size);
  const int head = planes;
  PebbleMachine pebbles(tree, planes + 1);

  const RuleDispatch dispatch(machine.transitions, tree);

  LogspaceSimResult result;
  result.tape_cells = 1;
  NodeId node = tree.root();
  std::string state = machine.initial_state;

  // Head index, maintained as the rank of the head pebble; the integer
  // shadow below is only used to drive the bit loops (walking the head
  // pebble to the root would recover it at the same asymptotic cost).
  int head_index = 0;

  auto read_symbol = [&]() -> Result<int> {
    int symbol = 0;
    for (int j = 0; j < planes; ++j) {
      TREEWALK_ASSIGN_OR_RETURN(int bit, pebbles.TestBit(j, head_index));
      symbol |= bit << j;
    }
    return symbol;
  };
  auto write_symbol = [&](int symbol) -> Status {
    for (int j = 0; j < planes; ++j) {
      TREEWALK_RETURN_IF_ERROR(
          pebbles.WriteBit(j, head_index, ((symbol >> j) & 1) != 0));
    }
    return Status::Ok();
  };

  while (true) {
    if (state == machine.accept_state) {
      result.accepted = true;
      result.walk_steps = pebbles.steps();
      return result;
    }
    TREEWALK_ASSIGN_OR_RETURN(int read, read_symbol());

    // Find the unique applicable transition.
    const XtmTransition* found = nullptr;
    for (std::size_t i : dispatch.Candidates(state, tree.label(node))) {
      const XtmTransition& t = machine.transitions[i];
      if (t.read != -1 && t.read != read) continue;
      if (found != nullptr) {
        return Nondeterminism("two transitions apply in state " + state);
      }
      found = &t;
    }
    if (found == nullptr) {
      result.accepted = false;
      result.walk_steps = pebbles.steps();
      return result;
    }
    if (++result.tm_steps > options.max_steps) {
      return ResourceExhausted("simulated xTM exceeded max_steps");
    }

    NodeId v = MoveFrom(tree, node, found->tree_move);
    if (v == kNoNode) {
      result.accepted = false;
      result.walk_steps = pebbles.steps();
      return result;
    }
    node = v;

    // Tape write.
    if (found->write != -1) {
      TREEWALK_RETURN_IF_ERROR(write_symbol(found->write));
    }
    // Tape move.
    switch (found->tape_move) {
      case TapeMove::kStay:
        break;
      case TapeMove::kLeft:
        if (head_index == 0) {
          result.accepted = false;  // fell off the tape
          result.walk_steps = pebbles.steps();
          return result;
        }
        TREEWALK_RETURN_IF_ERROR(pebbles.DocPrev(head));
        --head_index;
        break;
      case TapeMove::kRight:
        TREEWALK_RETURN_IF_ERROR(pebbles.DocNext(head));
        ++head_index;
        break;
    }
    result.tape_cells =
        std::max(result.tape_cells, static_cast<std::size_t>(head_index) + 1);
    state = found->next_state;
  }
}

}  // namespace treewalk
