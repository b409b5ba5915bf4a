#include "src/xtm/machine.h"

namespace treewalk {

std::vector<std::string> Xtm::States() const {
  std::vector<std::string> states = {initial_state, accept_state};
  states.insert(states.end(), universal_states.begin(), universal_states.end());
  for (const XtmTransition& t : transitions) {
    states.push_back(t.state);
    states.push_back(t.next_state);
  }
  return states;
}

Status Xtm::Validate() const {
  if (initial_state.empty() || accept_state.empty()) {
    return InvalidArgument("xTM initial/accept states not set");
  }
  if (tape_alphabet_size < 1) {
    return InvalidArgument("tape alphabet must contain at least the blank");
  }
  if (num_registers < 0) return InvalidArgument("negative register count");
  for (std::size_t i = 0; i < transitions.size(); ++i) {
    const XtmTransition& t = transitions[i];
    auto err = [&](const std::string& message) {
      return InvalidArgument("transition #" + std::to_string(i) + ": " +
                             message);
    };
    if (t.state.empty() || t.next_state.empty()) {
      return err("empty state name");
    }
    if (t.state == accept_state) {
      return err("no transition may leave the accept state");
    }
    if (t.read < -1 || t.read >= tape_alphabet_size) {
      return err("read symbol out of range");
    }
    if (t.write < -1 || t.write >= tape_alphabet_size) {
      return err("write symbol out of range");
    }
    if (t.guard.kind != XtmGuard::Kind::kNone &&
        (t.guard.reg < 0 || t.guard.reg >= num_registers)) {
      return err("guard register out of range");
    }
    if (t.reg_op.kind != XtmRegOp::Kind::kNone &&
        (t.reg_op.reg < 0 || t.reg_op.reg >= num_registers)) {
      return err("register op out of range");
    }
  }
  return Status::Ok();
}

}  // namespace treewalk
