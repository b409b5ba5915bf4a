#ifndef TREEWALK_TESTS_FUZZ_PROGRAM_DRIVER_H_
#define TREEWALK_TESTS_FUZZ_PROGRAM_DRIVER_H_

// Shared body of the .twp program fuzzer: parse the text and, when it
// is a program, prepare it (PreparedProgram, src/automata/step.h) and
// cross-check every prepared guard and update against the reference
// store evaluator (EvalStoreSentence / EvalStoreFormula) on a few small
// stores, at a node with attributes "a" and "b" and at one with none,
// so attr(.) references resolve or go missing.  Driven by
// fuzz_program.cc under libFuzzer and replayed over the seed corpus by
// fuzz_corpus_test.cc in tier-1 builds.  Returns whether the text
// parsed; sets `*agrees` to false on any disagreement, which is a bug.

#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/automata/step.h"
#include "src/automata/text_format.h"
#include "src/common/interner.h"
#include "src/relstore/store.h"
#include "src/relstore/store_eval.h"

namespace treewalk {

inline bool ProgramStepAgrees(std::string_view source, bool* agrees) {
  *agrees = true;
  Result<Program> program = ParseProgramText(source);
  if (!program.ok()) return false;
  const PreparedProgram prepared(*program);

  ValueInterner values;
  const std::vector<DataValue> pool = {0, 1, 7, values.ValueFor("s")};
  // Small stores over the program's schema: every register empty, then
  // holding one constant tuple, then three.
  std::vector<Store> stores;
  for (int fill = 0; fill < 3; ++fill) {
    Store store = program->initial_store();
    for (std::size_t r = 0; r < store.num_relations(); ++r) {
      Relation relation(store.At(r).arity());
      const std::size_t arity = static_cast<std::size_t>(relation.arity());
      for (std::size_t k = 0; k < pool.size() && k < 3; ++k) {
        if (fill == 0 || (fill == 1 && k != r % pool.size())) continue;
        relation.Insert(Tuple(arity, pool[k]));
      }
      if (!store.Replace(r, std::move(relation)).ok()) *agrees = false;
    }
    stores.push_back(std::move(store));
  }

  for (bool with_attrs : {true, false}) {
    Interner names;
    std::vector<DataValue> columns;
    std::map<std::string, DataValue> by_name;
    if (with_attrs) {
      for (auto [name, value] : {std::pair<const char*, DataValue>{"a", 7},
                                 {"b", values.ValueFor("s")}}) {
        names.Intern(name);
        columns.push_back(value);
        by_name[name] = value;
      }
    }
    std::vector<StoreBinding> guards(prepared.rules().size());
    std::vector<StoreBinding> updates(prepared.rules().size());
    PreparedStoreContext context;
    context.attribute_names = &names;
    context.node_attrs = columns;
    context.values = &values;
    Relation out;
    for (const Store& store : stores) {
      StoreContext reference;
      reference.store = &store;
      reference.current_attrs = by_name;
      reference.values = &values;
      context.store = &store;
      for (std::size_t i = 0; i < prepared.rules().size(); ++i) {
        const PreparedRule& rule = prepared.rules()[i];
        const Result<bool> want = EvalStoreSentence(reference, rule.rule->guard);
        const Result<bool> got = rule.guard.EvalSentence(context, guards[i]);
        if (got.ok() != want.ok() ||
            (want.ok() ? *got != *want : got.status() != want.status())) {
          *agrees = false;
        }
        if (rule.rule->action.kind != Action::Kind::kUpdate) continue;
        const Result<Relation> want_update = EvalStoreFormula(
            reference, rule.rule->action.update, rule.rule->action.update_vars);
        const Status got_update =
            rule.update.EvalUpdate(context, updates[i], out);
        if (got_update.ok() != want_update.ok() ||
            (want_update.ok() ? out != *want_update
                              : got_update != want_update.status())) {
          *agrees = false;
        }
      }
    }
  }
  return true;
}

}  // namespace treewalk

#endif  // TREEWALK_TESTS_FUZZ_PROGRAM_DRIVER_H_
