// libFuzzer harness for the .twp program text reader (text_format.h);
// covers the line tokenizer, the rule grammar, and — through guards and
// selectors — the formula parser and program validation in Build().
// Programs that parse are prepared, and their prepared guards and
// updates are cross-checked against the reference store evaluator
// (program_driver.h); a disagreement traps.

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "tests/fuzz/program_driver.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  std::string_view source(reinterpret_cast<const char*>(data), size);
  bool agrees = true;
  (void)treewalk::ProgramStepAgrees(source, &agrees);
  if (!agrees) __builtin_trap();
  return 0;
}
