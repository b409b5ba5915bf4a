// Compiled set-at-a-time selector evaluation vs. the reference
// node-at-a-time evaluator (E14).  The workloads are quantifier-depth
// >= 2 FO selectors — the shape atp()-heavy programs evaluate on every
// look-ahead — over random attributed trees.  Every compiled benchmark
// first cross-checks the selected-node set against SelectNodes at each
// measured origin and aborts via SkipWithError on any mismatch, so a
// reported speedup is only ever a speedup on identical answers.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "src/automata/interpreter.h"
#include "src/automata/library.h"
#include "src/common/atomic_file.h"
#include "src/common/governor.h"
#include "src/logic/compile.h"
#include "src/logic/parser.h"
#include "src/logic/selector_cache.h"
#include "src/logic/tree_eval.h"
#include "src/tree/axis_index.h"
#include "src/tree/generate.h"
#include "src/tree/snapshot.h"
#include "src/tree/term_io.h"

namespace {

using namespace treewalk;

// Quantifier depth >= 2 throughout; `chain` is the two-step composition
// that exercises the guarded join twice, `nested` mixes edge and
// descendant axes, `guarded_forall` adds a universal guard.
constexpr const char* kChain =
    "exists z exists w (E(x, z) & E(z, w) & E(w, y))";
constexpr const char* kNested =
    "exists z (E(x, z) & exists w (E(z, w) & desc(w, y)))";
constexpr const char* kGuardedForall =
    "exists z (desc(x, z) & E(z, y) & forall w (E(z, w) -> lab(w, a)))";
// Example 3.2's atp() selector (with lab b): its compile conjoins E
// with a column broadcast of one label's span list, a long row under
// every row of E.
constexpr const char* kExample32 =
    "exists z (desc(x, y) & E(y, z) & lab(z, b))";

Tree Input(int n) {
  std::mt19937 rng(97);
  RandomTreeOptions options;
  options.num_nodes = n;
  options.labels = {"a", "b"};
  options.attributes = {};
  return RandomTree(rng, options);
}

// A fixed spread of origins: root, shallow, and mid-tree.  Both
// evaluators answer all of them per iteration, so each iteration is
// one "serve a handful of atp look-aheads" unit of work.
std::vector<NodeId> Origins(const Tree& t) {
  return {0, static_cast<NodeId>(t.size() / 4),
          static_cast<NodeId>(t.size() / 2),
          static_cast<NodeId>(3 * t.size() / 4)};
}

void BM_ReferenceSelector(benchmark::State& state, const char* selector) {
  Tree t = Input(static_cast<int>(state.range(0)));
  Formula phi = std::move(ParseFormula(selector)).value();
  std::vector<NodeId> origins = Origins(t);
  std::size_t selected = 0;
  for (auto _ : state) {
    selected = 0;
    for (NodeId origin : origins) {
      auto r = SelectNodes(t, phi, origin);
      if (!r.ok()) {
        state.SkipWithError(r.status().ToString().c_str());
        return;
      }
      selected += r->size();
    }
  }
  state.counters["selected"] = static_cast<double>(selected);
}

void BM_CompiledSelector(benchmark::State& state, const char* selector) {
  Tree t = Input(static_cast<int>(state.range(0)));
  Formula phi = std::move(ParseFormula(selector)).value();
  std::vector<NodeId> origins = Origins(t);
  AxisIndex index(t);
  Result<CompiledSelector> compiled =
      CompileSelector(index, phi, "x", "y", AxisRepr::kDense);
  if (!compiled.ok()) {
    state.SkipWithError(compiled.status().ToString().c_str());
    return;
  }
  // Serial cross-check: the compiled answer must equal the reference
  // answer at every origin we are about to time.
  for (NodeId origin : origins) {
    auto reference = SelectNodes(t, phi, origin);
    if (!reference.ok()) {
      state.SkipWithError(reference.status().ToString().c_str());
      return;
    }
    if (compiled->SelectFrom(origin) != *reference) {
      std::string err = "compiled/reference mismatch at origin " +
                        std::to_string(origin);
      state.SkipWithError(err.c_str());
      return;
    }
  }
  std::size_t selected = 0;
  for (auto _ : state) {
    selected = 0;
    for (NodeId origin : origins) {
      selected += compiled->SelectFrom(origin).size();
    }
  }
  state.counters["selected"] = static_cast<double>(selected);
}

// Cold-start variant: pays the axis-index build and the compile inside
// the loop.  This is the honest bound for a run that evaluates a
// selector exactly once; the interpreter compiles once per run and
// then amortizes, which BM_CompiledSelector models.
void BM_CompiledSelectorColdStart(benchmark::State& state,
                                  const char* selector) {
  Tree t = Input(static_cast<int>(state.range(0)));
  Formula phi = std::move(ParseFormula(selector)).value();
  std::vector<NodeId> origins = Origins(t);
  std::size_t selected = 0;
  for (auto _ : state) {
    AxisIndex index(t);
    Result<CompiledSelector> compiled =
        CompileSelector(index, phi, "x", "y", AxisRepr::kDense);
    if (!compiled.ok()) {
      state.SkipWithError(compiled.status().ToString().c_str());
      return;
    }
    selected = 0;
    for (NodeId origin : origins) {
      selected += compiled->SelectFrom(origin).size();
    }
  }
  state.counters["selected"] = static_cast<double>(selected);
}

BENCHMARK_CAPTURE(BM_ReferenceSelector, chain, kChain)
    ->Arg(100)->Arg(400)->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_CompiledSelector, chain, kChain)
    ->Arg(100)->Arg(400)->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_CompiledSelectorColdStart, chain, kChain)
    ->Arg(100)->Arg(400)->Unit(benchmark::kMicrosecond);

BENCHMARK_CAPTURE(BM_ReferenceSelector, nested, kNested)
    ->Arg(100)->Arg(400)->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_CompiledSelector, nested, kNested)
    ->Arg(100)->Arg(400)->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_CompiledSelectorColdStart, nested, kNested)
    ->Arg(100)->Arg(400)->Unit(benchmark::kMicrosecond);

BENCHMARK_CAPTURE(BM_ReferenceSelector, guarded_forall, kGuardedForall)
    ->Arg(100)->Arg(400)->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_CompiledSelector, guarded_forall, kGuardedForall)
    ->Arg(100)->Arg(400)->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_CompiledSelectorColdStart, guarded_forall,
                  kGuardedForall)
    ->Arg(100)->Arg(400)->Unit(benchmark::kMicrosecond);

// --- E18: the representation wall. -----------------------------------
//
// Dense-vs-interval cold starts over a size sweep, then the million-
// node arms only the interval representation can reach at all (one
// dense n=10^6 axis matrix is ~116 GiB).  Every arm runs under a
// memory-budgeted governor and reports the governor-accounted peak as
// `peak_mb`, so the O(n) vs O(n^2) space story is in the numbers, not
// just the wall clock.  Cross-checks happen before timing: the sweep
// compares the two representations against each other, the million-
// node arms compare against direct tree navigation (the reference
// evaluator would take hours at that size).

Tree ChainInput(int n) {
  std::mt19937 rng(131);
  return RandomString(rng, n, 2);
}

Tree XmlInput(int n) {
  std::mt19937 rng(131);
  return XmlLikeTree(rng, n);
}

// Ground truth for kChain by navigation: the great-grandchildren of u.
std::vector<NodeId> GreatGrandchildren(const Tree& t, NodeId u) {
  std::vector<NodeId> out;
  for (NodeId z = t.FirstChild(u); z != kNoNode; z = t.NextSibling(z)) {
    for (NodeId w = t.FirstChild(z); w != kNoNode; w = t.NextSibling(w)) {
      for (NodeId y = t.FirstChild(w); y != kNoNode; y = t.NextSibling(y)) {
        out.push_back(y);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Ground truth for kGuardedForall by navigation: children of any strict
// descendant z of u all of whose children are labeled `a`.
std::vector<NodeId> GuardedForallAnswer(const Tree& t, NodeId u) {
  const Symbol a = t.FindLabel("a");
  std::vector<NodeId> out;
  for (NodeId z = u + 1; z < t.SubtreeEnd(u); ++z) {
    bool all_a = true;
    for (NodeId w = t.FirstChild(z); w != kNoNode; w = t.NextSibling(w)) {
      if (t.label(w) != a) {
        all_a = false;
        break;
      }
    }
    if (!all_a) continue;
    for (NodeId y = t.FirstChild(z); y != kNoNode; y = t.NextSibling(y)) {
      out.push_back(y);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Cold start under a fixed representation: per-iteration governor +
// axis index + compile + the origin spread, with the interval and
// dense answers cross-checked against each other up front.
void BM_SelectorReprColdStart(benchmark::State& state, const char* selector,
                              AxisRepr repr) {
  Tree t = Input(static_cast<int>(state.range(0)));
  Formula phi = std::move(ParseFormula(selector)).value();
  std::vector<NodeId> origins = Origins(t);
  {
    AxisIndex index(t);
    Result<CompiledSelector> interval =
        CompileSelector(index, phi, "x", "y", AxisRepr::kInterval);
    Result<CompiledSelector> dense =
      CompileSelector(index, phi, "x", "y", AxisRepr::kDense);
    if (!interval.ok() || !dense.ok()) {
      state.SkipWithError("cross-check compile failed");
      return;
    }
    for (NodeId origin : origins) {
      if (interval->SelectFrom(origin) != dense->SelectFrom(origin)) {
        state.SkipWithError("interval/dense mismatch");
        return;
      }
    }
  }
  std::size_t selected = 0;
  std::int64_t peak = 0;
  for (auto _ : state) {
    ResourceGovernor governor;
    governor.set_memory_budget(std::int64_t{4} << 30);
    AxisIndex index(t, &governor);
    Result<CompiledSelector> compiled =
        CompileSelector(index, phi, "x", "y", repr);
    if (!compiled.ok()) {
      state.SkipWithError(compiled.status().ToString().c_str());
      return;
    }
    selected = 0;
    for (NodeId origin : origins) {
      selected += compiled->SelectFrom(origin).size();
    }
    peak = governor.accountant()->peak();
  }
  state.counters["selected"] = static_cast<double>(selected);
  state.counters["peak_mb"] =
      static_cast<double>(peak) / (1024.0 * 1024.0);
}

// The million-node arms: interval-only cold starts on three tree
// shapes, cross-checked against navigation ground truth.
void BM_MillionNodeSelector(benchmark::State& state, Tree (*make)(int),
                            const char* selector,
                            std::vector<NodeId> (*truth)(const Tree&,
                                                         NodeId)) {
  Tree t = make(static_cast<int>(state.range(0)));
  Formula phi = std::move(ParseFormula(selector)).value();
  std::vector<NodeId> origins = Origins(t);
  {
    AxisIndex index(t);
    Result<CompiledSelector> compiled =
        CompileSelector(index, phi, "x", "y", AxisRepr::kInterval);
    if (!compiled.ok()) {
      state.SkipWithError(compiled.status().ToString().c_str());
      return;
    }
    for (NodeId origin : origins) {
      if (compiled->SelectFrom(origin) != truth(t, origin)) {
        std::string err = "compiled/navigation mismatch at origin " +
                          std::to_string(origin);
        state.SkipWithError(err.c_str());
        return;
      }
    }
  }
  std::size_t selected = 0;
  std::int64_t peak = 0;
  for (auto _ : state) {
    ResourceGovernor governor;
    governor.set_memory_budget(std::int64_t{1} << 30);
    AxisIndex index(t, &governor);
    Result<CompiledSelector> compiled =
        CompileSelector(index, phi, "x", "y", AxisRepr::kInterval);
    if (!compiled.ok()) {
      state.SkipWithError(compiled.status().ToString().c_str());
      return;
    }
    selected = 0;
    for (NodeId origin : origins) {
      selected += compiled->SelectFrom(origin).size();
    }
    peak = governor.accountant()->peak();
  }
  state.counters["selected"] = static_cast<double>(selected);
  state.counters["peak_mb"] =
      static_cast<double>(peak) / (1024.0 * 1024.0);
}

// The dense sweep stops at 4000: one cold start at n=16000 already
// takes ~97 s (the compose is O(n^3/64)), and the 1000 -> 4000 step —
// 25 ms -> 1.6 s against the interval column's 1 ms -> 5 ms — shows
// the wall without burning CI minutes on it.
BENCHMARK_CAPTURE(BM_SelectorReprColdStart, chain_dense, kChain,
                  AxisRepr::kDense)
    ->Arg(1000)->Arg(4000)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SelectorReprColdStart, chain_interval, kChain,
                  AxisRepr::kInterval)
    ->Arg(1000)->Arg(4000)->Arg(16000)->Unit(benchmark::kMillisecond);
// Tracks the scaling of the And/Or merges: a 4x larger tree should
// cost about 4x, not 16x as it would if each row of E paid for the
// whole broadcast label row.
BENCHMARK_CAPTURE(BM_SelectorReprColdStart, example32_interval, kExample32,
                  AxisRepr::kInterval)
    ->Arg(4000)->Arg(16000)->Unit(benchmark::kMillisecond);

BENCHMARK_CAPTURE(BM_MillionNodeSelector, chain_tree, ChainInput, kChain,
                  GreatGrandchildren)
    ->Arg(1000000)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_MillionNodeSelector, random_tree, Input, kChain,
                  GreatGrandchildren)
    ->Arg(1000000)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_MillionNodeSelector, xml_tree, XmlInput, kChain,
                  GreatGrandchildren)
    ->Arg(1000000)->Unit(benchmark::kMillisecond);
// The guard-fold path scales past the dense wall too, but its span
// lists are much wider (every all-a-children family contributes), so
// the arm runs at 10^5 — already 25x beyond where a dense matrix fits
// — to keep the suite's wall clock sane (10^6 measured once: ~220 s).
BENCHMARK_CAPTURE(BM_MillionNodeSelector, random_guarded_forall, Input,
                  kGuardedForall, GuardedForallAnswer)
    ->Arg(100000)->Unit(benchmark::kMillisecond);

// --- E19: zero-parse startup. ----------------------------------------
//
// What does it cost to go from "files on disk" to "compiled selector
// answering queries"?  Two arms at n=10^5 over the same random
// attributed tree and the same quantifier-depth-2 selector:
//
//   parse_compile   read the .term text, parse it, build the axis
//                   index, compile the selector — the pre-snapshot
//                   cold start every invocation used to pay;
//   snapshot_cache  mmap the .twsnap (zero parsing, zero re-numbering;
//                   the compiled-axis postorder section is adopted
//                   directly) and deserialize the compiled selector
//                   from the persistent cache (zero compilation).
//
// Both arms run under a memory-budgeted governor and report the
// governor-accounted peak as `peak_mb`; both cross-check the selected
// set at the origin spread against the other arm before timing, so the
// speedup is on identical answers.  EXPERIMENTS.md E19 targets >= 10x.

constexpr int kE19Nodes = 100000;

struct E19Fixture {
  std::string term_path;
  std::string snap_path;
  std::string cache_dir;
  SelectorCacheKey key;
};

// Writes the .term, the .twsnap, and a warm selector-cache entry under
// the current (build) directory once; every E19 arm shares them.
const E19Fixture& E19Setup() {
  static const E19Fixture* fixture = [] {
    auto* f = new E19Fixture();
    f->term_path = "e19_input.term";
    f->snap_path = "e19_input.twsnap";
    f->cache_dir = ".";
    Tree t = Input(kE19Nodes);
    if (!WriteFileAtomic(f->term_path, PrintTerm(t)).ok() ||
        !WriteTreeSnapshot(t, f->snap_path).ok()) {
      return f;  // arms will SkipWithError on the missing files
    }
    Formula phi = std::move(ParseFormula(kChain)).value();
    AxisIndex index(t);
    Result<CompiledSelector> compiled =
        CompileSelector(index, phi, "x", "y", AxisRepr::kInterval);
    if (compiled.ok()) {
      f->key.formula_hash = StableFormulaHash(phi, "x", "y");
      f->key.tree_hash = TreeContentHash(t);
      f->key.repr = AxisRepr::kInterval;
      SelectorDiskCache cache(f->cache_dir);
      (void)cache.Store(f->key, *compiled);
    }
    return f;
  }();
  return *fixture;
}

void BM_ColdStartParseCompile(benchmark::State& state) {
  const E19Fixture& f = E19Setup();
  Formula phi = std::move(ParseFormula(kChain)).value();
  std::size_t selected = 0;
  std::int64_t peak = 0;
  for (auto _ : state) {
    ResourceGovernor governor;
    governor.set_memory_budget(std::int64_t{4} << 30);
    auto text = ReadFileBytes(f.term_path);
    if (!text.ok()) {
      state.SkipWithError(text.status().ToString().c_str());
      return;
    }
    auto tree = ParseTerm(*text);
    if (!tree.ok()) {
      state.SkipWithError(tree.status().ToString().c_str());
      return;
    }
    AxisIndex index(*tree, &governor);
    Result<CompiledSelector> compiled =
        CompileSelector(index, phi, "x", "y", AxisRepr::kInterval);
    if (!compiled.ok()) {
      state.SkipWithError(compiled.status().ToString().c_str());
      return;
    }
    selected = 0;
    for (NodeId origin : Origins(*tree)) {
      selected += compiled->SelectFrom(origin).size();
    }
    peak = governor.accountant()->peak();
  }
  state.counters["selected"] = static_cast<double>(selected);
  state.counters["peak_mb"] = static_cast<double>(peak) / (1024.0 * 1024.0);
}

void BM_ColdStartSnapshotCache(benchmark::State& state) {
  const E19Fixture& f = E19Setup();
  Formula phi = std::move(ParseFormula(kChain)).value();
  // Cross-check: the mmap + cache answer must match parse + compile.
  {
    auto text = ReadFileBytes(f.term_path);
    auto tree = text.ok() ? ParseTerm(*text) : Result<Tree>(text.status());
    auto snap = LoadTreeSnapshot(f.snap_path);
    if (!tree.ok() || !snap.ok()) {
      state.SkipWithError("E19 fixture missing");
      return;
    }
    AxisIndex fresh_index(*tree);
    AxisIndex snap_index(*snap);
    SelectorDiskCache cache(f.cache_dir);
    Result<CompiledSelector> fresh =
        CompileSelector(fresh_index, phi, "x", "y", AxisRepr::kInterval);
    Result<CompiledSelector> cached = cache.Load(f.key);
    if (!fresh.ok() || !cached.ok()) {
      state.SkipWithError("E19 cross-check compile/load failed");
      return;
    }
    for (NodeId origin : Origins(*tree)) {
      if (fresh->SelectFrom(origin) != cached->SelectFrom(origin)) {
        state.SkipWithError("snapshot+cache/fresh mismatch");
        return;
      }
    }
  }
  std::size_t selected = 0;
  std::int64_t peak = 0;
  for (auto _ : state) {
    ResourceGovernor governor;
    governor.set_memory_budget(std::int64_t{4} << 30);
    auto tree = LoadTreeSnapshot(f.snap_path, &governor);
    if (!tree.ok()) {
      state.SkipWithError(tree.status().ToString().c_str());
      return;
    }
    AxisIndex index(*tree, &governor);
    SelectorDiskCache cache(f.cache_dir);
    Result<CompiledSelector> compiled = CompileSelectorCached(
        index, phi, "x", "y", AxisRepr::kInterval, &cache, f.key.tree_hash);
    if (!compiled.ok()) {
      state.SkipWithError(compiled.status().ToString().c_str());
      return;
    }
    selected = 0;
    for (NodeId origin : Origins(*tree)) {
      selected += compiled->SelectFrom(origin).size();
    }
    peak = governor.accountant()->peak();
  }
  state.counters["selected"] = static_cast<double>(selected);
  state.counters["peak_mb"] = static_cast<double>(peak) / (1024.0 * 1024.0);
}

BENCHMARK(BM_ColdStartParseCompile)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ColdStartSnapshotCache)->Unit(benchmark::kMillisecond);

// --- E15: resource-governor overhead. --------------------------------
//
// The same interpreter run with and without a (roomy) governor: a
// far-future deadline polled at every transition plus a byte budget
// every tracked allocation is charged against.  The pair bounds the
// per-transition cost of the governance hooks; EXPERIMENTS.md targets
// <2% on the walker and the atp()-heavy workload.

void RunGovernedPair(benchmark::State& state, Program (*make)(),
                     Tree (*input)(), bool governed) {
  Program p = make();
  Tree t = input();
  bool accepted = false;
  for (auto _ : state) {
    RunOptions options;
    ResourceGovernor governor;
    if (governed) {
      governor.set_deadline_after(std::chrono::hours(1));
      governor.set_memory_budget(std::int64_t{1} << 32);
      options.governor = &governor;
    }
    Interpreter interpreter(p, options);
    auto r = interpreter.Run(t);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    accepted = r->accepted;
  }
  state.counters["accepted"] = accepted ? 1 : 0;
}

Program MakeParity() { return std::move(ParityProgram("a")).value(); }
Program MakeExample32() { return std::move(Example32Program("a")).value(); }
Tree WalkInput() { return FullTree(2, 8); }
Tree LookaheadInput() {
  std::mt19937 rng(11);
  return Example32Tree(rng, 120, /*uniform=*/true);
}

void BM_InterpreterWalkUngoverned(benchmark::State& state) {
  RunGovernedPair(state, MakeParity, WalkInput, false);
}
void BM_InterpreterWalkGoverned(benchmark::State& state) {
  RunGovernedPair(state, MakeParity, WalkInput, true);
}
void BM_InterpreterLookaheadUngoverned(benchmark::State& state) {
  RunGovernedPair(state, MakeExample32, LookaheadInput, false);
}
void BM_InterpreterLookaheadGoverned(benchmark::State& state) {
  RunGovernedPair(state, MakeExample32, LookaheadInput, true);
}

BENCHMARK(BM_InterpreterWalkUngoverned)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_InterpreterWalkGoverned)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_InterpreterLookaheadUngoverned)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_InterpreterLookaheadGoverned)->Unit(benchmark::kMicrosecond);

}  // namespace
