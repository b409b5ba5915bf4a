// Allocation regression test for the prepared step (docs/EVALUATOR.md,
// "Prepared step"): once a run has prepared what it needs, executing a
// step of Definition 3.1 should not touch the heap.  This binary
// replaces the global operator new with a counting one, runs Example
// 3.2 and bounds the heap allocations per executed step
// (steps - tabled_steps).
//
// "After prepare" is measured by subtraction: the run's set-up — the
// StepContext over the tree, tree statistics, one plan per distinct
// selector, the axis index and each compile — is repeated outside the
// interpreter under the same counter, and its count is taken off the
// run's.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "src/automata/interpreter.h"
#include "src/automata/library.h"
#include "src/automata/step.h"
#include "src/logic/compile.h"
#include "src/logic/planner.h"
#include "src/tree/axis_index.h"
#include "src/tree/delimited.h"
#include "src/tree/generate.h"
#include "src/tree/tree_stats.h"

namespace {

std::atomic<std::int64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace treewalk {
namespace {

std::int64_t Allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

/// Heap allocations of the set-up an interpreter run does before and
/// around its walk, repeated outside it.
std::int64_t PrepareAllocations(const PreparedProgram& prepared,
                                const Tree& tree) {
  const std::int64_t before = Allocations();
  StepContext step(prepared, tree);
  TreeStats scratch;
  const TreeStats* stats = GetOrComputeTreeStats(tree, scratch);
  std::optional<AxisIndex> index;
  std::vector<CompiledSelector> compiled;
  std::set<std::string> seen;
  for (const Rule& rule : prepared.program().rules()) {
    if (rule.action.kind != Action::Kind::kLookAhead) continue;
    if (!seen.insert(rule.action.selector.ToString()).second) continue;
    const SelectorPlan plan = PlanSelector(*stats, rule.action.selector);
    if (plan.strategy == PlanStrategy::kReference) continue;
    if (!index.has_value()) index.emplace(tree);
    auto selector = CompileSelector(*index, rule.action.selector, "x", "y");
    if (selector.ok()) compiled.push_back(std::move(selector).value());
  }
  return Allocations() - before;
}

void ExpectAllocationFreeSteps(bool uniform) {
  Result<Program> program = Example32Program();
  ASSERT_TRUE(program.ok()) << program.status();
  std::mt19937 rng(17);
  const Tree tree = Delimit(Example32Tree(rng, 4000, uniform)).tree;
  const Interpreter interpreter(*program);
  // One untimed run warms the process-wide state a first run touches
  // (metrics registry, interned strings), so neither side counts it.
  ASSERT_TRUE(interpreter.RunDelimited(tree).ok());

  const std::int64_t before = Allocations();
  Result<RunResult> run = interpreter.RunDelimited(tree);
  const std::int64_t run_allocations = Allocations() - before;
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(run->accepted, uniform);

  const PreparedProgram prepared(*program);
  const std::int64_t prepare = PrepareAllocations(prepared, tree);
  const std::int64_t executed = run->stats.steps - run->stats.tabled_steps;
  ASSERT_GT(executed, 0);
  const double per_step =
      static_cast<double>(run_allocations - prepare) /
      static_cast<double>(executed);
  std::printf(
      "%s: %lld steps, %lld executed; %lld allocations in the run, %lld in "
      "prepare; %.3f per executed step\n",
      uniform ? "uniform" : "poisoned",
      static_cast<long long>(run->stats.steps),
      static_cast<long long>(executed),
      static_cast<long long>(run_allocations),
      static_cast<long long>(prepare), per_step);
  EXPECT_LE(per_step, 2.0);
}

TEST(StepAllocations, Example32UniformAllocatesAtMostTwicePerExecutedStep) {
  ExpectAllocationFreeSteps(/*uniform=*/true);
}

TEST(StepAllocations, Example32PoisonedAllocatesAtMostTwicePerExecutedStep) {
  ExpectAllocationFreeSteps(/*uniform=*/false);
}

}  // namespace
}  // namespace treewalk
