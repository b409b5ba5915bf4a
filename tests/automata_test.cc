#include <gtest/gtest.h>

#include "src/automata/builder.h"
#include "src/automata/interpreter.h"
#include "src/protocol/protocol.h"
#include "src/simulation/config_graph.h"
#include "src/tree/delimited.h"
#include "src/tree/term_io.h"

namespace treewalk {
namespace {

// --- Builder validation. ---------------------------------------------

TEST(ProgramBuilder, MinimalAcceptAll) {
  ProgramBuilder b(ProgramClass::kTw);
  b.SetStates("q0", "qf");
  b.OnMove("#top", "q0", "true", "qf", Move::kStay);
  auto p = b.Build();
  ASSERT_TRUE(p.ok()) << p.status();
  EXPECT_EQ(p->program_class(), ProgramClass::kTw);
  EXPECT_EQ(p->rules().size(), 1u);
  EXPECT_EQ(p->States(), (std::vector<std::string>{"q0", "qf"}));
}

TEST(ProgramBuilder, RequiresStates) {
  ProgramBuilder b(ProgramClass::kTw);
  EXPECT_FALSE(b.Build().ok());
}

TEST(ProgramBuilder, TwForbidsRegistersUpdatesLookahead) {
  {
    ProgramBuilder b(ProgramClass::kTw);
    b.SetStates("q0", "qf");
    b.DeclareRegister("X", 1);
    EXPECT_EQ(b.Build().status().code(), StatusCode::kFailedPrecondition);
  }
  {
    ProgramBuilder b(ProgramClass::kTw);
    b.SetStates("q0", "qf");
    b.OnUpdate("#top", "q0", "true", "qf", "X", "u = 1", {"u"});
    EXPECT_FALSE(b.Build().ok());
  }
  {
    ProgramBuilder b(ProgramClass::kTw);
    b.SetStates("q0", "qf");
    b.OnLookAhead("#top", "q0", "true", "qf", "X", "desc(x, y)", "q1");
    EXPECT_FALSE(b.Build().ok());
  }
  {
    // Non-trivial guard needs a store.
    ProgramBuilder b(ProgramClass::kTw);
    b.SetStates("q0", "qf");
    b.OnMove("#top", "q0", "true & true", "qf", Move::kStay);
    EXPECT_FALSE(b.Build().ok());
  }
}

TEST(ProgramBuilder, TwLRequiresUnaryRegisters) {
  ProgramBuilder b(ProgramClass::kTwL);
  b.SetStates("q0", "qf");
  b.DeclareRegister("X", 2);
  EXPECT_EQ(b.Build().status().code(), StatusCode::kFailedPrecondition);
}

TEST(ProgramBuilder, TwLRejectsMultiValueInitialRegister) {
  ProgramBuilder b(ProgramClass::kTwL);
  b.SetStates("q0", "qf");
  b.DeclareRegister("X", 1);
  b.InitRegisterRelation("X", Relation(1, {{1}, {2}}));
  EXPECT_FALSE(b.Build().ok());
}

TEST(ProgramBuilder, TwRForbidsLookahead) {
  ProgramBuilder b(ProgramClass::kTwR);
  b.SetStates("q0", "qf");
  b.DeclareRegister("X", 1);
  b.OnLookAhead("#top", "q0", "true", "qf", "X", "desc(x, y)", "q1");
  EXPECT_FALSE(b.Build().ok());
}

TEST(ProgramBuilder, NoTransitionFromFinalState) {
  ProgramBuilder b(ProgramClass::kTw);
  b.SetStates("q0", "qf");
  b.OnMove("#top", "qf", "true", "q0", Move::kStay);
  EXPECT_FALSE(b.Build().ok());
}

TEST(ProgramBuilder, LookAheadTargetMustMatchFirstRegisterArity) {
  ProgramBuilder b(ProgramClass::kTwRL);
  b.SetStates("q0", "qf");
  b.DeclareRegister("X1", 1);
  b.DeclareRegister("P", 2);
  b.OnLookAhead("#top", "q0", "true", "qf", "P", "desc(x, y)", "q1");
  EXPECT_FALSE(b.Build().ok());
}

TEST(ProgramBuilder, SelectorMustBeExistential) {
  ProgramBuilder b(ProgramClass::kTwRL);
  b.SetStates("q0", "qf");
  b.DeclareRegister("X1", 1);
  b.OnLookAhead("#top", "q0", "true", "qf", "X1",
                "forall z (desc(x, y) | z = z)", "q1");
  EXPECT_FALSE(b.Build().ok());
}

TEST(ProgramBuilder, SelectorVariablesRestrictedToXY) {
  ProgramBuilder b(ProgramClass::kTwRL);
  b.SetStates("q0", "qf");
  b.DeclareRegister("X1", 1);
  b.OnLookAhead("#top", "q0", "true", "qf", "X1", "desc(x, w)", "q1");
  EXPECT_FALSE(b.Build().ok());
}

TEST(ProgramBuilder, UpdateArityAndVariablesChecked) {
  {
    ProgramBuilder b(ProgramClass::kTwR);
    b.SetStates("q0", "qf");
    b.DeclareRegister("X", 2);
    b.OnUpdate("#top", "q0", "true", "qf", "X", "u = 1", {"u"});
    EXPECT_FALSE(b.Build().ok());  // one var for arity 2
  }
  {
    ProgramBuilder b(ProgramClass::kTwR);
    b.SetStates("q0", "qf");
    b.DeclareRegister("X", 1);
    b.OnUpdate("#top", "q0", "true", "qf", "X", "u = 1 & w = 2", {"u"});
    EXPECT_FALSE(b.Build().ok());  // stray free variable w
  }
  {
    ProgramBuilder b(ProgramClass::kTwR);
    b.SetStates("q0", "qf");
    b.OnUpdate("#top", "q0", "true", "qf", "nope", "u = 1", {"u"});
    auto p = b.Build();
    EXPECT_FALSE(p.ok());
    EXPECT_NE(p.status().message().find("unknown register"),
              std::string::npos);
  }
}

TEST(ProgramBuilder, SyntacticDoubleRuleRejected) {
  ProgramBuilder b(ProgramClass::kTw);
  b.SetStates("q0", "qf");
  b.OnMove("#top", "q0", "true", "qf", Move::kStay);
  b.OnMove("#top", "q0", "true", "q0", Move::kDown);
  EXPECT_EQ(b.Build().status().code(), StatusCode::kNondeterminism);
}

TEST(ProgramBuilder, GuardParseErrorsAreReported) {
  ProgramBuilder b(ProgramClass::kTwR);
  b.SetStates("q0", "qf");
  b.DeclareRegister("X", 1);
  b.OnMove("#top", "q0", "X(", "qf", Move::kStay);
  auto p = b.Build();
  EXPECT_FALSE(p.ok());
  EXPECT_NE(p.status().message().find("rule #0"), std::string::npos);
}

TEST(Program, SizeMeasureCountsStatesStoreGuards) {
  ProgramBuilder b(ProgramClass::kTwR);
  b.SetStates("q0", "qf");
  b.DeclareRegister("X", 1);
  b.InitRegister("X", 3);
  b.OnMove("#top", "q0", "exists u X(u)", "qf", Move::kStay);
  auto p = b.Build();
  ASSERT_TRUE(p.ok());
  // states {q0, qf} = 2, initial store 1 tuple, guard size 2 (exists+atom).
  EXPECT_EQ(p->SizeMeasure(), 5u);
}

// --- Interpreter basics. ----------------------------------------------

Tree T(const char* term) {
  auto t = ParseTerm(term);
  EXPECT_TRUE(t.ok()) << term;
  return *t;
}

TEST(Interpreter, ImmediateAccept) {
  ProgramBuilder b(ProgramClass::kTw);
  b.SetStates("q0", "qf");
  b.OnMove("#top", "q0", "true", "qf", Move::kStay);
  auto p = b.Build();
  ASSERT_TRUE(p.ok());
  auto r = Accepts(*p, T("a(b)"));
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(*r);
}

TEST(Interpreter, StuckRejects) {
  ProgramBuilder b(ProgramClass::kTw);
  b.SetStates("q0", "qf");
  b.OnMove("#open", "q0", "true", "qf", Move::kStay);  // never at root
  auto p = b.Build();
  ASSERT_TRUE(p.ok());
  Interpreter interp(*p);
  auto r = interp.Run(T("a"));
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->accepted);
  EXPECT_EQ(r->reason, RejectReason::kStuck);
}

TEST(Interpreter, CycleRejects) {
  ProgramBuilder b(ProgramClass::kTw);
  b.SetStates("q0", "qf");
  b.OnMove("#top", "q0", "true", "q1", Move::kDown);
  b.OnMove("#open", "q1", "true", "q0", Move::kUp);
  auto p = b.Build();
  ASSERT_TRUE(p.ok());
  Interpreter interp(*p);
  auto r = interp.Run(T("a"));
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->accepted);
  EXPECT_EQ(r->reason, RejectReason::kCycle);
}

TEST(Interpreter, MoveOffTreeRejects) {
  ProgramBuilder b(ProgramClass::kTw);
  b.SetStates("q0", "qf");
  b.OnMove("#top", "q0", "true", "qf", Move::kUp);
  auto p = b.Build();
  ASSERT_TRUE(p.ok());
  Interpreter interp(*p);
  auto r = interp.Run(T("a"));
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->accepted);
  EXPECT_EQ(r->reason, RejectReason::kMoveOffTree);
}


TEST(Interpreter, CycleDetectionAblation) {
  // With detection off, the same looping program runs into the step
  // budget instead of rejecting with kCycle.
  ProgramBuilder b(ProgramClass::kTw);
  b.SetStates("q0", "qf");
  b.OnMove("#top", "q0", "true", "q1", Move::kDown);
  b.OnMove("#open", "q1", "true", "q0", Move::kUp);
  auto p = b.Build();
  ASSERT_TRUE(p.ok());
  RunOptions options;
  options.detect_cycles = false;
  options.max_steps = 200;
  Interpreter interp(*p, options);
  auto r = interp.Run(T("a"));
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  // Terminating runs are unaffected by the flag.
  ProgramBuilder ok(ProgramClass::kTw);
  ok.SetStates("q0", "qf");
  ok.OnMove("#top", "q0", "true", "qf", Move::kStay);
  auto p2 = ok.Build();
  ASSERT_TRUE(p2.ok());
  Interpreter interp2(*p2, options);
  auto r2 = interp2.Run(T("a"));
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2->accepted);
}

TEST(Interpreter, RuntimeNondeterminismDetected) {
  ProgramBuilder b(ProgramClass::kTwR);
  b.SetStates("q0", "qf");
  b.DeclareRegister("X", 1);
  b.InitRegister("X", 1);
  // Two guards that both hold: X contains 1 / X is nonempty.
  b.OnMove("#top", "q0", "exists u (X(u) & u = 1)", "qf", Move::kStay);
  b.OnMove("#top", "q0", "exists u X(u)", "qf", Move::kStay);
  auto p = b.Build();
  ASSERT_TRUE(p.ok());
  auto r = Accepts(*p, T("a"));
  EXPECT_EQ(r.status().code(), StatusCode::kNondeterminism);
  EXPECT_EQ(r.status().message(),
            "rules for (#top, q0) both apply: guards exists u (X(u) & "
            "u = 1) and exists u X(u)");
  // Every executor shares the one rule lookup, so the config graph and
  // the protocol report the same error, word for word.
  auto graph = EvaluateViaConfigGraph(*p, T("a"));
  EXPECT_EQ(graph.status(), r.status());
  auto protocol = RunSplitProtocol(*p, {1}, {2}, -1);
  EXPECT_EQ(protocol.status(), r.status());
}

TEST(Interpreter, ComplementaryGuardsAreDeterministic) {
  ProgramBuilder b(ProgramClass::kTwR);
  b.SetStates("q0", "qf");
  b.DeclareRegister("X", 1);
  b.OnMove("#top", "q0", "exists u X(u)", "q0", Move::kDown);
  b.OnMove("#top", "q0", "!(exists u X(u))", "qf", Move::kStay);
  auto p = b.Build();
  ASSERT_TRUE(p.ok());
  auto r = Accepts(*p, T("a"));
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(*r);
}

TEST(Interpreter, StepBudgetIsEnforced) {
  // Ping-pong between two states at different nodes with a growing
  // counter is impossible without registers, so use a cycle... which is
  // caught; instead exhaust the budget with a legitimate long walk on a
  // long string and a tiny budget.
  ProgramBuilder b(ProgramClass::kTw);
  b.SetStates("q0", "qf");
  b.OnMove("#top", "q0", "true", "q0", Move::kDown);
  b.OnMove("#open", "q0", "true", "q0", Move::kRight);
  b.OnMove("*", "q0", "true", "q0", Move::kDown);
  auto p = b.Build();
  ASSERT_TRUE(p.ok());
  RunOptions options;
  options.max_steps = 3;
  Interpreter interp(*p, options);
  Tree chain = StringTree({1, 2, 3, 4, 5, 6, 7, 8});
  auto r = interp.Run(chain);
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(Interpreter, UpdateWritesRegister) {
  ProgramBuilder b(ProgramClass::kTwR);
  b.SetStates("q0", "qf");
  b.DeclareRegister("X", 1);
  b.OnUpdate("#top", "q0", "true", "q1", "X", "u = 7", {"u"});
  b.OnMove("#top", "q1", "exists u (X(u) & u = 7)", "qf", Move::kStay);
  auto p = b.Build();
  ASSERT_TRUE(p.ok());
  auto r = Accepts(*p, T("a"));
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(*r);
}

TEST(Interpreter, WildcardShadowedByExactRule) {
  ProgramBuilder b(ProgramClass::kTw);
  b.SetStates("q0", "qf");
  // Exact rule at #top cycles down; wildcard would accept.  At #top the
  // exact rule must win.
  b.OnMove("#top", "q0", "true", "q1", Move::kDown);
  b.OnMove("*", "q0", "true", "qf", Move::kStay);
  b.OnMove("#open", "q1", "true", "q2", Move::kRight);
  b.OnMove("*", "q2", "true", "qf", Move::kStay);
  auto p = b.Build();
  ASSERT_TRUE(p.ok());
  Interpreter interp(*p);
  auto r = interp.Run(T("a(b)"));
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->accepted);
  // 3 transitions: down, right, stay-accept.
  EXPECT_EQ(r->stats.steps, 3);
  auto graph = EvaluateViaConfigGraph(*p, T("a(b)"));
  ASSERT_TRUE(graph.ok()) << graph.status();
  EXPECT_EQ(graph->accepted, r->accepted);
  EXPECT_EQ(graph->steps, r->stats.steps);
}

TEST(Interpreter, LookAheadUnionsSubcomputationResults) {
  // At #top: start a subcomputation at every leaf; each returns its 'a'
  // value; accept iff the union contains 3 distinct values.
  ProgramBuilder b(ProgramClass::kTwRL);
  b.SetStates("q0", "qf");
  b.DeclareRegister("X", 1);
  b.OnLookAhead("#top", "q0", "true", "q1", "X",
                "exists z (desc(x, y) & E(y, z) & lab(z, #leaf))", "leaf");
  b.OnUpdate("*", "leaf", "true", "ret", "X", "u = attr(a)", {"u"});
  b.OnMove("*", "ret", "true", "qf", Move::kStay);
  b.OnMove("#top", "q1",
           "exists u exists v exists w (X(u) & X(v) & X(w) & u != v & "
           "u != w & v != w)",
           "qf", Move::kStay);
  auto p = b.Build();
  ASSERT_TRUE(p.ok()) << p.status();
  auto yes = Accepts(*p, T("r[a=0](x[a=1], x[a=2], x[a=3])"));
  ASSERT_TRUE(yes.ok()) << yes.status();
  EXPECT_TRUE(*yes);
  auto no = Accepts(*p, T("r[a=0](x[a=1], x[a=2], x[a=2])"));
  ASSERT_TRUE(no.ok());
  EXPECT_FALSE(*no);
}

TEST(Interpreter, SubcomputationRejectionPropagates) {
  ProgramBuilder b(ProgramClass::kTwRL);
  b.SetStates("q0", "qf");
  b.DeclareRegister("X", 1);
  // Subcomputations at every node labeled 'bad' immediately get stuck
  // (no rule for state 'sub').
  b.OnLookAhead("#top", "q0", "true", "q1", "X", "desc(x, y) & lab(y, bad)",
                "sub");
  b.OnMove("#top", "q1", "true", "qf", Move::kStay);
  auto p = b.Build();
  ASSERT_TRUE(p.ok());
  Interpreter interp(*p);
  auto clean = interp.Run(T("a(b, c)"));
  ASSERT_TRUE(clean.ok());
  EXPECT_TRUE(clean->accepted);
  auto dirty = interp.Run(T("a(b, bad)"));
  ASSERT_TRUE(dirty.ok());
  EXPECT_FALSE(dirty->accepted);
  EXPECT_EQ(dirty->reason, RejectReason::kSubcomputationRejected);
}

TEST(Interpreter, TwLDisciplineEnforcedAtRuntime) {
  ProgramBuilder b(ProgramClass::kTwL);
  b.SetStates("q0", "qf");
  b.DeclareRegister("X", 1);
  // Selector picks every leaf: fine on a 1-leaf tree, a violation on 2+.
  b.OnLookAhead("#top", "q0", "true", "q1", "X",
                "exists z (desc(x, y) & E(y, z) & lab(z, #leaf))", "leaf");
  b.OnUpdate("*", "leaf", "true", "ret", "X", "u = attr(a)", {"u"});
  b.OnMove("*", "ret", "true", "qf", Move::kStay);
  b.OnMove("#top", "q1", "true", "qf", Move::kStay);
  auto p = b.Build();
  ASSERT_TRUE(p.ok()) << p.status();
  auto single = Accepts(*p, T("a[a=1]"));
  ASSERT_TRUE(single.ok()) << single.status();
  EXPECT_TRUE(*single);
  auto multi = Accepts(*p, T("a[a=1](b[a=2], c[a=3])"));
  EXPECT_EQ(multi.status().code(), StatusCode::kFailedPrecondition);
}

TEST(Interpreter, TraceRecordsTransitions) {
  ProgramBuilder b(ProgramClass::kTw);
  b.SetStates("q0", "qf");
  b.OnMove("#top", "q0", "true", "q1", Move::kDown);
  b.OnMove("#open", "q1", "true", "qf", Move::kStay);
  auto p = b.Build();
  ASSERT_TRUE(p.ok());
  RunOptions options;
  options.record_trace = true;
  Interpreter interp(*p, options);
  auto r = interp.Run(T("a"));
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->trace.size(), 2u);
  EXPECT_NE(r->trace[0].find("#top"), std::string::npos);
  EXPECT_NE(r->trace[0].find("move down"), std::string::npos);
}

TEST(Interpreter, EmptyTreeIsAnError) {
  ProgramBuilder b(ProgramClass::kTw);
  b.SetStates("q0", "qf");
  b.OnMove("#top", "q0", "true", "qf", Move::kStay);
  auto p = b.Build();
  ASSERT_TRUE(p.ok());
  Interpreter interp(*p);
  EXPECT_FALSE(interp.Run(Tree()).ok());
}

TEST(Interpreter, StatsAreTracked) {
  ProgramBuilder b(ProgramClass::kTwRL);
  b.SetStates("q0", "qf");
  b.DeclareRegister("X", 1);
  b.OnLookAhead("#top", "q0", "true", "q1", "X", "desc(x, y) & leaf(y)",
                "sub");
  b.OnUpdate("*", "sub", "true", "ret", "X", "u = 1", {"u"});
  b.OnMove("*", "ret", "true", "qf", Move::kStay);
  b.OnMove("#top", "q1", "true", "qf", Move::kStay);
  auto p = b.Build();
  ASSERT_TRUE(p.ok());
  Interpreter interp(*p);
  auto r = interp.Run(T("a(b)"));
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->accepted);
  // One atp() firing starts one subcomputation per selected node: every
  // leaf of delim(a(b)).
  const Tree delimited = Delimit(T("a(b)")).tree;
  std::int64_t leaves = 0;
  for (NodeId u = 0; u < static_cast<NodeId>(delimited.size()); ++u) {
    if (delimited.IsLeaf(u)) ++leaves;
  }
  EXPECT_EQ(r->stats.atp_calls, 1);
  EXPECT_EQ(r->stats.subcomputations, leaves);
  EXPECT_GE(r->stats.steps, 3);
  EXPECT_EQ(r->stats.max_depth_reached, 1);
  EXPECT_GE(r->stats.max_store_tuples, 1u);
}

}  // namespace
}  // namespace treewalk
