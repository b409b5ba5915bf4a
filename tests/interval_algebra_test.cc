// Slow twin for the interval set algebra (src/tree/interval_matrix.h):
// every IntervalMatrix operation the compiled evaluator uses is checked
// against a dense NodeMatrix (tests/dense_model.h) computed by plain
// loops over the operands' bits.
//
// Operands are seeded and random, and they mix every row shape the
// representation has:
//   - multi-span rows from IntervalMatrixBuilder, with adjacent spans
//     the builder coalesces;
//   - clipped rows from AliasRowWindow and ReclipRow;
//   - complemented rows from CommitRow(u, true) and from Not;
//   - long ColBroadcast rows (one shared pool of many spans),
//     RowBroadcast rows, and empty and full rows;
//   - results of earlier And/Or/Transposed, whose rows alias pools
//     imported from their operands.
//
// Each operand carries a model: the NodeMatrix it should densify to,
// built bit by bit from the same random choices.  The checks cover
// And/Or in all four complement cases, Transposed, and Compose with
// and without a guard.  Randomness uses raw mt19937 draws (no
// distributions), so the streams, and the recorded charge below, are
// the same under every standard library.
#include <algorithm>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/governor.h"
#include "src/common/result.h"
#include "src/tree/axis_index.h"
#include "src/tree/interval_matrix.h"
#include "src/tree/tree.h"
#include "tests/dense_model.h"

namespace treewalk {
namespace {

using Bits = std::vector<bool>;

struct Operand {
  IntervalMatrix m;
  NodeMatrix model;
};

// A draw in [0, bound) straight from the engine's output.
NodeId Draw(std::mt19937& rng, std::size_t bound) {
  return static_cast<NodeId>(rng() % bound);
}

IntervalMatrix Value(Result<IntervalMatrix> r) {
  EXPECT_TRUE(r.ok()) << r.status();
  return std::move(r).value();
}

Bits ModelRow(const NodeMatrix& model, NodeId u) {
  Bits bits(model.size());
  for (std::size_t v = 0; v < bits.size(); ++v) {
    bits[v] = model.test(u, static_cast<NodeId>(v));
  }
  return bits;
}

// Overwrites row u of `model`.
void AssignRow(NodeMatrix& model, NodeId u, const Bits& bits) {
  for (std::size_t v = 0; v < bits.size(); ++v) {
    model.set(u, static_cast<NodeId>(v), bits[v]);
  }
}

Bits SpanBits(NodeId n, const std::vector<NodeSpan>& spans,
              bool complemented) {
  Bits bits(static_cast<std::size_t>(n), complemented);
  for (const NodeSpan& s : spans) {
    for (NodeId v = s.begin; v < s.end; ++v) {
      bits[static_cast<std::size_t>(v)] = !complemented;
    }
  }
  return bits;
}

Bits Window(Bits bits, NodeId begin, NodeId end) {
  for (std::size_t v = 0; v < bits.size(); ++v) {
    if (static_cast<NodeId>(v) < begin || static_cast<NodeId>(v) >= end) {
      bits[v] = false;
    }
  }
  return bits;
}

// Sorted spans in [0, n) with short random gaps and lengths; a zero
// gap makes two spans adjacent, which the builder must coalesce.
std::vector<NodeSpan> RandomSpans(std::mt19937& rng, NodeId n,
                                  std::size_t max_spans) {
  std::vector<NodeSpan> spans;
  NodeId cur = Draw(rng, 4);
  const std::size_t want = Draw(rng, max_spans + 1);
  while (spans.size() < want && cur < n) {
    NodeId end = std::min<NodeId>(n, cur + 1 + Draw(rng, 3));
    spans.push_back({cur, end});
    cur = end + Draw(rng, 4);
  }
  return spans;
}

// Every other node: the longest normalized span list over n nodes.
std::vector<NodeSpan> AlternatingSpans(NodeId n, NodeId phase) {
  std::vector<NodeSpan> spans;
  for (NodeId v = phase; v < n; v += 2) spans.push_back({v, v + 1});
  return spans;
}

std::pair<NodeId, NodeId> RandomWindow(std::mt19937& rng, NodeId n) {
  NodeId b = Draw(rng, n);
  NodeId e = b + 1 + Draw(rng, n - b);
  return {b, e};
}

NodeSet RandomSet(std::mt19937& rng, NodeId n) {
  NodeSet s(static_cast<std::size_t>(n));
  switch (Draw(rng, 4)) {
    case 0:  // long: every other node
      for (NodeId v = Draw(rng, 2); v < n; v += 2) s.set(v);
      break;
    case 1:  // empty
      break;
    case 2:  // full
      s = NodeSet::Full(static_cast<std::size_t>(n));
      break;
    default:
      for (NodeId v = 0; v < n; ++v) {
        if (Draw(rng, 3) == 0) s.set(v);
      }
      break;
  }
  return s;
}

// Builder operand: each row is committed spans (maybe complemented),
// empty, full, a verbatim or windowed alias of an earlier positive
// row, or a long alternating row; some positive rows are reclipped
// right after their commit.
Operand BuilderOperand(std::mt19937& rng, NodeId n) {
  IntervalMatrixBuilder builder(static_cast<std::size_t>(n));
  Operand op{IntervalMatrix(), NodeMatrix(static_cast<std::size_t>(n))};
  std::vector<NodeId> positive;  // committed, uncomplemented rows
  const auto commit = [&](NodeId u, const std::vector<NodeSpan>& spans,
                          bool complemented) {
    for (const NodeSpan& s : spans) {
      EXPECT_TRUE(builder.AddSpan(s.begin, s.end).ok());
    }
    EXPECT_TRUE(builder.CommitRow(u, complemented).ok());
    AssignRow(op.model, u, SpanBits(n, spans, complemented));
    if (!complemented) positive.push_back(u);
  };
  for (NodeId u = 0; u < n; ++u) {
    NodeId kind = Draw(rng, 10);
    if ((kind == 6 || kind == 7) && positive.empty()) kind = 0;
    switch (kind) {
      case 0: case 1: case 2: case 3:  // spans, one in four complemented
        commit(u, RandomSpans(rng, n, 6), kind == 3);
        if (kind != 3 && Draw(rng, 3) == 0) {
          auto [b, e] = RandomWindow(rng, n);
          EXPECT_TRUE(builder.ReclipRow(u, b, e).ok());
          AssignRow(op.model, u, Window(ModelRow(op.model, u), b, e));
        }
        break;
      case 4:  // empty
        commit(u, {}, false);
        break;
      case 5:  // full
        commit(u, {}, true);
        break;
      case 6: {  // verbatim alias
        NodeId v = positive[Draw(rng, positive.size())];
        EXPECT_TRUE(builder.AliasRow(u, v).ok());
        AssignRow(op.model, u, ModelRow(op.model, v));
        positive.push_back(u);
        break;
      }
      case 7: {  // windowed alias
        NodeId v = positive[Draw(rng, positive.size())];
        auto [b, e] = RandomWindow(rng, n);
        EXPECT_TRUE(builder.AliasRowWindow(u, v, b, e).ok());
        AssignRow(op.model, u, Window(ModelRow(op.model, v), b, e));
        positive.push_back(u);
        break;
      }
      default:  // long row
        commit(u, AlternatingSpans(n, Draw(rng, 2)), false);
        break;
    }
  }
  op.m = Value(std::move(builder).Finish());
  return op;
}

// interval_matrix.h promises normalized rows: sorted, non-empty,
// disjoint and non-adjacent spans.  ToDense cannot see a stray empty
// or overlapping span, so the results are checked for this too.
bool Normalized(const IntervalMatrix& m) {
  for (NodeId u = 0; u < static_cast<NodeId>(m.size()); ++u) {
    const std::vector<NodeSpan> spans = m.RowSpans(u);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].begin >= spans[i].end) return false;
      if (i > 0 && spans[i].begin <= spans[i - 1].end) return false;
    }
  }
  return true;
}

NodeMatrix DenseCombine(const NodeMatrix& a, const NodeMatrix& b,
                        bool conjunction) {
  const NodeId n = static_cast<NodeId>(a.size());
  NodeMatrix out(a.size());
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      bool x = a.test(u, v), y = b.test(u, v);
      if (conjunction ? (x && y) : (x || y)) out.set(u, v);
    }
  }
  return out;
}

NodeMatrix DenseNot(const NodeMatrix& a) {
  const NodeId n = static_cast<NodeId>(a.size());
  NodeMatrix out(a.size());
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      if (!a.test(u, v)) out.set(u, v);
    }
  }
  return out;
}

NodeMatrix DenseTranspose(const NodeMatrix& a) {
  const NodeId n = static_cast<NodeId>(a.size());
  NodeMatrix out(a.size());
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      if (a.test(u, v)) out.set(v, u);
    }
  }
  return out;
}

// R[u][v] = exists w: P[u][w] & Q[v][w] & (guard == nullptr || guard[w]).
NodeMatrix DenseCompose(const NodeMatrix& p, const NodeMatrix& q,
                        const NodeSet* guard) {
  const NodeId n = static_cast<NodeId>(p.size());
  NodeMatrix out(p.size());
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      for (NodeId w = 0; w < n; ++w) {
        if (p.test(u, w) && q.test(v, w) &&
            (guard == nullptr || guard->test(w))) {
          out.set(u, v);
          break;
        }
      }
    }
  }
  return out;
}

// A random operand: builder rows, broadcasts, or (while depth lasts)
// Not/And/Or/Transposed of smaller random operands.
Operand RandomOperand(std::mt19937& rng, NodeId n, int depth) {
  const NodeId kind = Draw(rng, depth > 0 ? 7 : 3);
  switch (kind) {
    case 0:
      return BuilderOperand(rng, n);
    case 1: {
      NodeSet s = RandomSet(rng, n);
      Operand op{Value(IntervalMatrix::ColBroadcast(s, nullptr)),
                 NodeMatrix(static_cast<std::size_t>(n))};
      for (NodeId u = 0; u < n; ++u) {
        for (NodeId v = 0; v < n; ++v) {
          if (s.test(v)) op.model.set(u, v);
        }
      }
      return op;
    }
    case 2: {
      NodeSet s = RandomSet(rng, n);
      Operand op{IntervalMatrix::RowBroadcast(s),
                 NodeMatrix(static_cast<std::size_t>(n))};
      for (NodeId u = 0; u < n; ++u) {
        for (NodeId v = 0; v < n; ++v) {
          if (s.test(u)) op.model.set(u, v);
        }
      }
      return op;
    }
    case 3: {
      Operand a = RandomOperand(rng, n, depth - 1);
      return {IntervalMatrix::Not(a.m), DenseNot(a.model)};
    }
    case 4: {
      Operand a = RandomOperand(rng, n, depth - 1);
      return {Value(IntervalMatrix::Transposed(a.m, nullptr)),
              DenseTranspose(a.model)};
    }
    default: {
      const bool conjunction = kind == 5;
      Operand a = RandomOperand(rng, n, depth - 1);
      Operand b = RandomOperand(rng, n, depth - 1);
      IntervalMatrix m =
          Value(conjunction ? IntervalMatrix::And(a.m, b.m, nullptr)
                            : IntervalMatrix::Or(a.m, b.m, nullptr));
      return {std::move(m), DenseCombine(a.model, b.model, conjunction)};
    }
  }
}

// And/Or of (a or Not a) with (b or Not b), plus both operands
// against themselves and their own complements.
void CheckCombine(const Operand& a, const Operand& b) {
  const Operand na{IntervalMatrix::Not(a.m), DenseNot(a.model)};
  const Operand nb{IntervalMatrix::Not(b.m), DenseNot(b.model)};
  const std::vector<std::pair<const Operand*, const Operand*>> pairs = {
      {&a, &b}, {&na, &b}, {&a, &nb}, {&na, &nb},
      {&a, &a}, {&a, &na}, {&b, &nb}};
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const Operand& x = *pairs[i].first;
    const Operand& y = *pairs[i].second;
    const IntervalMatrix conj = Value(IntervalMatrix::And(x.m, y.m, nullptr));
    const IntervalMatrix disj = Value(IntervalMatrix::Or(x.m, y.m, nullptr));
    EXPECT_EQ(ToDense(conj), DenseCombine(x.model, y.model, true))
        << "And, pair " << i;
    EXPECT_EQ(ToDense(disj), DenseCombine(x.model, y.model, false))
        << "Or, pair " << i;
    EXPECT_TRUE(Normalized(conj)) << "And, pair " << i;
    EXPECT_TRUE(Normalized(disj)) << "Or, pair " << i;
  }
}

TEST(IntervalAlgebra, OperandsDensifyToTheirModels) {
  std::mt19937 rng(1);
  for (NodeId n : {1, 2, 7, 33, 130}) {
    for (int round = 0; round < 12; ++round) {
      Operand op = RandomOperand(rng, n, 2);
      EXPECT_EQ(ToDense(op.m), op.model) << "n=" << n << " round " << round;
    }
  }
}

TEST(IntervalAlgebra, AndOrMatchDenseLoopsInAllComplementCases) {
  std::mt19937 rng(2);
  for (NodeId n : {1, 2, 7, 33, 130, 400}) {
    const int rounds = n >= 130 ? 6 : 20;
    for (int round = 0; round < rounds; ++round) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " round " << round);
      CheckCombine(RandomOperand(rng, n, 2), RandomOperand(rng, n, 2));
      // Builder against builder: clipped multi-span rows on both sides,
      // which nested random operands rarely pair up.
      CheckCombine(BuilderOperand(rng, n), BuilderOperand(rng, n));
    }
  }
}

TEST(IntervalAlgebra, LongBroadcastAgainstBuilderRows) {
  // The Example 3.2 shape: every row of one operand aliases one long
  // span list, the other has a few spans per row.
  std::mt19937 rng(3);
  for (NodeId n : {64, 513, 1000}) {
    SCOPED_TRACE(testing::Message() << "n=" << n);
    NodeSet s(static_cast<std::size_t>(n));
    for (NodeId v = 1; v < n; v += 2) s.set(v);
    Operand broadcast{Value(IntervalMatrix::ColBroadcast(s, nullptr)),
                      NodeMatrix(static_cast<std::size_t>(n))};
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v = 1; v < n; v += 2) broadcast.model.set(u, v);
    }
    CheckCombine(BuilderOperand(rng, n), broadcast);
    CheckCombine(broadcast, BuilderOperand(rng, n));
  }
}

TEST(IntervalAlgebra, TransposedMatchesDenseLoops) {
  std::mt19937 rng(4);
  for (NodeId n : {1, 2, 7, 33, 130}) {
    for (int round = 0; round < 12; ++round) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " round " << round);
      Operand a = RandomOperand(rng, n, 2);
      const IntervalMatrix t = Value(IntervalMatrix::Transposed(a.m, nullptr));
      EXPECT_EQ(ToDense(t), DenseTranspose(a.model));
      EXPECT_TRUE(Normalized(t));
    }
  }
}

TEST(IntervalAlgebra, ComposeMatchesDenseLoopsWithAndWithoutGuard) {
  std::mt19937 rng(5);
  for (NodeId n : {1, 2, 7, 33, 90}) {
    for (int round = 0; round < 8; ++round) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " round " << round);
      Operand p = RandomOperand(rng, n, 1);
      Operand q = RandomOperand(rng, n, 1);
      NodeSet guard = RandomSet(rng, n);
      const IntervalMatrix plain =
          Value(IntervalMatrix::Compose(p.m, q.m, nullptr, nullptr));
      const IntervalMatrix guarded =
          Value(IntervalMatrix::Compose(p.m, q.m, &guard, nullptr));
      EXPECT_EQ(ToDense(plain), DenseCompose(p.model, q.model, nullptr));
      EXPECT_EQ(ToDense(guarded), DenseCompose(p.model, q.model, &guard));
      EXPECT_TRUE(Normalized(plain));
      EXPECT_TRUE(Normalized(guarded));
    }
  }
}

TEST(IntervalAlgebra, GovernedAndOrChargeTheRecordedBytes) {
  // The governor charge of And/Or is part of the contract: row
  // descriptors up front, then the owned span pool in 32768-span
  // chunks.  Both figures were recorded when each merge still copied
  // its operand rows; any merge must charge the same bytes and store
  // the same spans.
  std::mt19937 rng(6);
  ResourceGovernor governor;
  governor.set_memory_budget(std::int64_t{1} << 30);
  std::int64_t charged = 0;
  std::size_t stored = 0;
  for (NodeId n : {33, 130, 700}) {
    for (int round = 0; round < 4; ++round) {
      Operand a = RandomOperand(rng, n, 2);
      Operand b = RandomOperand(rng, n, 2);
      for (bool conjunction : {true, false}) {
        for (bool negate : {false, true}) {
          const IntervalMatrix lhs = negate ? IntervalMatrix::Not(a.m) : a.m;
          ScopedMemoryCharge charge(&governor, MemoryCategory::kCompiledOps);
          const std::int64_t before = governor.accountant()->used();
          IntervalMatrix m = Value(
              conjunction ? IntervalMatrix::And(lhs, b.m, &charge)
                          : IntervalMatrix::Or(lhs, b.m, &charge));
          charged += governor.accountant()->used() - before;
          stored += m.StoredSpans();
          const NodeMatrix lhs_model = negate ? DenseNot(a.model) : a.model;
          EXPECT_EQ(ToDense(m), DenseCombine(lhs_model, b.model, conjunction));
        }
      }
    }
  }
  EXPECT_EQ(charged, 5574272);
  EXPECT_EQ(stored, 919371u);
}

}  // namespace
}  // namespace treewalk
