#include "src/tree/interval_matrix.h"

#include <algorithm>
#include <array>
#include <map>
#include <unordered_map>
#include <utility>

namespace treewalk {
namespace {

using Pool = std::vector<NodeSpan>;
using PoolList = std::vector<std::shared_ptr<const Pool>>;

/// Spans per charge step: 32768 spans = 256KiB.  Coarse enough that a
/// million-span pool makes ~32 governor calls, fine enough that a
/// budget trip happens within 256KiB of the ceiling.
constexpr std::size_t kSpanChargeChunk = 32768;

/// Clipped, read-only window onto a row's stored slice.  Only the
/// first and last visible spans can be cut by the clip window, so
/// ViewAt's two clamps are exact for every index.
struct SliceView {
  const NodeSpan* spans = nullptr;
  std::size_t count = 0;
  NodeId cb = 0;
  NodeId ce = 0;
};

NodeSpan ViewAt(const SliceView& v, std::size_t i) {
  NodeSpan s = v.spans[i];
  if (s.begin < v.cb) s.begin = v.cb;
  if (s.end > v.ce) s.end = v.ce;
  return s;
}

SliceView MakeView(const PoolList& pools, const IntervalMatrix::Row& r) {
  SliceView v;
  if (r.count == 0 || r.clip_begin >= r.clip_end) return v;
  const NodeSpan* base = pools[r.pool]->data() + r.offset;
  const NodeSpan* lo = std::partition_point(
      base, base + r.count,
      [&](const NodeSpan& s) { return s.end <= r.clip_begin; });
  const NodeSpan* hi = std::partition_point(
      lo, base + r.count,
      [&](const NodeSpan& s) { return s.begin < r.clip_end; });
  v.spans = lo;
  v.count = static_cast<std::size_t>(hi - lo);
  v.cb = r.clip_begin;
  v.ce = r.clip_end;
  return v;
}

void AppendView(const SliceView& v, std::vector<NodeSpan>& out) {
  for (std::size_t i = 0; i < v.count; ++i) out.push_back(ViewAt(v, i));
}

/// First index k >= from whose visible span ends after x; a binary
/// search, valid because clamping keeps ends sorted.
std::size_t SeekEndAfter(const SliceView& v, std::size_t from, NodeId x) {
  return static_cast<std::size_t>(
      std::partition_point(
          v.spans + from, v.spans + v.count,
          [&](const NodeSpan& s) { return std::min(s.end, v.ce) <= x; }) -
      v.spans);
}

/// First index k >= from whose visible span begins after x.
std::size_t SeekBeginAfter(const SliceView& v, std::size_t from, NodeId x) {
  return static_cast<std::size_t>(
      std::partition_point(
          v.spans + from, v.spans + v.count,
          [&](const NodeSpan& s) { return std::max(s.begin, v.cb) <= x; }) -
      v.spans);
}

/// out = [0, n) \ a, for normalized `a`.
void ComplementInto(const std::vector<NodeSpan>& a, NodeId n,
                    std::vector<NodeSpan>& out) {
  NodeId cur = 0;
  for (const NodeSpan& s : a) {
    if (cur < s.begin) out.push_back({cur, s.begin});
    cur = s.end;
  }
  if (cur < n) out.push_back({cur, n});
}

// The three merges below read both operands in place through their
// clip windows and append a normalized result to `out`.  Each walks
// the view with fewer spans and reaches into the other by rolling
// binary search, so a row costs O(min log max + |out|) whatever the
// longer view holds.

/// out = a ∩ b.
void IntersectViews(const SliceView& a, const SliceView& b,
                    std::vector<NodeSpan>& out) {
  const SliceView& small = a.count <= b.count ? a : b;
  const SliceView& big = a.count <= b.count ? b : a;
  std::size_t j = 0;
  for (std::size_t i = 0; i < small.count; ++i) {
    const NodeSpan s = ViewAt(small, i);
    j = SeekEndAfter(big, j, s.begin);
    for (std::size_t k = j; k < big.count; ++k) {
      const NodeSpan t = ViewAt(big, k);
      if (t.begin >= s.end) break;
      out.push_back({std::max(s.begin, t.begin), std::min(s.end, t.end)});
    }
  }
}

/// out = a \ b.  With fewer spans in `a`, each span of `a` is cut at
/// the holes of `b` inside it; otherwise each hole of `b` copies the
/// spans of `a` before it, cuts the one it straddles, and skips the
/// ones it swallows.
void SubtractViews(const SliceView& a, const SliceView& b,
                   std::vector<NodeSpan>& out) {
  if (a.count <= b.count) {
    std::size_t j = 0;
    for (std::size_t i = 0; i < a.count; ++i) {
      const NodeSpan s = ViewAt(a, i);
      j = SeekEndAfter(b, j, s.begin);
      NodeId cur = s.begin;
      for (std::size_t k = j; k < b.count && cur < s.end; ++k) {
        const NodeSpan hole = ViewAt(b, k);
        if (hole.begin >= s.end) break;
        if (hole.begin > cur) out.push_back({cur, hole.begin});
        cur = hole.end;
      }
      if (cur < s.end) out.push_back({cur, s.end});
    }
    return;
  }
  std::size_t i = 0;
  NodeId floor = 0;  // end of the last hole: nothing of `a` shows below it
  for (std::size_t k = 0; k < b.count; ++k) {
    const NodeSpan hole = ViewAt(b, k);
    for (; i < a.count; ++i) {
      const NodeSpan s = ViewAt(a, i);
      const NodeId begin = std::max(s.begin, floor);
      if (begin >= hole.begin) break;
      out.push_back({begin, std::min(s.end, hole.begin)});
      if (s.end > hole.begin) break;  // straddles the hole; its tail stays
    }
    i = SeekEndAfter(a, i, hole.end);
    floor = hole.end;
  }
  for (; i < a.count; ++i) {
    const NodeSpan s = ViewAt(a, i);
    out.push_back({std::max(s.begin, floor), s.end});
  }
}

/// out = a ∪ b, coalescing overlap and adjacency.  Spans of the longer
/// view that touch a span of the shorter one are skipped by binary
/// search, since only the first and last of them shape the union.
void UnionViews(const SliceView& a, const SliceView& b,
                std::vector<NodeSpan>& out) {
  const SliceView& small = a.count <= b.count ? a : b;
  const SliceView& big = a.count <= b.count ? b : a;
  const auto append = [&out](const NodeSpan& s) {
    if (!out.empty() && s.begin <= out.back().end) {
      out.back().end = std::max(out.back().end, s.end);
    } else {
      out.push_back(s);
    }
  };
  std::size_t j = 0;
  for (std::size_t i = 0; i < small.count; ++i) {
    NodeSpan s = ViewAt(small, i);
    for (; j < big.count; ++j) {
      const NodeSpan t = ViewAt(big, j);
      if (t.end >= s.begin) break;
      append(t);
    }
    const std::size_t k = SeekBeginAfter(big, j, s.end);
    if (k > j) {
      s.begin = std::min(s.begin, ViewAt(big, j).begin);
      s.end = std::max(s.end, ViewAt(big, k - 1).end);
      j = k;
    }
    append(s);
  }
  for (; j < big.count; ++j) append(ViewAt(big, j));
}

std::array<std::uint64_t, 3> PackRow(const IntervalMatrix::Row& r) {
  return {(std::uint64_t{r.pool} << 32) | r.offset,
          (std::uint64_t{r.count} << 32) |
              static_cast<std::uint32_t>(r.clip_begin),
          (static_cast<std::uint64_t>(static_cast<std::uint32_t>(r.clip_end))
           << 32) |
              (r.complemented ? 1u : 0u)};
}

/// Hashed memo from packed row descriptors to the result row they
/// produced.
struct PackedRowsHash {
  template <std::size_t N>
  std::size_t operator()(const std::array<std::uint64_t, N>& words) const {
    std::uint64_t h = 0;
    for (std::uint64_t w : words) {
      h = (h ^ w) * 0x9e3779b97f4a7c15ULL;
      h ^= h >> 32;
    }
    return static_cast<std::size_t>(h);
  }
};
template <std::size_t N>
using RowMemo = std::unordered_map<std::array<std::uint64_t, N>,
                                   IntervalMatrix::Row, PackedRowsHash>;

/// Chunk-charged append-only span pool: Reserve() charges rounded-up
/// capacity *before* the vector grows, so a budget trip happens before
/// the allocation, not after.
class ChargedSpanPool {
 public:
  explicit ChargedSpanPool(ScopedMemoryCharge* charge) : charge_(charge) {}

  Status Reserve(std::size_t additional) {
    std::size_t need = spans.size() + additional;
    if (need <= charged_) return Status::Ok();
    std::size_t target =
        ((need + kSpanChargeChunk - 1) / kSpanChargeChunk) * kSpanChargeChunk;
    if (charge_ != nullptr) {
      TREEWALK_RETURN_IF_ERROR(charge_->Add(
          static_cast<std::int64_t>((target - charged_) * sizeof(NodeSpan))));
    }
    charged_ = target;
    return Status::Ok();
  }

  std::vector<NodeSpan> spans;

 private:
  ScopedMemoryCharge* charge_;
  std::size_t charged_ = 0;
};

/// Deduplicating importer of foreign pools into a result matrix, so an
/// aliased row costs one shared_ptr no matter how many rows alias it.
class PoolImporter {
 public:
  explicit PoolImporter(PoolList& pools) : pools_(pools) {}

  std::uint32_t Import(const std::shared_ptr<const Pool>& pool) {
    auto [it, fresh] = index_.try_emplace(pool.get(), 0);
    if (fresh) {
      pools_.push_back(pool);
      it->second = static_cast<std::uint32_t>(pools_.size() - 1);
    }
    return it->second;
  }

 private:
  PoolList& pools_;
  std::map<const Pool*, std::uint32_t> index_;
};

/// Merged-run active set for the transpose sweep: insert/erase one
/// point, keeping runs sorted, disjoint, and non-adjacent.
void AddPoint(std::map<NodeId, NodeId>& runs, NodeId u) {
  NodeId b = u, e = u + 1;
  auto it = runs.lower_bound(u);
  if (it != runs.end() && it->first == e) {
    e = it->second;
    it = runs.erase(it);
  }
  if (it != runs.begin()) {
    auto prev = std::prev(it);
    if (prev->second == u) {
      b = prev->first;
      runs.erase(prev);
    }
  }
  runs[b] = e;
}

void RemovePoint(std::map<NodeId, NodeId>& runs, NodeId u) {
  auto it = runs.upper_bound(u);
  TREEWALK_CHECK(it != runs.begin(), "RemovePoint: node not active");
  --it;
  NodeId b = it->first, e = it->second;
  TREEWALK_CHECK(b <= u && u < e, "RemovePoint: node not active");
  runs.erase(it);
  if (b < u) runs[b] = u;
  if (u + 1 < e) runs[u + 1] = e;
}

/// Maximal runs of set bits, normalized.
std::vector<NodeSpan> SetToSpans(const NodeSet& s) {
  std::vector<NodeSpan> out;
  const NodeId n = static_cast<NodeId>(s.size());
  bool in = false;
  NodeId start = 0;
  for (NodeId u = 0; u < n; ++u) {
    bool bit = s.test(u);
    if (bit && !in) {
      start = u;
      in = true;
    } else if (!bit && in) {
      out.push_back({start, u});
      in = false;
    }
  }
  if (in) out.push_back({start, n});
  return out;
}

}  // namespace

IntervalMatrix::IntervalMatrix(std::size_t n) : n_(n), rows_(n) {}

void IntervalMatrix::AppendLogicalRow(NodeId u,
                                      std::vector<NodeSpan>& out) const {
  const Row& r = rows_[static_cast<std::size_t>(u)];
  if (!r.complemented) {
    if (r.count > 0) AppendView(MakeView(pools_, r), out);
    return;
  }
  std::vector<NodeSpan> pos;
  if (r.count > 0) AppendView(MakeView(pools_, r), pos);
  ComplementInto(pos, static_cast<NodeId>(n_), out);
}

bool IntervalMatrix::test(NodeId u, NodeId v) const {
  const Row& r = rows_[static_cast<std::size_t>(u)];
  bool in = false;
  if (r.count > 0 && v >= r.clip_begin && v < r.clip_end) {
    const NodeSpan* base = pools_[r.pool]->data() + r.offset;
    const NodeSpan* it = std::partition_point(
        base, base + r.count, [&](const NodeSpan& s) { return s.end <= v; });
    in = it != base + r.count && it->begin <= v;
  }
  return r.complemented ? !in : in;
}

std::vector<NodeSpan> IntervalMatrix::RowSpans(NodeId u) const {
  std::vector<NodeSpan> out;
  AppendLogicalRow(u, out);
  return out;
}

std::int64_t IntervalMatrix::RowWidth(NodeId u) const {
  const Row& r = rows_[static_cast<std::size_t>(u)];
  std::int64_t w = 0;
  if (r.count > 0) {
    SliceView v = MakeView(pools_, r);
    for (std::size_t i = 0; i < v.count; ++i) {
      NodeSpan s = ViewAt(v, i);
      w += s.end - s.begin;
    }
  }
  return r.complemented ? static_cast<std::int64_t>(n_) - w : w;
}

NodeSet IntervalMatrix::RowSet(NodeId u) const {
  NodeSet s(n_);
  std::vector<NodeSpan> spans;
  AppendLogicalRow(u, spans);
  for (const NodeSpan& sp : spans) s.SetRange(sp.begin, sp.end);
  return s;
}

void IntervalMatrix::AppendRowNodes(NodeId u,
                                    std::vector<NodeId>& out) const {
  // AppendLogicalRow's spans, read through the view in place.
  const Row& r = rows_[static_cast<std::size_t>(u)];
  const SliceView view = r.count > 0 ? MakeView(pools_, r) : SliceView{};
  NodeId cur = 0;
  for (std::size_t i = 0; i < view.count; ++i) {
    const NodeSpan s = ViewAt(view, i);
    if (r.complemented) {
      for (NodeId v = cur; v < s.begin; ++v) out.push_back(v);
      cur = s.end;
    } else {
      for (NodeId v = s.begin; v < s.end; ++v) out.push_back(v);
    }
  }
  if (r.complemented) {
    for (NodeId v = cur; v < static_cast<NodeId>(n_); ++v) out.push_back(v);
  }
}

NodeSet IntervalMatrix::AnyPerRow() const {
  NodeSet s(n_);
  for (NodeId u = 0; u < static_cast<NodeId>(n_); ++u)
    if (RowWidth(u) > 0) s.set(u);
  return s;
}

NodeSet IntervalMatrix::AllPerRow() const {
  NodeSet s(n_);
  for (NodeId u = 0; u < static_cast<NodeId>(n_); ++u)
    if (RowWidth(u) == static_cast<std::int64_t>(n_)) s.set(u);
  return s;
}

std::int64_t IntervalMatrix::TotalWidth() const {
  std::int64_t w = 0;
  for (NodeId u = 0; u < static_cast<NodeId>(n_); ++u) w += RowWidth(u);
  return w;
}

std::size_t IntervalMatrix::StoredSpans() const {
  std::size_t total = 0;
  for (const auto& pool : pools_)
    if (pool != nullptr) total += pool->size();
  return total;
}

std::int64_t IntervalMatrix::ApproxBytes() const {
  std::int64_t bytes = static_cast<std::int64_t>(sizeof(IntervalMatrix)) +
                       static_cast<std::int64_t>(rows_.size() * sizeof(Row));
  for (const auto& pool : pools_) {
    bytes += static_cast<std::int64_t>(sizeof(Pool));
    if (pool != nullptr)
      bytes += static_cast<std::int64_t>(pool->size() * sizeof(NodeSpan));
  }
  return bytes;
}

IntervalMatrix IntervalMatrix::Not(const IntervalMatrix& a) {
  IntervalMatrix m = a;
  for (Row& r : m.rows_) r.complemented = !r.complemented;
  return m;
}

Result<IntervalMatrix> IntervalMatrix::And(const IntervalMatrix& a,
                                           const IntervalMatrix& b,
                                           ScopedMemoryCharge* charge) {
  return Combine(a, b, /*conjunction=*/true, charge);
}

Result<IntervalMatrix> IntervalMatrix::Or(const IntervalMatrix& a,
                                          const IntervalMatrix& b,
                                          ScopedMemoryCharge* charge) {
  return Combine(a, b, /*conjunction=*/false, charge);
}

Result<IntervalMatrix> IntervalMatrix::Combine(const IntervalMatrix& a,
                                               const IntervalMatrix& b,
                                               bool conjunction,
                                               ScopedMemoryCharge* charge) {
  TREEWALK_CHECK(a.n_ == b.n_, "IntervalMatrix::Combine: size mismatch");
  const std::size_t n = a.n_;
  const NodeId nn = static_cast<NodeId>(n);
  IntervalMatrix m(n);
  if (charge != nullptr) {
    TREEWALK_RETURN_IF_ERROR(
        charge->Add(static_cast<std::int64_t>(n * sizeof(Row))));
  }
  m.pools_.push_back(nullptr);  // slot 0: owned pool, installed at the end
  PoolImporter importer(m.pools_);
  ChargedSpanPool owned(charge);
  RowMemo<6> memo;
  std::vector<NodeSpan> out;

  auto alias_of = [&](const IntervalMatrix& src, const Row& r) {
    Row copy = r;
    if (copy.count > 0) copy.pool = importer.Import(src.pools_[r.pool]);
    return copy;
  };
  const Row kEmptyRow{};
  Row full_row;
  full_row.complemented = true;

  for (NodeId u = 0; u < nn; ++u) {
    const Row& ra = a.rows_[static_cast<std::size_t>(u)];
    const Row& rb = b.rows_[static_cast<std::size_t>(u)];
    SliceView va = MakeView(a.pools_, ra);
    SliceView vb = MakeView(b.pools_, rb);
    const bool fa = ra.complemented, fb = rb.complemented;
    const bool ea = va.count == 0, eb = vb.count == 0;

    Row& result = m.rows_[static_cast<std::size_t>(u)];
    if (conjunction) {
      if ((ea && !fa) || (eb && !fb)) {  // one side logically empty
        result = kEmptyRow;
        continue;
      }
      if (ea && fa) {  // a is full
        result = alias_of(b, rb);
        continue;
      }
      if (eb && fb) {  // b is full
        result = alias_of(a, ra);
        continue;
      }
    } else {
      if ((ea && fa) || (eb && fb)) {  // one side logically full
        result = full_row;
        continue;
      }
      if (ea && !fa) {  // a is empty
        result = alias_of(b, rb);
        continue;
      }
      if (eb && !fb) {  // b is empty
        result = alias_of(a, ra);
        continue;
      }
    }
    if (fa == fb && ra.count > 0 && rb.count > 0 &&
        a.pools_[ra.pool].get() == b.pools_[rb.pool].get() &&
        ra.offset == rb.offset && ra.count == rb.count &&
        ra.clip_begin == rb.clip_begin && ra.clip_end == rb.clip_end) {
      result = alias_of(a, ra);  // identical operand rows; idempotent op
      continue;
    }
    if (conjunction && !fa && !fb && (va.count == 1 || vb.count == 1)) {
      // Single-span ∧ positive row: narrow the other row's clip window
      // and alias its pool — the desc/anc ∧ broadcast workhorse.
      const NodeSpan s = ViewAt(va.count == 1 ? va : vb, 0);
      result = va.count == 1 ? alias_of(b, rb) : alias_of(a, ra);
      result.clip_begin = std::max(result.clip_begin, s.begin);
      result.clip_end = std::min(result.clip_end, s.end);
      continue;
    }

    // Only rows that need a merge reach the memo: repeated operand row
    // pairs (broadcast against broadcast) are merged once and share
    // one slice of the owned pool.
    std::array<std::uint64_t, 6> key;
    {
      auto ka = PackRow(ra);
      auto kb = PackRow(rb);
      std::copy(ka.begin(), ka.end(), key.begin());
      std::copy(kb.begin(), kb.end(), key.begin() + 3);
    }
    auto [memo_it, fresh] = memo.try_emplace(key);
    if (!fresh) {
      result = memo_it->second;
      continue;
    }
    // a ∨ b = ¬(¬a ∧ ¬b): the disjunction runs the conjunction's
    // merge on flipped flags and complements the result.
    const bool na = conjunction ? fa : !fa;
    const bool nb = conjunction ? fb : !fb;
    out.clear();
    if (!na && !nb) {
      IntersectViews(va, vb, out);
    } else if (!na) {
      SubtractViews(va, vb, out);
    } else if (!nb) {
      SubtractViews(vb, va, out);
    } else {
      UnionViews(va, vb, out);
    }
    TREEWALK_RETURN_IF_ERROR(owned.Reserve(out.size()));
    result.pool = 0;
    result.offset = static_cast<std::uint32_t>(owned.spans.size());
    result.count = static_cast<std::uint32_t>(out.size());
    result.clip_begin = 0;
    result.clip_end = nn;
    result.complemented = (na && nb) != !conjunction;
    owned.spans.insert(owned.spans.end(), out.begin(), out.end());
    memo_it->second = result;
  }
  m.pools_[0] = std::make_shared<Pool>(std::move(owned.spans));
  return m;
}

Result<IntervalMatrix> IntervalMatrix::Transposed(const IntervalMatrix& a,
                                                  ScopedMemoryCharge* charge) {
  const std::size_t n = a.n_;
  const NodeId nn = static_cast<NodeId>(n);
  IntervalMatrix m(n);
  if (charge != nullptr) {
    TREEWALK_RETURN_IF_ERROR(
        charge->Add(static_cast<std::int64_t>(n * sizeof(Row))));
  }
  // Column sweep: +u where row u's spans open, -u where they close;
  // between events the active row set is constant and every column in
  // the gap aliases one snapshot of it.
  std::vector<std::pair<NodeId, std::int64_t>> events;
  {
    std::vector<NodeSpan> buf;
    for (NodeId u = 0; u < nn; ++u) {
      buf.clear();
      a.AppendLogicalRow(u, buf);
      for (const NodeSpan& s : buf) {
        events.emplace_back(s.begin, u + 1);
        if (s.end < nn) events.emplace_back(s.end, -static_cast<std::int64_t>(u + 1));
      }
    }
  }
  std::sort(events.begin(), events.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
  m.pools_.push_back(nullptr);
  ChargedSpanPool owned(charge);
  std::map<NodeId, NodeId> runs;
  auto snapshot = [&](NodeId from, NodeId to) -> Status {
    if (from >= to) return Status::Ok();
    TREEWALK_RETURN_IF_ERROR(owned.Reserve(runs.size()));
    Row r;
    r.pool = 0;
    r.offset = static_cast<std::uint32_t>(owned.spans.size());
    r.count = static_cast<std::uint32_t>(runs.size());
    r.clip_begin = 0;
    r.clip_end = nn;
    for (const auto& [b, e] : runs) owned.spans.push_back({b, e});
    for (NodeId v = from; v < to; ++v) m.rows_[static_cast<std::size_t>(v)] = r;
    return Status::Ok();
  };
  NodeId cur = 0;
  std::size_t i = 0;
  while (i < events.size()) {
    NodeId p = events[i].first;
    TREEWALK_RETURN_IF_ERROR(snapshot(cur, p));
    for (; i < events.size() && events[i].first == p; ++i) {
      std::int64_t ev = events[i].second;
      if (ev > 0) {
        AddPoint(runs, static_cast<NodeId>(ev - 1));
      } else {
        RemovePoint(runs, static_cast<NodeId>(-ev - 1));
      }
    }
    cur = p;
  }
  TREEWALK_RETURN_IF_ERROR(snapshot(cur, nn));
  m.pools_[0] = std::make_shared<Pool>(std::move(owned.spans));
  return m;
}

Result<IntervalMatrix> IntervalMatrix::Compose(const IntervalMatrix& p,
                                               const IntervalMatrix& q,
                                               const NodeSet* guard,
                                               ScopedMemoryCharge* charge) {
  TREEWALK_CHECK(p.n_ == q.n_, "IntervalMatrix::Compose: size mismatch");
  const std::size_t n = p.n_;
  const NodeId nn = static_cast<NodeId>(n);
  // R[u][v] = ∃w P[u][w] ∧ Q[v][w] ∧ G[w] is symmetric in (P, Q) up to
  // transposing R, so drive the join from whichever side has fewer
  // members to iterate and flip the result back if roles were swapped.
  const bool swapped = p.TotalWidth() > q.TotalWidth();
  const IntervalMatrix& drv = swapped ? q : p;
  const IntervalMatrix& oth = swapped ? p : q;
  auto qt_result = Transposed(oth, charge);
  if (!qt_result.ok()) return qt_result.status();
  IntervalMatrix qt = std::move(qt_result).value();

  IntervalMatrix m(n);
  if (charge != nullptr) {
    TREEWALK_RETURN_IF_ERROR(
        charge->Add(static_cast<std::int64_t>(n * sizeof(Row))));
  }
  m.pools_.push_back(nullptr);
  PoolImporter importer(m.pools_);
  ChargedSpanPool owned(charge);
  RowMemo<3> memo;
  std::vector<NodeSpan> rowbuf, concat, out;

  for (NodeId u = 0; u < nn; ++u) {
    const Row& ru = drv.rows_[static_cast<std::size_t>(u)];
    auto key = PackRow(ru);
    auto found = memo.find(key);
    if (found != memo.end()) {
      m.rows_[static_cast<std::size_t>(u)] = found->second;
      continue;
    }
    rowbuf.clear();
    drv.AppendLogicalRow(u, rowbuf);
    concat.clear();
    std::size_t contributors = 0;
    Row last_contrib{};
    for (const NodeSpan& s : rowbuf) {
      for (NodeId w = s.begin; w < s.end; ++w) {
        if (guard != nullptr && !guard->test(w)) continue;
        const Row& rw = qt.rows_[static_cast<std::size_t>(w)];
        SliceView vw = MakeView(qt.pools_, rw);  // transpose rows: positive
        if (vw.count == 0) continue;
        ++contributors;
        last_contrib = rw;
        AppendView(vw, concat);
      }
    }
    Row result;
    if (contributors == 1) {
      result = last_contrib;
      result.pool = importer.Import(qt.pools_[last_contrib.pool]);
    } else if (contributors > 1) {
      std::sort(concat.begin(), concat.end(),
                [](const NodeSpan& x, const NodeSpan& y) {
                  return x.begin < y.begin;
                });
      out.clear();
      for (const NodeSpan& s : concat) {
        if (!out.empty() && s.begin <= out.back().end) {
          out.back().end = std::max(out.back().end, s.end);
        } else {
          out.push_back(s);
        }
      }
      TREEWALK_RETURN_IF_ERROR(owned.Reserve(out.size()));
      result.pool = 0;
      result.offset = static_cast<std::uint32_t>(owned.spans.size());
      result.count = static_cast<std::uint32_t>(out.size());
      result.clip_begin = 0;
      result.clip_end = nn;
      owned.spans.insert(owned.spans.end(), out.begin(), out.end());
    }
    m.rows_[static_cast<std::size_t>(u)] = result;
    memo.emplace(key, result);
  }
  m.pools_[0] = std::make_shared<Pool>(std::move(owned.spans));
  if (swapped) return Transposed(m, charge);
  return m;
}

IntervalMatrix IntervalMatrix::RowBroadcast(const NodeSet& s) {
  const std::size_t n = s.size();
  const NodeId nn = static_cast<NodeId>(n);
  IntervalMatrix m(n);
  auto pool = std::make_shared<Pool>();
  if (n > 0) pool->push_back({0, nn});
  m.pools_.push_back(std::move(pool));
  Row full;
  full.pool = 0;
  full.offset = 0;
  full.count = 1;
  full.clip_begin = 0;
  full.clip_end = nn;
  for (NodeId u = 0; u < nn; ++u)
    if (s.test(u)) m.rows_[static_cast<std::size_t>(u)] = full;
  return m;
}

Result<IntervalMatrix> IntervalMatrix::ColBroadcast(const NodeSet& s,
                                                    ScopedMemoryCharge* charge) {
  const std::size_t n = s.size();
  const NodeId nn = static_cast<NodeId>(n);
  IntervalMatrix m(n);
  if (charge != nullptr) {
    TREEWALK_RETURN_IF_ERROR(
        charge->Add(static_cast<std::int64_t>(n * sizeof(Row))));
  }
  std::vector<NodeSpan> spans = SetToSpans(s);
  if (charge != nullptr) {
    TREEWALK_RETURN_IF_ERROR(charge->Add(
        static_cast<std::int64_t>(spans.size() * sizeof(NodeSpan))));
  }
  Row shared;
  shared.pool = 0;
  shared.offset = 0;
  shared.count = static_cast<std::uint32_t>(spans.size());
  shared.clip_begin = 0;
  shared.clip_end = nn;
  if (shared.count > 0) {
    for (NodeId u = 0; u < nn; ++u) m.rows_[static_cast<std::size_t>(u)] = shared;
  }
  m.pools_.push_back(std::make_shared<Pool>(std::move(spans)));
  return m;
}

IntervalMatrixBuilder::IntervalMatrixBuilder(std::size_t n,
                                             ScopedMemoryCharge* charge)
    : n_(n), charge_(charge), out_(n), committed_(n, false) {
  if (charge_ != nullptr) {
    status_ = charge_->Add(
        static_cast<std::int64_t>(n * sizeof(IntervalMatrix::Row)));
  }
}

Status IntervalMatrixBuilder::ChargeSpans(std::size_t additional) {
  std::size_t need = pool_.size() + additional;
  if (need <= charged_spans_) return Status::Ok();
  std::size_t target =
      ((need + kSpanChargeChunk - 1) / kSpanChargeChunk) * kSpanChargeChunk;
  if (charge_ != nullptr) {
    TREEWALK_RETURN_IF_ERROR(charge_->Add(static_cast<std::int64_t>(
        (target - charged_spans_) * sizeof(NodeSpan))));
  }
  charged_spans_ = target;
  return Status::Ok();
}

Status IntervalMatrixBuilder::AddSpan(NodeId begin, NodeId end) {
  if (!status_.ok()) return status_;
  if (begin < 0 || begin >= end || end > static_cast<NodeId>(n_)) {
    return status_ = Internal("IntervalMatrixBuilder::AddSpan: bad span");
  }
  if (!pending_.empty()) {
    if (begin < pending_.back().end) {
      return status_ = Internal("IntervalMatrixBuilder::AddSpan: not sorted");
    }
    if (begin == pending_.back().end) {  // adjacent: coalesce
      pending_.back().end = end;
      return Status::Ok();
    }
  }
  pending_.push_back({begin, end});
  return Status::Ok();
}

Status IntervalMatrixBuilder::CommitRow(NodeId u, bool complemented) {
  if (!status_.ok()) return status_;
  if (u < 0 || u >= static_cast<NodeId>(n_) ||
      committed_[static_cast<std::size_t>(u)]) {
    return status_ = Internal("IntervalMatrixBuilder::CommitRow: bad row");
  }
  Status charged = ChargeSpans(pending_.size());
  if (!charged.ok()) return status_ = charged;
  IntervalMatrix::Row r;
  r.pool = 0;
  r.offset = static_cast<std::uint32_t>(pool_.size());
  r.count = static_cast<std::uint32_t>(pending_.size());
  r.clip_begin = 0;
  r.clip_end = static_cast<NodeId>(n_);
  r.complemented = complemented;
  pool_.insert(pool_.end(), pending_.begin(), pending_.end());
  pending_.clear();
  out_.rows_[static_cast<std::size_t>(u)] = r;
  committed_[static_cast<std::size_t>(u)] = true;
  return Status::Ok();
}

Status IntervalMatrixBuilder::AliasRow(NodeId u, NodeId v) {
  if (!status_.ok()) return status_;
  if (u < 0 || u >= static_cast<NodeId>(n_) || v < 0 ||
      v >= static_cast<NodeId>(n_) ||
      committed_[static_cast<std::size_t>(u)] ||
      !committed_[static_cast<std::size_t>(v)]) {
    return status_ = Internal("IntervalMatrixBuilder::AliasRow: bad rows");
  }
  out_.rows_[static_cast<std::size_t>(u)] =
      out_.rows_[static_cast<std::size_t>(v)];
  committed_[static_cast<std::size_t>(u)] = true;
  return Status::Ok();
}

Status IntervalMatrixBuilder::AliasRowWindow(NodeId u, NodeId v, NodeId begin,
                                             NodeId end) {
  if (!status_.ok()) return status_;
  if (u < 0 || u >= static_cast<NodeId>(n_) || v < 0 ||
      v >= static_cast<NodeId>(n_) ||
      committed_[static_cast<std::size_t>(u)] ||
      !committed_[static_cast<std::size_t>(v)]) {
    return status_ =
               Internal("IntervalMatrixBuilder::AliasRowWindow: bad rows");
  }
  IntervalMatrix::Row r = out_.rows_[static_cast<std::size_t>(v)];
  if (r.complemented) {
    // Clip applies to the stored slice, not the complement: a windowed
    // complemented row is not representable by clip narrowing.
    return status_ =
               Internal("IntervalMatrixBuilder::AliasRowWindow: complemented");
  }
  r.clip_begin = std::max(r.clip_begin, begin);
  r.clip_end = std::min(r.clip_end, end);
  out_.rows_[static_cast<std::size_t>(u)] = r;
  committed_[static_cast<std::size_t>(u)] = true;
  return Status::Ok();
}

Status IntervalMatrixBuilder::ReclipRow(NodeId u, NodeId begin, NodeId end) {
  if (!status_.ok()) return status_;
  if (u < 0 || u >= static_cast<NodeId>(n_) ||
      !committed_[static_cast<std::size_t>(u)]) {
    return status_ = Internal("IntervalMatrixBuilder::ReclipRow: bad row");
  }
  IntervalMatrix::Row& r = out_.rows_[static_cast<std::size_t>(u)];
  if (r.complemented) {
    return status_ = Internal("IntervalMatrixBuilder::ReclipRow: complemented");
  }
  r.clip_begin = std::max(r.clip_begin, begin);
  r.clip_end = std::min(r.clip_end, end);
  return Status::Ok();
}

Result<IntervalMatrix> IntervalMatrixBuilder::Finish() && {
  if (!status_.ok()) return status_;
  out_.pools_.push_back(std::make_shared<Pool>(std::move(pool_)));
  return std::move(out_);
}

}  // namespace treewalk
