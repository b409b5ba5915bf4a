#include "src/tree/axis_index.h"

#include <bit>
#include <cassert>

#include "src/common/failpoint.h"
#include "src/tree/interval_matrix.h"
#include "src/tree/traversal.h"

namespace treewalk {

namespace {

/// Word-level mask helpers for NodeSet words.
inline void SetBitRange(std::uint64_t* words, NodeId begin, NodeId end) {
  if (begin >= end) return;
  std::size_t first = static_cast<std::size_t>(begin) >> 6;
  std::size_t last = static_cast<std::size_t>(end - 1) >> 6;
  std::uint64_t head = ~std::uint64_t{0}
                       << (static_cast<std::size_t>(begin) & 63);
  std::uint64_t tail =
      ~std::uint64_t{0} >> (63 - (static_cast<std::size_t>(end - 1) & 63));
  if (first == last) {
    words[first] |= head & tail;
    return;
  }
  words[first] |= head;
  for (std::size_t w = first + 1; w < last; ++w) words[w] = ~std::uint64_t{0};
  words[last] |= tail;
}

inline void MaskTailWords(std::uint64_t* words, std::size_t num_words,
                          std::size_t n) {
  if (num_words == 0) return;
  std::size_t used = n & 63;
  if (used != 0) words[num_words - 1] &= (~std::uint64_t{0}) >> (64 - used);
}

inline void AppendBits(std::vector<NodeId>& out, const std::uint64_t* words,
                       std::size_t num_words) {
  for (std::size_t w = 0; w < num_words; ++w) {
    std::uint64_t bits = words[w];
    while (bits != 0) {
      int b = std::countr_zero(bits);
      out.push_back(static_cast<NodeId>(w * 64 + static_cast<std::size_t>(b)));
      bits &= bits - 1;
    }
  }
}

}  // namespace

// --- NodeSet. ----------------------------------------------------------

void NodeSet::SetRange(NodeId begin, NodeId end) {
  SetBitRange(words_.data(), begin, end);
}

bool NodeSet::any() const {
  for (std::uint64_t w : words_) {
    if (w != 0) return true;
  }
  return false;
}

bool NodeSet::all() const { return count() == n_; }

std::size_t NodeSet::count() const {
  std::size_t c = 0;
  for (std::uint64_t w : words_) c += static_cast<std::size_t>(std::popcount(w));
  return c;
}

void NodeSet::Union(const NodeSet& o) {
  assert(o.n_ == n_);
  for (std::size_t w = 0; w < words_.size(); ++w) words_[w] |= o.words_[w];
}

void NodeSet::Intersect(const NodeSet& o) {
  assert(o.n_ == n_);
  for (std::size_t w = 0; w < words_.size(); ++w) words_[w] &= o.words_[w];
}

void NodeSet::Complement() {
  for (auto& w : words_) w = ~w;
  MaskTail();
}

std::vector<NodeId> NodeSet::ToVector() const {
  std::vector<NodeId> out;
  out.reserve(count());
  AppendTo(out);
  return out;
}

void NodeSet::AppendTo(std::vector<NodeId>& out) const {
  AppendBits(out, words_.data(), words_.size());
}

void NodeSet::MaskTail() { MaskTailWords(words_.data(), words_.size(), n_); }

// --- AxisIndex. --------------------------------------------------------

namespace {

/// Approximate heap footprint of one NodeSet over n nodes (words plus
/// small-object overhead); the unit of axis-index memory accounting.
std::int64_t SetBytes(std::size_t n) {
  return static_cast<std::int64_t>((n + 63) / 64) * 8 + 48;
}

}  // namespace

AxisIndex::AxisIndex(const Tree& tree, ResourceGovernor* governor)
    : tree_(&tree),
      n_(tree.size()),
      governor_(governor),
      empty_(n_),
      full_(NodeSet::Full(n_)),
      roots_(n_),
      leaves_(n_),
      first_children_(n_),
      last_children_(n_) {
  // The base bitsets (6 predicates + one set per label) are charged as
  // one construction-time block; a failed charge latches status() and
  // the index stays usable only for its error report.
  status_ = GovernorCharge(
      governor_, MemoryCategory::kAxisIndex,
      static_cast<std::int64_t>(6 + tree.labels().size()) * SetBytes(n_));
  if (!status_.ok()) return;
  label_sets_.resize(tree.labels().size(), NodeSet(n_));
  for (NodeId u = 0; u < static_cast<NodeId>(n_); ++u) {
    if (tree.IsRoot(u)) roots_.set(u);
    if (tree.IsLeaf(u)) leaves_.set(u);
    if (tree.IsFirstChild(u)) first_children_.set(u);
    if (tree.IsLastChild(u)) last_children_.set(u);
    label_sets_[static_cast<std::size_t>(tree.label(u))].set(u);
  }
  attr_index_.resize(tree.num_attributes());
}

const NodeSet& AxisIndex::LabelSet(std::string_view name) const {
  Symbol s = tree_->FindLabel(name);
  if (s < 0) return empty_;
  return label_sets_[static_cast<std::size_t>(s)];
}

Status AxisIndex::EnsureAttrIndex(AttrId a) const {
  auto& slot = attr_index_[static_cast<std::size_t>(a)];
  if (slot.has_value()) return Status::Ok();
  TREEWALK_FAILPOINT("axis_index/alloc");
  slot.emplace();
  for (NodeId u = 0; u < static_cast<NodeId>(n_); ++u) {
    DataValue v = tree_->attr(a, u);
    auto [it, inserted] = slot->sets.try_emplace(v, n_);
    it->second.set(u);
    if (inserted) {
      // Charged per distinct value, as the sets appear: the index can
      // hold up to n sets, and pre-charging the worst case would
      // reject harmless trees.
      Status charge = GovernorCharge(governor_, MemoryCategory::kAxisIndex,
                                     SetBytes(n_) + 32);
      if (!charge.ok()) {
        slot.reset();
        return charge;
      }
    }
  }
  slot->values.reserve(slot->sets.size());
  for (const auto& [v, set] : slot->sets) slot->values.push_back(v);
  return Status::Ok();
}

const AxisIndex::AttrIndex& AxisIndex::AttrIndexFor(AttrId a) const {
  auto& slot = attr_index_[static_cast<std::size_t>(a)];
  if (!slot.has_value()) {
    // Ungoverned reference path; a charge rejection can only happen via
    // the Try* accessors, which callers with a governor use instead.
    ResourceGovernor* saved = governor_;
    const_cast<AxisIndex*>(this)->governor_ = nullptr;
    (void)EnsureAttrIndex(a);
    const_cast<AxisIndex*>(this)->governor_ = saved;
  }
  return *slot;
}

const NodeSet& AxisIndex::AttrValueSet(AttrId a, DataValue v) const {
  const AttrIndex& index = AttrIndexFor(a);
  auto it = index.sets.find(v);
  if (it == index.sets.end()) return empty_;
  return it->second;
}

const std::vector<DataValue>& AxisIndex::AttrValues(AttrId a) const {
  return AttrIndexFor(a).values;
}

Result<const NodeSet*> AxisIndex::TryAttrValueSet(AttrId a,
                                                  DataValue v) const {
  TREEWALK_RETURN_IF_ERROR(EnsureAttrIndex(a));
  const AttrIndex& index = *attr_index_[static_cast<std::size_t>(a)];
  auto it = index.sets.find(v);
  if (it == index.sets.end()) return &empty_;
  return &it->second;
}

Result<const std::vector<DataValue>*> AxisIndex::TryAttrValues(
    AttrId a) const {
  TREEWALK_RETURN_IF_ERROR(EnsureAttrIndex(a));
  return &attr_index_[static_cast<std::size_t>(a)]->values;
}

// --- Interval-encoded axes. --------------------------------------------

AxisIndex::~AxisIndex() = default;

namespace {

/// Exact footprint of an interval axis with `spans` total spans: the
/// row-descriptor array plus the one shared span pool.
std::int64_t IntervalBytes(std::size_t n, std::size_t spans) {
  return static_cast<std::int64_t>(n) *
             static_cast<std::int64_t>(sizeof(IntervalMatrix::Row)) +
         static_cast<std::int64_t>(spans) *
             static_cast<std::int64_t>(sizeof(NodeSpan)) +
         64;
}

}  // namespace

Status AxisIndex::EnsureIntervals(std::unique_ptr<IntervalMatrix>& slot,
                                  Result<IntervalMatrix> (AxisIndex::*build)()
                                      const) const {
  if (slot != nullptr) return Status::Ok();
  TREEWALK_FAILPOINT("axis_index/alloc");
  auto built = (this->*build)();
  if (!built.ok()) return built.status();
  slot = std::make_unique<IntervalMatrix>(std::move(built).value());
  return Status::Ok();
}

Result<IntervalMatrix> AxisIndex::BuildEdgeIntervals() const {
  // Children of u sit at non-contiguous pre-order ids (each child is
  // followed by its own subtree), so row u is one span per maximal run
  // of adjacent children — adjacency happens exactly when the previous
  // child is a leaf.  Prepass counts the runs for an exact charge.
  std::size_t spans = 0;
  for (NodeId u = 0; u < static_cast<NodeId>(n_); ++u) {
    NodeId prev_end = kNoNode;
    for (NodeId c = tree_->FirstChild(u); c != kNoNode;
         c = tree_->NextSibling(c)) {
      if (c != prev_end) ++spans;
      prev_end = tree_->SubtreeEnd(c);
    }
  }
  TREEWALK_RETURN_IF_ERROR(GovernorCharge(
      governor_, MemoryCategory::kAxisIndex, IntervalBytes(n_, spans)));
  IntervalMatrixBuilder builder(n_);
  for (NodeId u = 0; u < static_cast<NodeId>(n_); ++u) {
    NodeId run_begin = kNoNode, run_end = kNoNode;
    for (NodeId c = tree_->FirstChild(u); c != kNoNode;
         c = tree_->NextSibling(c)) {
      if (c == run_end) {
        run_end = c + 1;
        continue;
      }
      if (run_begin != kNoNode)
        TREEWALK_RETURN_IF_ERROR(builder.AddSpan(run_begin, run_end));
      run_begin = c;
      run_end = c + 1;
    }
    if (run_begin != kNoNode)
      TREEWALK_RETURN_IF_ERROR(builder.AddSpan(run_begin, run_end));
    TREEWALK_RETURN_IF_ERROR(builder.CommitRow(u));
  }
  return std::move(builder).Finish();
}

Result<IntervalMatrix> AxisIndex::BuildDescendantIntervals() const {
  std::size_t spans = 0;
  for (NodeId u = 0; u < static_cast<NodeId>(n_); ++u)
    if (tree_->SubtreeEnd(u) > u + 1) ++spans;
  TREEWALK_RETURN_IF_ERROR(GovernorCharge(
      governor_, MemoryCategory::kAxisIndex, IntervalBytes(n_, spans)));
  IntervalMatrixBuilder builder(n_);
  for (NodeId u = 0; u < static_cast<NodeId>(n_); ++u) {
    NodeId end = tree_->SubtreeEnd(u);
    if (end > u + 1) TREEWALK_RETURN_IF_ERROR(builder.AddSpan(u + 1, end));
    TREEWALK_RETURN_IF_ERROR(builder.CommitRow(u));
  }
  return std::move(builder).Finish();
}

Result<IntervalMatrix> AxisIndex::BuildSiblingIntervals() const {
  // Later siblings of u are exactly the family members with id > u, so
  // one shared child-run list per family serves every child: the first
  // child commits it, then re-clips itself out, and each later child
  // aliases a [c+1, n) suffix window of it.  O(1) spans amortized per
  // node.
  std::size_t spans = 0;
  for (NodeId u = 0; u < static_cast<NodeId>(n_); ++u) {
    NodeId prev_end = kNoNode;
    for (NodeId c = tree_->FirstChild(u); c != kNoNode;
         c = tree_->NextSibling(c)) {
      if (c != prev_end) ++spans;
      prev_end = tree_->SubtreeEnd(c);
    }
  }
  TREEWALK_RETURN_IF_ERROR(GovernorCharge(
      governor_, MemoryCategory::kAxisIndex, IntervalBytes(n_, spans)));
  IntervalMatrixBuilder builder(n_);
  const NodeId nn = static_cast<NodeId>(n_);
  auto commit_family = [&](NodeId first) -> Status {
    NodeId run_begin = kNoNode, run_end = kNoNode;
    for (NodeId c = first; c != kNoNode; c = tree_->NextSibling(c)) {
      if (c == run_end) {
        run_end = c + 1;
        continue;
      }
      if (run_begin != kNoNode)
        TREEWALK_RETURN_IF_ERROR(builder.AddSpan(run_begin, run_end));
      run_begin = c;
      run_end = c + 1;
    }
    if (run_begin != kNoNode)
      TREEWALK_RETURN_IF_ERROR(builder.AddSpan(run_begin, run_end));
    TREEWALK_RETURN_IF_ERROR(builder.CommitRow(first));
    TREEWALK_RETURN_IF_ERROR(builder.ReclipRow(first, first + 1, nn));
    for (NodeId c = tree_->NextSibling(first); c != kNoNode;
         c = tree_->NextSibling(c)) {
      TREEWALK_RETURN_IF_ERROR(builder.AliasRowWindow(c, first, c + 1, nn));
    }
    return Status::Ok();
  };
  for (NodeId u = 0; u < nn; ++u) {
    if (tree_->IsFirstChild(u)) TREEWALK_RETURN_IF_ERROR(commit_family(u));
  }
  return std::move(builder).Finish();
}

Result<IntervalMatrix> AxisIndex::BuildSuccIntervals() const {
  std::size_t spans = 0;
  for (NodeId u = 0; u < static_cast<NodeId>(n_); ++u)
    if (tree_->NextSibling(u) != kNoNode) ++spans;
  TREEWALK_RETURN_IF_ERROR(GovernorCharge(
      governor_, MemoryCategory::kAxisIndex, IntervalBytes(n_, spans)));
  IntervalMatrixBuilder builder(n_);
  for (NodeId u = 0; u < static_cast<NodeId>(n_); ++u) {
    NodeId v = tree_->NextSibling(u);
    if (v != kNoNode) TREEWALK_RETURN_IF_ERROR(builder.AddSpan(v, v + 1));
    TREEWALK_RETURN_IF_ERROR(builder.CommitRow(u));
  }
  return std::move(builder).Finish();
}

Result<IntervalMatrix> AxisIndex::BuildIdentityIntervals() const {
  TREEWALK_RETURN_IF_ERROR(GovernorCharge(
      governor_, MemoryCategory::kAxisIndex, IntervalBytes(n_, n_)));
  IntervalMatrixBuilder builder(n_);
  for (NodeId u = 0; u < static_cast<NodeId>(n_); ++u) {
    TREEWALK_RETURN_IF_ERROR(builder.AddSpan(u, u + 1));
    TREEWALK_RETURN_IF_ERROR(builder.CommitRow(u));
  }
  return std::move(builder).Finish();
}

Result<const IntervalMatrix*> AxisIndex::TryEdgeIntervals() const {
  TREEWALK_RETURN_IF_ERROR(
      EnsureIntervals(edge_, &AxisIndex::BuildEdgeIntervals));
  return edge_.get();
}
Result<const IntervalMatrix*> AxisIndex::TryDescendantIntervals() const {
  TREEWALK_RETURN_IF_ERROR(
      EnsureIntervals(desc_, &AxisIndex::BuildDescendantIntervals));
  return desc_.get();
}
Result<const IntervalMatrix*> AxisIndex::TrySiblingIntervals() const {
  TREEWALK_RETURN_IF_ERROR(
      EnsureIntervals(sib_, &AxisIndex::BuildSiblingIntervals));
  return sib_.get();
}
Result<const IntervalMatrix*> AxisIndex::TrySuccIntervals() const {
  TREEWALK_RETURN_IF_ERROR(
      EnsureIntervals(succ_, &AxisIndex::BuildSuccIntervals));
  return succ_.get();
}
Result<const IntervalMatrix*> AxisIndex::TryIdentityIntervals() const {
  TREEWALK_RETURN_IF_ERROR(
      EnsureIntervals(identity_, &AxisIndex::BuildIdentityIntervals));
  return identity_.get();
}

Result<const std::vector<NodeId>*> AxisIndex::TryPostorderRanks() const {
  if (!post_ranks_.has_value()) {
    TREEWALK_RETURN_IF_ERROR(GovernorCharge(
        governor_, MemoryCategory::kAxisIndex,
        static_cast<std::int64_t>(n_ * sizeof(NodeId)) + 48));
    if (const NodeId* snap = tree_->snapshot_postorder();
        snap != nullptr && n_ > 0) {
      // Snapshot-backed tree: adopt the persisted ranks instead of
      // re-running the numbering DFS (src/tree/snapshot.h).
      post_ranks_.emplace(snap, snap + n_);
    } else {
      std::vector<NodeId> order = PostOrder(*tree_);
      post_ranks_.emplace(n_);
      for (std::size_t i = 0; i < order.size(); ++i) {
        (*post_ranks_)[static_cast<std::size_t>(order[i])] =
            static_cast<NodeId>(i);
      }
    }
  }
  return &*post_ranks_;
}

const std::vector<NodeId>& AxisIndex::PostorderRanks() const {
  if (!post_ranks_.has_value()) {
    ResourceGovernor* saved = governor_;
    const_cast<AxisIndex*>(this)->governor_ = nullptr;
    (void)TryPostorderRanks();
    const_cast<AxisIndex*>(this)->governor_ = saved;
  }
  return *post_ranks_;
}

}  // namespace treewalk
