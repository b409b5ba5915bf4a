#include "src/relstore/relation.h"

#include <algorithm>
#include <cassert>

namespace treewalk {

namespace {

std::strong_ordering CompareRows(std::span<const DataValue> a,
                                 std::span<const DataValue> b) {
  return std::lexicographical_compare_three_way(a.begin(), a.end(),
                                                b.begin(), b.end());
}

}  // namespace

Relation::Relation(int arity, std::vector<Tuple> tuples) : arity_(arity) {
  for ([[maybe_unused]] const Tuple& t : tuples) {
    assert(static_cast<int>(t.size()) == arity_);
  }
  std::sort(tuples.begin(), tuples.end());
  tuples.erase(std::unique(tuples.begin(), tuples.end()), tuples.end());
  size_ = tuples.size();
  values_.reserve(size_ * static_cast<std::size_t>(arity_));
  for (const Tuple& t : tuples) values_.insert(values_.end(), t.begin(), t.end());
}

std::vector<Tuple> Relation::tuples() const {
  std::vector<Tuple> out;
  out.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) {
    std::span<const DataValue> row = Row(i);
    out.emplace_back(row.begin(), row.end());
  }
  return out;
}

std::size_t Relation::LowerBound(std::span<const DataValue> t) const {
  std::size_t lo = 0;
  std::size_t hi = size_;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (CompareRows(Row(mid), t) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

bool Relation::Contains(const Tuple& t) const {
  assert(static_cast<int>(t.size()) == arity_);
  const std::size_t i = LowerBound(t);
  return i < size_ && CompareRows(Row(i), t) == 0;
}

bool Relation::Insert(const Tuple& t) {
  assert(static_cast<int>(t.size()) == arity_);
  const std::size_t i = LowerBound(t);
  if (i < size_ && CompareRows(Row(i), t) == 0) return false;
  values_.insert(values_.begin() + static_cast<std::ptrdiff_t>(
                                       i * static_cast<std::size_t>(arity_)),
                 t.begin(), t.end());
  ++size_;
  return true;
}

void Relation::Append(std::span<const DataValue> t) {
  assert(static_cast<int>(t.size()) == arity_);
  assert(size_ == 0 || CompareRows(Row(size_ - 1), t) < 0);
  values_.insert(values_.end(), t.begin(), t.end());
  ++size_;
}

void Relation::Reset(int arity) {
  arity_ = arity;
  size_ = 0;
  values_.clear();
}

void Relation::UnionWith(const Relation& other) {
  assert(arity_ == other.arity_);
  if (other.size_ == 0) return;
  if (size_ == 0 || arity_ == 0) {
    if (size_ == 0) *this = other;
    return;
  }
  // Count the tuples `other` adds, then merge from the back so every
  // tuple moves at most once and the buffer grows at most once.
  std::size_t added = 0;
  for (std::size_t i = 0, j = 0; j < other.size_;) {
    const auto order = i < size_ ? CompareRows(Row(i), other.Row(j))
                                 : std::strong_ordering::greater;
    if (order < 0) {
      ++i;
    } else {
      if (order > 0) ++added;
      if (order == 0) ++i;
      ++j;
    }
  }
  if (added == 0) return;
  const std::size_t k = static_cast<std::size_t>(arity_);
  std::size_t i = size_;
  std::size_t j = other.size_;
  std::size_t w = size_ + added;
  values_.resize(w * k);
  while (j > 0) {
    const auto order = i > 0 ? CompareRows(Row(i - 1), other.Row(j - 1))
                             : std::strong_ordering::less;
    --w;
    if (order < 0) {
      std::span<const DataValue> src = other.Row(--j);
      std::copy(src.begin(), src.end(), values_.begin() + w * k);
    } else {
      if (order == 0) --j;
      --i;
      std::copy(values_.begin() + i * k, values_.begin() + (i + 1) * k,
                values_.begin() + w * k);
    }
  }
  size_ += added;
}

std::vector<DataValue> Relation::Values() const {
  std::vector<DataValue> out = values_;
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

Relation Relation::Singleton(DataValue v) {
  Relation r(1);
  r.Append(std::span<const DataValue>(&v, 1));
  return r;
}

std::uint64_t Relation::Fingerprint() const {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  mix(static_cast<std::uint64_t>(arity_));
  mix(size_);
  for (DataValue v : values_) mix(static_cast<std::uint64_t>(v));
  return h;
}

std::string Relation::ToString() const {
  std::string out = "{";
  for (std::size_t i = 0; i < size_; ++i) {
    if (i > 0) out += ", ";
    out += "(";
    std::span<const DataValue> row = Row(i);
    for (std::size_t j = 0; j < row.size(); ++j) {
      if (j > 0) out += ", ";
      out += row[j] == kBottom ? "_|_" : std::to_string(row[j]);
    }
    out += ")";
  }
  out += "}";
  return out;
}

std::strong_ordering operator<=>(const Relation& a, const Relation& b) {
  // Tuples have one arity, so comparing the laid-out values compares
  // the tuple lists; arity-0 relations differ only in their count.
  if (auto c = a.arity_ <=> b.arity_; c != 0) return c;
  if (auto c = CompareRows(a.values_, b.values_); c != 0) return c;
  return a.size_ <=> b.size_;
}

}  // namespace treewalk
