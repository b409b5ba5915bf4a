#include "src/relstore/store.h"

#include <algorithm>

namespace treewalk {

Result<Store> Store::Create(
    const std::vector<std::pair<std::string, int>>& schema) {
  auto names = std::make_shared<std::vector<std::string>>();
  Store store;
  for (const auto& [name, arity] : schema) {
    if (arity < 0) {
      return InvalidArgument("negative arity for relation '" + name + "'");
    }
    if (std::find(names->begin(), names->end(), name) != names->end()) {
      return InvalidArgument("duplicate relation name '" + name + "'");
    }
    names->push_back(name);
    store.relations_.emplace_back(arity);
  }
  store.names_ = std::move(names);
  return store;
}

int Store::IndexOf(const std::string& name) const {
  for (std::size_t i = 0; i < relations_.size(); ++i) {
    if ((*names_)[i] == name) return static_cast<int>(i);
  }
  return -1;
}

int Store::ArityOf(const std::string& name) const {
  int index = IndexOf(name);
  return index < 0 ? -1 : relations_[static_cast<std::size_t>(index)].arity();
}

const Relation* Store::Find(const std::string& name) const {
  int index = IndexOf(name);
  return index < 0 ? nullptr : &relations_[static_cast<std::size_t>(index)];
}

Relation* Store::Find(const std::string& name) {
  int index = IndexOf(name);
  return index < 0 ? nullptr : &relations_[static_cast<std::size_t>(index)];
}

Status Store::Replace(std::size_t index, Relation relation) {
  if (index >= relations_.size()) {
    return InvalidArgument("relation index out of range");
  }
  if (relation.arity() != relations_[index].arity()) {
    return InvalidArgument("arity mismatch replacing relation '" +
                           NameAt(index) + "'");
  }
  relations_[index] = std::move(relation);
  return Status::Ok();
}

Status Store::Assign(std::size_t index, const Relation& relation) {
  if (index >= relations_.size()) {
    return InvalidArgument("relation index out of range");
  }
  if (relation.arity() != relations_[index].arity()) {
    return InvalidArgument("arity mismatch replacing relation '" +
                           NameAt(index) + "'");
  }
  relations_[index] = relation;
  return Status::Ok();
}

std::vector<DataValue> Store::ActiveDomain() const {
  std::vector<DataValue> out;
  AppendValues(out);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void Store::AppendValues(std::vector<DataValue>& out) const {
  for (const Relation& r : relations_) r.AppendValues(out);
}

std::uint64_t Store::Fingerprint() const {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const Relation& r : relations_) {
    h ^= r.Fingerprint() + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

std::size_t Store::TotalTuples() const {
  std::size_t total = 0;
  for (const Relation& r : relations_) total += r.size();
  return total;
}

std::string Store::ToString() const {
  std::string out;
  for (std::size_t i = 0; i < relations_.size(); ++i) {
    if (i > 0) out += "; ";
    out += NameAt(i);
    out += " = ";
    out += relations_[i].ToString();
  }
  return out;
}

namespace {

const std::vector<std::string>& NamesOf(
    const std::shared_ptr<const std::vector<std::string>>& names) {
  static const std::vector<std::string> kNone;
  return names != nullptr ? *names : kNone;
}

}  // namespace

bool operator==(const Store& a, const Store& b) {
  return (a.names_ == b.names_ || NamesOf(a.names_) == NamesOf(b.names_)) &&
         a.relations_ == b.relations_;
}

std::strong_ordering operator<=>(const Store& a, const Store& b) {
  if (a.names_ != b.names_) {
    if (auto c = NamesOf(a.names_) <=> NamesOf(b.names_); c != 0) return c;
  }
  return a.relations_ <=> b.relations_;
}

}  // namespace treewalk
