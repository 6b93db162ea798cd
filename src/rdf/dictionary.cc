#include "rdf/dictionary.h"

namespace prost::rdf {

TermId Dictionary::Intern(std::string_view lexical) {
  auto it = index_.find(lexical);
  if (it != index_.end()) return it->second;
  lexicals_.emplace_back(lexical);
  TermId id = static_cast<TermId>(lexicals_.size());
  index_.emplace(std::string_view(lexicals_.back()), id);
  return id;
}

TermId Dictionary::Lookup(std::string_view lexical) const {
  auto it = index_.find(lexical);
  return it == index_.end() ? kNullTermId : it->second;
}

Result<std::string_view> Dictionary::LookupId(TermId id) const {
  if (id == kNullTermId || id > lexicals_.size()) {
    return Status::NotFound("term id out of range: " + std::to_string(id));
  }
  return std::string_view(lexicals_[id - 1]);
}

std::string_view Dictionary::MustLookupId(TermId id) const {
  if (id == kNullTermId || id > lexicals_.size()) {
    internal_status::AbortWithMessage(
        "Dictionary::MustLookupId on unknown term id " + std::to_string(id));
  }
  return std::string_view(lexicals_[id - 1]);
}

bool Dictionary::IsLiteralId(TermId id) const {
  if (IsVirtualIntegerId(id)) return true;
  if (id == kNullTermId || id > lexicals_.size()) return false;
  const std::string& lexical = lexicals_[id - 1];
  return !lexical.empty() && lexical[0] == '"';
}

Result<Term> Dictionary::DecodeTerm(TermId id) const {
  PROST_ASSIGN_OR_RETURN(std::string_view lexical, LookupId(id));
  return ParseTerm(lexical);
}

std::vector<uint32_t> Dictionary::TermLengths() const {
  std::vector<uint32_t> lengths(lexicals_.size() + 1, 0);
  for (size_t i = 0; i < lexicals_.size(); ++i) {
    lengths[i + 1] = static_cast<uint32_t>(lexicals_[i].size());
  }
  return lengths;
}

}  // namespace prost::rdf
