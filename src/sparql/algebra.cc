#include "sparql/algebra.h"

#include <map>

#include "common/str_util.h"

namespace prost::sparql {

std::vector<std::string> TriplePattern::Variables() const {
  std::vector<std::string> vars;
  if (subject.is_variable()) vars.push_back(subject.value);
  if (predicate.is_variable()) vars.push_back(predicate.value);
  if (object.is_variable()) vars.push_back(object.value);
  return vars;
}

std::string TriplePattern::ToString() const {
  return subject.ToNTriples() + " " + predicate.ToNTriples() + " " +
         object.ToNTriples();
}

std::set<std::string> BasicGraphPattern::Variables() const {
  std::set<std::string> vars;
  for (const TriplePattern& pattern : patterns) {
    for (std::string& v : pattern.Variables()) vars.insert(std::move(v));
  }
  return vars;
}

bool BasicGraphPattern::IsConnected() const {
  if (patterns.size() <= 1) return true;
  // Union-find over pattern indices, merging patterns that share a
  // variable.
  std::vector<size_t> parent(patterns.size());
  for (size_t i = 0; i < parent.size(); ++i) parent[i] = i;
  auto find = [&](size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  std::map<std::string, size_t> first_seen;
  for (size_t i = 0; i < patterns.size(); ++i) {
    for (const std::string& v : patterns[i].Variables()) {
      auto [it, inserted] = first_seen.emplace(v, i);
      if (!inserted) parent[find(i)] = find(it->second);
    }
  }
  size_t root = find(0);
  for (size_t i = 1; i < patterns.size(); ++i) {
    if (find(i) != root) return false;
  }
  return true;
}

const char* CompareOpToString(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

std::string FilterConstraint::ToString() const {
  std::string rhs =
      rhs_is_variable ? "?" + rhs_variable : rhs_term.ToNTriples();
  return StrFormat("FILTER(?%s %s %s)", variable.c_str(),
                   CompareOpToString(op), rhs.c_str());
}

std::vector<std::string> Query::EffectiveProjection() const {
  if (!projection.empty()) return projection;
  std::set<std::string> vars = bgp.Variables();
  return std::vector<std::string>(vars.begin(), vars.end());
}

std::string Query::ToString() const {
  std::string out = "SELECT ";
  if (count.has_value()) {
    out += "(COUNT(";
    if (count->distinct) out += "DISTINCT ";
    out += count->variable.empty() ? "*" : "?" + count->variable;
    out += ") AS ?" + count->alias + ")";
  } else if (distinct) {
    out += "DISTINCT ";
  }
  if (count.has_value()) {
    // Projection handled above.
  } else if (projection.empty()) {
    out += "*";
  } else {
    for (size_t i = 0; i < projection.size(); ++i) {
      if (i > 0) out += " ";
      out += "?" + projection[i];
    }
  }
  out += " WHERE {\n";
  for (const TriplePattern& pattern : bgp.patterns) {
    out += "  " + pattern.ToString() + " .\n";
  }
  for (const FilterConstraint& filter : filters) {
    out += "  " + filter.ToString() + " .\n";
  }
  out += "}";
  if (!order_by.empty()) {
    out += " ORDER BY";
    for (const OrderKey& key : order_by) {
      out += key.descending ? " DESC(?" + key.variable + ")"
                            : " ?" + key.variable;
    }
  }
  if (limit > 0) out += StrFormat(" LIMIT %llu",
                                  static_cast<unsigned long long>(limit));
  if (offset > 0) out += StrFormat(" OFFSET %llu",
                                   static_cast<unsigned long long>(offset));
  return out;
}

Status ValidateQuery(const Query& query) {
  if (query.bgp.patterns.empty()) {
    return Status::InvalidArgument("query has an empty basic graph pattern");
  }
  for (const TriplePattern& pattern : query.bgp.patterns) {
    if (pattern.predicate.is_variable()) {
      return Status::Unimplemented(
          "variable predicates are not supported (pattern: " +
          pattern.ToString() + ")");
    }
    if (!pattern.predicate.is_iri()) {
      return Status::InvalidArgument("predicate must be an IRI (pattern: " +
                                     pattern.ToString() + ")");
    }
    if (pattern.subject.is_literal()) {
      return Status::InvalidArgument(
          "subject cannot be a literal (pattern: " + pattern.ToString() +
          ")");
    }
  }
  std::set<std::string> bound = query.bgp.Variables();
  for (const std::string& v : query.projection) {
    if (!bound.count(v)) {
      return Status::InvalidArgument("projected variable ?" + v +
                                     " is not bound in the BGP");
    }
  }
  for (const FilterConstraint& filter : query.filters) {
    if (!bound.count(filter.variable)) {
      return Status::InvalidArgument("filtered variable ?" +
                                     filter.variable +
                                     " is not bound in the BGP");
    }
    if (filter.rhs_is_variable && !bound.count(filter.rhs_variable)) {
      return Status::InvalidArgument("filtered variable ?" +
                                     filter.rhs_variable +
                                     " is not bound in the BGP");
    }
    if (!filter.rhs_is_variable && filter.rhs_term.is_variable()) {
      return Status::Internal("filter rhs marked constant holds a variable");
    }
  }
  for (const OrderKey& key : query.order_by) {
    if (!bound.count(key.variable)) {
      return Status::InvalidArgument("ORDER BY variable ?" + key.variable +
                                     " is not bound in the BGP");
    }
  }
  if (query.count.has_value()) {
    if (!query.projection.empty() || !query.order_by.empty()) {
      return Status::Unimplemented(
          "COUNT cannot be combined with other projections or ORDER BY");
    }
    if (!query.count->variable.empty() &&
        !bound.count(query.count->variable)) {
      return Status::InvalidArgument("counted variable ?" +
                                     query.count->variable +
                                     " is not bound in the BGP");
    }
    if (query.count->alias.empty()) {
      return Status::InvalidArgument("COUNT requires an AS ?alias");
    }
    // SPARQL 1.1 §18.2.1: the variable of (expr AS ?v) must not already
    // be in scope.
    if (bound.count(query.count->alias)) {
      return Status::InvalidArgument("COUNT alias ?" + query.count->alias +
                                     " is already bound in the BGP");
    }
  }
  if (!query.bgp.IsConnected()) {
    return Status::Unimplemented(
        "disconnected BGPs (cross products) are not supported");
  }
  return Status::OK();
}

}  // namespace prost::sparql
