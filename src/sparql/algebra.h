#ifndef PROST_SPARQL_ALGEBRA_H_
#define PROST_SPARQL_ALGEBRA_H_

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "rdf/term.h"

namespace prost::sparql {

/// A triple pattern: subject/predicate/object, each either a concrete term
/// or a variable. The paper's translation (§3.2) requires concrete
/// predicates (as do all four evaluated systems' partitioned layouts); the
/// planner rejects variable predicates with kUnimplemented.
struct TriplePattern {
  rdf::Term subject;
  rdf::Term predicate;
  rdf::Term object;

  /// Variables mentioned by this pattern, in S,O order.
  std::vector<std::string> Variables() const;

  /// True when subject or object is a literal/IRI constant (the strong
  /// selectivity signal of §3.3).
  bool HasConstantSubject() const { return subject.is_concrete(); }
  bool HasConstantObject() const { return object.is_concrete(); }

  std::string ToString() const;

  bool operator==(const TriplePattern& other) const = default;
};

/// A conjunction of triple patterns (the paper restricts itself to queries
/// with a unique basic graph pattern without filters — the WatDiv basic
/// query set).
struct BasicGraphPattern {
  std::vector<TriplePattern> patterns;

  /// All distinct variable names, sorted.
  std::set<std::string> Variables() const;

  /// True when every pair of patterns is transitively connected through
  /// shared variables. Disconnected BGPs would need cross products.
  bool IsConnected() const;
};

/// Comparison operators available in FILTER expressions.
enum class CompareOp : uint8_t {
  kEq,  // =
  kNe,  // !=
  kLt,  // <
  kLe,  // <=
  kGt,  // >
  kGe,  // >=
};

const char* CompareOpToString(CompareOp op);

/// One FILTER constraint: `?var OP constant` or `?var OP ?var`.
/// Comparisons are numeric when both sides are numeric literals, SPARQL
/// operator-mapping style; otherwise `=`/`!=` compare terms and ordering
/// operators compare lexical forms.
struct FilterConstraint {
  std::string variable;
  CompareOp op = CompareOp::kEq;
  bool rhs_is_variable = false;
  std::string rhs_variable;  // When rhs_is_variable.
  rdf::Term rhs_term;        // Otherwise.

  std::string ToString() const;
  bool operator==(const FilterConstraint& other) const = default;
};

/// One ORDER BY key.
struct OrderKey {
  std::string variable;
  bool descending = false;

  bool operator==(const OrderKey& other) const = default;
};

/// A COUNT aggregate in the projection: `SELECT (COUNT(*) AS ?alias)` or
/// `SELECT (COUNT(DISTINCT ?var) AS ?alias)`. When present, it is the
/// whole projection (GROUP BY is not supported).
struct CountAggregate {
  bool distinct = false;
  /// Counted variable; empty means COUNT(*).
  std::string variable;
  std::string alias;

  bool operator==(const CountAggregate& other) const = default;
};

/// A parsed SELECT query.
struct Query {
  /// Projected variable names (without '?'); empty means SELECT *.
  std::vector<std::string> projection;
  bool distinct = false;
  /// 0 means no LIMIT.
  uint64_t limit = 0;
  uint64_t offset = 0;
  BasicGraphPattern bgp;
  std::vector<FilterConstraint> filters;
  std::vector<OrderKey> order_by;
  /// Present for COUNT queries; projection/order_by are then empty.
  std::optional<CountAggregate> count;

  /// The effective projection: explicit list, or all BGP variables
  /// (sorted) for SELECT *.
  std::vector<std::string> EffectiveProjection() const;

  std::string ToString() const;
};

/// Structural validation: non-empty BGP, concrete predicates, projected
/// variables bound in the BGP, connected pattern graph.
Status ValidateQuery(const Query& query);

}  // namespace prost::sparql

#endif  // PROST_SPARQL_ALGEBRA_H_
