#include "core/modifiers.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <unordered_map>
#include <unordered_set>

#include "engine/operators.h"

namespace prost::core {
namespace {

using engine::Relation;
using engine::RelationChunk;
using engine::Row;
using rdf::TermId;

/// Comparison view of one RDF term: numeric value when the term is a
/// numeric literal, plus the canonical lexical form for everything else.
struct TermKey {
  bool is_numeric = false;
  double number = 0;
  std::string lexical;
};

bool IsNumericDatatype(const std::string& datatype) {
  static constexpr const char* kPrefix = "http://www.w3.org/2001/XMLSchema#";
  if (datatype.rfind(kPrefix, 0) != 0) return false;
  std::string local = datatype.substr(std::string(kPrefix).size());
  return local == "integer" || local == "decimal" || local == "double" ||
         local == "float" || local == "int" || local == "long" ||
         local == "short" || local == "nonNegativeInteger";
}

TermKey KeyOfTerm(const rdf::Term& term) {
  TermKey key;
  key.lexical = term.ToNTriples();
  if (term.is_literal() && IsNumericDatatype(term.datatype)) {
    char* end = nullptr;
    double value = std::strtod(term.value.c_str(), &end);
    if (end != nullptr && *end == '\0' && !term.value.empty()) {
      key.is_numeric = true;
      key.number = value;
    }
  }
  return key;
}

/// Memoizing id → TermKey resolver over the shared dictionary.
class KeyCache {
 public:
  explicit KeyCache(const rdf::Dictionary& dictionary)
      : dictionary_(dictionary) {}

  const TermKey& Get(TermId id) {
    auto it = cache_.find(id);
    if (it != cache_.end()) return it->second;
    TermKey key;
    Result<rdf::Term> term = dictionary_.DecodeTerm(id);
    if (term.ok()) key = KeyOfTerm(*term);
    return cache_.emplace(id, std::move(key)).first->second;
  }

 private:
  const rdf::Dictionary& dictionary_;
  std::unordered_map<TermId, TermKey> cache_;
};

/// SPARQL-ish three-way comparison; 0 = equal.
int CompareKeys(const TermKey& a, const TermKey& b) {
  if (a.is_numeric && b.is_numeric) {
    if (a.number < b.number) return -1;
    if (a.number > b.number) return 1;
    return 0;
  }
  return a.lexical.compare(b.lexical);
}

bool EvalOp(sparql::CompareOp op, int cmp) {
  switch (op) {
    case sparql::CompareOp::kEq:
      return cmp == 0;
    case sparql::CompareOp::kNe:
      return cmp != 0;
    case sparql::CompareOp::kLt:
      return cmp < 0;
    case sparql::CompareOp::kLe:
      return cmp <= 0;
    case sparql::CompareOp::kGt:
      return cmp > 0;
    case sparql::CompareOp::kGe:
      return cmp >= 0;
  }
  return false;
}

}  // namespace

bool FilterEqualityPruneId(const sparql::FilterConstraint& filter,
                           const rdf::Dictionary& dictionary,
                           rdf::TermId* id) {
  if (filter.op != sparql::CompareOp::kEq || filter.rhs_is_variable) {
    return false;
  }
  TermKey key = KeyOfTerm(filter.rhs_term);
  if (key.is_numeric) return false;
  // Non-numeric `=` compares canonical lexical forms, and the dictionary
  // is keyed on exactly that form — so equality is id equality.
  *id = dictionary.Lookup(key.lexical);
  return true;
}

struct FilterEvaluator::Impl {
  explicit Impl(const rdf::Dictionary& dictionary) : keys(dictionary) {}
  KeyCache keys;
};

FilterEvaluator::FilterEvaluator(const rdf::Dictionary& dictionary)
    : impl_(std::make_unique<Impl>(dictionary)) {}

FilterEvaluator::~FilterEvaluator() = default;

Result<Relation> FilterEvaluator::ApplyFilter(
    const Relation& input, const sparql::FilterConstraint& filter,
    cluster::CostModel& cost) {
  KeyCache& keys = impl_->keys;
  int lhs_column = input.ColumnIndex(filter.variable);
  if (lhs_column < 0) {
    return Status::InvalidArgument("FILTER variable ?" + filter.variable +
                                   " is not in the relation");
  }
  int rhs_column = -1;
  TermKey rhs_key;
  if (filter.rhs_is_variable) {
    rhs_column = input.ColumnIndex(filter.rhs_variable);
    if (rhs_column < 0) {
      return Status::InvalidArgument("FILTER variable ?" +
                                     filter.rhs_variable +
                                     " is not in the relation");
    }
  } else {
    // The constant is keyed from its parsed form — it need not occur in
    // the dataset for ordering comparisons to work.
    rhs_key = KeyOfTerm(filter.rhs_term);
  }

  Relation output(input.column_names(), input.num_chunks());
  output.set_hash_partitioned_by(input.hash_partitioned_by());
  for (uint32_t w = 0; w < input.num_chunks(); ++w) {
    const RelationChunk& chunk = input.chunks()[w];
    RelationChunk& out = output.mutable_chunks()[w];
    for (size_t r = 0; r < chunk.num_rows(); ++r) {
      const TermKey& lhs =
          keys.Get(chunk.columns[static_cast<size_t>(lhs_column)][r]);
      const TermKey& rhs =
          rhs_column >= 0
              ? keys.Get(chunk.columns[static_cast<size_t>(rhs_column)][r])
              : rhs_key;
      if (!EvalOp(filter.op, CompareKeys(lhs, rhs))) continue;
      for (size_t c = 0; c < chunk.columns.size(); ++c) {
        out.columns[c].push_back(chunk.columns[c][r]);
      }
    }
    cost.ChargeCpuRows(w, chunk.num_rows());
  }
  return output;
}

Result<Relation> FilterEvaluator::ApplyOrderBy(
    Relation relation, const std::vector<sparql::OrderKey>& order_keys,
    cluster::CostModel& cost) {
  KeyCache& keys = impl_->keys;
  // Driver-side sort, like Spark's collect for ordered results.
  std::vector<int> key_columns;
  key_columns.reserve(order_keys.size());
  for (const sparql::OrderKey& key : order_keys) {
    int column = relation.ColumnIndex(key.variable);
    if (column < 0) {
      return Status::InvalidArgument("ORDER BY variable ?" + key.variable +
                                     " is not bound in the solution");
    }
    key_columns.push_back(column);
  }
  std::vector<Row> rows = relation.CollectRows();
  cost.ChargeCpuRows(0, rows.size());
  std::stable_sort(rows.begin(), rows.end(), [&](const Row& a, const Row& b) {
    for (size_t k = 0; k < key_columns.size(); ++k) {
      size_t c = static_cast<size_t>(key_columns[k]);
      int cmp = CompareKeys(keys.Get(a[c]), keys.Get(b[c]));
      if (cmp == 0) continue;
      return order_keys[k].descending ? cmp > 0 : cmp < 0;
    }
    return false;
  });
  Relation sorted(relation.column_names(), relation.num_chunks());
  RelationChunk& chunk = sorted.mutable_chunks()[0];
  for (const Row& row : rows) {
    for (size_t c = 0; c < row.size(); ++c) {
      chunk.columns[c].push_back(row[c]);
    }
  }
  return sorted;
}

Result<Relation> ApplyCountAggregate(const Relation& relation,
                                     const sparql::CountAggregate& count,
                                     uint64_t offset,
                                     cluster::CostModel& cost) {
  uint64_t n = 0;
  if (count.variable.empty()) {
    n = relation.TotalRows();
  } else {
    int column = relation.ColumnIndex(count.variable);
    if (column < 0) {
      return Status::InvalidArgument("counted variable ?" + count.variable +
                                     " is not in the relation");
    }
    if (count.distinct) {
      std::unordered_set<TermId> distinct_values;
      for (const RelationChunk& chunk : relation.chunks()) {
        for (TermId id : chunk.columns[static_cast<size_t>(column)]) {
          distinct_values.insert(id);
        }
      }
      n = distinct_values.size();
    } else {
      n = relation.TotalRows();  // Bindings are never unbound here.
    }
  }
  cost.ChargeCpuRows(0, relation.TotalRows());
  // A non-zero OFFSET slices the single result row away.
  if (offset > 0) return Relation({count.alias}, relation.num_chunks());
  Relation aggregated({count.alias}, relation.num_chunks());
  aggregated.mutable_chunks()[0].columns[0].push_back(
      rdf::VirtualIntegerId(n));
  return aggregated;
}

Relation OrderPreservingDistinct(const Relation& relation,
                                 cluster::CostModel& cost) {
  std::vector<Row> rows = relation.CollectRows();
  cost.ChargeCpuRows(0, rows.size());
  std::vector<Row> seen_sorted;  // For O(n log n) membership.
  Relation deduped(relation.column_names(), relation.num_chunks());
  RelationChunk& chunk = deduped.mutable_chunks()[0];
  for (const Row& row : rows) {
    auto it = std::lower_bound(seen_sorted.begin(), seen_sorted.end(), row);
    if (it != seen_sorted.end() && *it == row) continue;
    seen_sorted.insert(it, row);
    for (size_t c = 0; c < row.size(); ++c) {
      chunk.columns[c].push_back(row[c]);
    }
  }
  return deduped;
}

Relation ApplyOffset(Relation relation, uint64_t offset) {
  uint64_t to_drop = offset;
  for (uint32_t w = 0; w < relation.num_chunks() && to_drop > 0; ++w) {
    RelationChunk& chunk = relation.mutable_chunks()[w];
    size_t drop =
        static_cast<size_t>(std::min<uint64_t>(chunk.num_rows(), to_drop));
    for (auto& column : chunk.columns) {
      column.erase(column.begin(), column.begin() + drop);
    }
    to_drop -= drop;
  }
  return relation;
}

Result<Relation> ApplyFiltersAndModifiers(Relation relation,
                                          const sparql::Query& query,
                                          const rdf::Dictionary& dictionary,
                                          cluster::CostModel& cost) {
  FilterEvaluator evaluator(dictionary);
  // FILTER constraints, pipelined (no stage boundaries of their own).
  for (const sparql::FilterConstraint& filter : query.filters) {
    PROST_ASSIGN_OR_RETURN(relation,
                           evaluator.ApplyFilter(relation, filter, cost));
  }

  // COUNT aggregates collapse the (filtered) solutions to a single row
  // carrying a virtual integer id; the remaining modifiers reduce to the
  // trivial slice of one row.
  if (query.count.has_value()) {
    return ApplyCountAggregate(relation, *query.count, query.offset, cost);
  }

  // SPARQL evaluation order: ORDER BY sees the *full* solutions (its keys
  // may be dropped by the projection that follows).
  const bool ordered = !query.order_by.empty();
  if (ordered) {
    PROST_ASSIGN_OR_RETURN(
        relation,
        evaluator.ApplyOrderBy(std::move(relation), query.order_by, cost));
  }

  // Projection preserves per-chunk row order (ordered results live in one
  // chunk).
  PROST_ASSIGN_OR_RETURN(
      relation, engine::Project(std::move(relation),
                                query.EffectiveProjection(), cost));
  if (query.distinct) {
    if (ordered) {
      relation = OrderPreservingDistinct(relation, cost);
    } else {
      PROST_ASSIGN_OR_RETURN(relation, engine::Distinct(relation, cost));
    }
  }

  relation = ApplyOffset(std::move(relation), query.offset);
  if (query.limit > 0) {
    relation = engine::Limit(std::move(relation), query.limit);
  }
  return relation;
}

}  // namespace prost::core
