#ifndef PROST_CORE_MODIFIERS_H_
#define PROST_CORE_MODIFIERS_H_

#include <memory>
#include <vector>

#include "cluster/cost_model.h"
#include "common/status.h"
#include "engine/relation.h"
#include "rdf/dictionary.h"
#include "sparql/algebra.h"

namespace prost::core {

/// Row-level FILTER and ORDER BY evaluation with SPARQL comparison
/// semantics. Comparison follows SPARQL's operator mapping
/// pragmatically: numeric when both sides are numeric literals
/// (xsd integer/decimal/double/float), term equality for `=`/`!=`
/// otherwise, and lexical-form ordering for `<`/`<=`/`>`/`>=` on
/// non-numeric terms.
///
/// One evaluator holds one memoizing id → comparison-key cache over the
/// shared dictionary, reused across every filter and sort key of a
/// query. Not thread-safe; emits no spans of its own (callers wrap each
/// call in the span naming their plan node).
class FilterEvaluator {
 public:
  explicit FilterEvaluator(const rdf::Dictionary& dictionary);
  ~FilterEvaluator();
  FilterEvaluator(const FilterEvaluator&) = delete;
  FilterEvaluator& operator=(const FilterEvaluator&) = delete;

  /// Applies one FILTER constraint row by row. Preserves hash
  /// partitioning.
  Result<engine::Relation> ApplyFilter(const engine::Relation& input,
                                       const sparql::FilterConstraint& filter,
                                       cluster::CostModel& cost);

  /// Driver-side stable ORDER BY (like Spark's collect for ordered
  /// results), materializing the sorted rows into chunk 0.
  Result<engine::Relation> ApplyOrderBy(
      engine::Relation relation, const std::vector<sparql::OrderKey>& keys,
      cluster::CostModel& cost);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// True when `filter` pins its variable to exactly one stored term id —
/// i.e. it is `?var = <non-numeric constant>` — making it usable as a
/// paged-scan pruning hint (core::ScanEqualityHint). `*id` receives the
/// constant's dictionary id, or rdf::kNullTermId when the constant is
/// not interned (then no stored row can satisfy the filter at all).
///
/// Numeric-literal constants never qualify: SPARQL numeric equality is
/// value-based ("1"^^xsd:integer equals "01"^^xsd:integer under a
/// different id), so rows with other ids could still pass the filter.
bool FilterEqualityPruneId(const sparql::FilterConstraint& filter,
                           const rdf::Dictionary& dictionary,
                           rdf::TermId* id);

/// Collapses the solutions to one COUNT / COUNT DISTINCT row carrying a
/// virtual integer id. A non-zero OFFSET slices the single row away, so
/// it folds in here and the plan needs no node after the aggregate.
Result<engine::Relation> ApplyCountAggregate(
    const engine::Relation& relation, const sparql::CountAggregate& count,
    uint64_t offset, cluster::CostModel& cost);

/// Order-preserving DISTINCT on the driver (the engine's distributed
/// DISTINCT would destroy an ORDER BY's ordering); result in chunk 0.
engine::Relation OrderPreservingDistinct(const engine::Relation& relation,
                                         cluster::CostModel& cost);

/// Drops the first `offset` rows in collection order. A free slice: no
/// simulated charge, like engine::Limit.
engine::Relation ApplyOffset(engine::Relation relation, uint64_t offset);

/// Rya's modifier tail, and Rya is its only caller: applies a query's
/// FILTERs and solution modifiers to the relation Rya's index
/// nested-loop join bound, in SPARQL evaluation order — FILTER → ORDER
/// BY → projection → DISTINCT → OFFSET → LIMIT, or COUNT (see
/// ApplyCountAggregate) after FILTER. ORDER BY runs before the
/// projection because its keys may be variables the projection drops,
/// and materializes the result on the driver into chunk 0.
///
/// PRoST, S2RDF and SPARQLGX run the same steps as plan nodes
/// (plan/planner.h) through the helpers above. Rya's bound relation
/// comes from no Join Tree scan, so it cannot be a plan leaf.
Result<engine::Relation> ApplyFiltersAndModifiers(
    engine::Relation relation, const sparql::Query& query,
    const rdf::Dictionary& dictionary, cluster::CostModel& cost);

}  // namespace prost::core

#endif  // PROST_CORE_MODIFIERS_H_
