#ifndef PROST_PLAN_PLAN_IR_H_
#define PROST_PLAN_PLAN_IR_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/join_tree.h"
#include "engine/operators.h"
#include "engine/relation.h"
#include "sparql/algebra.h"

namespace prost::plan {

/// Physical operator kinds. Scans are Join Tree leaves; everything else
/// is a unary/binary operator over child relations.
enum class PlanNodeKind {
  kVpScan,     // Vertical Partitioning table scan
  kPtScan,     // Property Table scan (forward or reverse, per source.kind)
  kHashJoin,   // hash equi-join (broadcast or shuffle)
  kFilter,     // FILTER constraint kept above the joins
  kProject,    // projection (query tail or optimizer-inserted prune)
  kOrderBy,    // driver-side stable sort
  kAggregate,  // COUNT / COUNT DISTINCT collapse
  kDistinct,   // duplicate elimination
  kLimit,      // OFFSET / LIMIT slice
};

const char* PlanNodeKindName(PlanNodeKind kind);

class PlanBuilder;

/// One node of the typed physical plan: a tree (left-deep under the
/// joins) whose shape maps 1:1 to execution spans. Every node carries its
/// output schema, the §3.3 cardinality estimate (scans only) and the
/// planner's size estimate, from which every join's broadcast/shuffle
/// decision is resolved (engine::ResolveJoinStrategy) — at plan time by
/// JoinStrategyPass, or by the executor when that pass did not run.
///
/// Construction is builder-only (PlanBuilder computes schemas and size
/// rules in one place); tools/lint.py enforces this outside src/plan/.
class PlanNode {
 public:
  virtual ~PlanNode() = default;
  PlanNode(const PlanNode&) = delete;
  PlanNode& operator=(const PlanNode&) = delete;

  /// Short operator identity, e.g. "PT(?v0: <p1>,<p2>)".
  virtual std::string Label() const = 0;

  PlanNodeKind kind;
  /// Output schema: variable names in the order the executed relation
  /// carries its columns.
  std::vector<std::string> output_columns;
  /// §3.3 cardinality estimate; < 0 = unknown (non-scan nodes).
  double estimated_rows = -1;
  /// What the planner believes the output weighs. Scans carry their
  /// storage size; filters and projections pass their child's through
  /// (Spark 2.1 static planning: they do not discount sizeInBytes). Joins
  /// carry kUnknownPlannerBytes (join outputs are not broadcast) unless
  /// the join_order pass stamps an exact size on a provably exact star
  /// intermediate, which joins above may then broadcast.
  uint64_t planner_bytes = engine::kUnknownPlannerBytes;
  std::vector<std::unique_ptr<PlanNode>> children;

 protected:
  explicit PlanNode(PlanNodeKind node_kind) : kind(node_kind) {}
};

/// Common shape of the two scan leaves: the Join Tree node they evaluate
/// plus any constant FILTERs the optimizer pushed below the joins.
class ScanNodeBase : public PlanNode {
 public:
  std::string Label() const override { return source.Label(); }

  core::JoinTreeNode source;
  /// Constant FILTERs pushed into this scan (FilterPushdownPass). They
  /// evaluate on the scan's output with the same TermKey semantics as the
  /// modifier tail, and never discount planner_bytes (static planning).
  std::vector<sparql::FilterConstraint> pushed_filters;

 protected:
  ScanNodeBase(PlanNodeKind node_kind, core::JoinTreeNode node)
      : PlanNode(node_kind), source(std::move(node)) {}
};

class VpScanNode final : public ScanNodeBase {
 private:
  friend class PlanBuilder;
  explicit VpScanNode(core::JoinTreeNode node)
      : ScanNodeBase(PlanNodeKind::kVpScan, std::move(node)) {}
};

/// Covers both the subject-keyed and the reverse (object-keyed) Property
/// Table; `source.kind` tells them apart.
class PtScanNode final : public ScanNodeBase {
 private:
  friend class PlanBuilder;
  explicit PtScanNode(core::JoinTreeNode node)
      : ScanNodeBase(PlanNodeKind::kPtScan, std::move(node)) {}
};

class HashJoinNode final : public PlanNode {
 public:
  std::string Label() const override { return label; }

  /// The right child's label — the Join Tree node folded in at this step,
  /// matching the seed executor's per-join span labels.
  std::string label;
  /// Shared columns joined on, in left-child column order.
  std::vector<std::string> join_columns;
  /// Strategy and broadcast side, resolved by JoinStrategyPass from the
  /// children's planner_bytes. When unset, the executor resolves the same
  /// rule over the same sizes just before the join runs.
  std::optional<engine::JoinDecision> decision;

 private:
  friend class PlanBuilder;
  explicit HashJoinNode(std::string join_label)
      : PlanNode(PlanNodeKind::kHashJoin), label(std::move(join_label)) {}
};

class FilterNode final : public PlanNode {
 public:
  std::string Label() const override { return "?" + constraint.variable; }

  sparql::FilterConstraint constraint;

 private:
  friend class PlanBuilder;
  explicit FilterNode(sparql::FilterConstraint filter)
      : PlanNode(PlanNodeKind::kFilter), constraint(std::move(filter)) {}
};

class ProjectNode final : public PlanNode {
 public:
  std::string Label() const override;

  /// Kept columns, in output order (== output_columns).
  std::vector<std::string> columns;
  /// True for EarlyProjectionPass prunes: executed as a zero-charge
  /// column drop (engine::PruneColumns) instead of a charged projection.
  bool optimizer_inserted = false;

 private:
  friend class PlanBuilder;
  ProjectNode(std::vector<std::string> kept, bool inserted)
      : PlanNode(PlanNodeKind::kProject),
        columns(std::move(kept)),
        optimizer_inserted(inserted) {}
};

class OrderByNode final : public PlanNode {
 public:
  std::string Label() const override { return ""; }

  std::vector<sparql::OrderKey> keys;

 private:
  friend class PlanBuilder;
  explicit OrderByNode(std::vector<sparql::OrderKey> order_keys)
      : PlanNode(PlanNodeKind::kOrderBy), keys(std::move(order_keys)) {}
};

/// COUNT / COUNT DISTINCT. Always the plan root for count queries: the
/// seed semantics fold OFFSET into the aggregate (offset > 0 empties the
/// single-row result) and ignore ORDER BY / DISTINCT / LIMIT after it.
class AggregateNode final : public PlanNode {
 public:
  std::string Label() const override { return count.alias; }

  sparql::CountAggregate count;
  uint64_t offset = 0;

 private:
  friend class PlanBuilder;
  AggregateNode(sparql::CountAggregate aggregate, uint64_t query_offset)
      : PlanNode(PlanNodeKind::kAggregate),
        count(std::move(aggregate)),
        offset(query_offset) {}
};

class DistinctNode final : public PlanNode {
 public:
  std::string Label() const override { return ""; }

  /// Ordered results dedupe on the driver to preserve the sort; unordered
  /// ones use the engine's distributed shuffle DISTINCT.
  bool order_preserving = false;

 private:
  friend class PlanBuilder;
  explicit DistinctNode(bool preserve_order)
      : PlanNode(PlanNodeKind::kDistinct), order_preserving(preserve_order) {}
};

class LimitNode final : public PlanNode {
 public:
  std::string Label() const override;

  uint64_t offset = 0;
  uint64_t limit = 0;  // 0 = no LIMIT (OFFSET only).

 private:
  friend class PlanBuilder;
  LimitNode(uint64_t query_offset, uint64_t query_limit)
      : PlanNode(PlanNodeKind::kLimit),
        offset(query_offset),
        limit(query_limit) {}
};

/// A complete physical plan. ToString renders the tree with each node's
/// strategy / pushed filters / output schema — the EXPLAIN surface.
struct PhysicalPlan {
  std::unique_ptr<PlanNode> root;

  std::string ToString() const;
};

/// The only way to construct plan nodes: schema and planner-size rules
/// live here, in one place, and the plan checker re-derives them the
/// same way.
class PlanBuilder {
 public:
  /// Leaf over a Join Tree node. `planner_bytes` is the storage-derived
  /// scan size (core::ScanSource::ScanPlannerBytes).
  static std::unique_ptr<PlanNode> MakeScan(core::JoinTreeNode source,
                                            uint64_t planner_bytes);

  /// Hash equi-join on every shared column. Errors when the children
  /// share none (the Join Tree translator never emits cross products).
  static Result<std::unique_ptr<PlanNode>> MakeHashJoin(
      std::unique_ptr<PlanNode> left, std::unique_ptr<PlanNode> right);

  static std::unique_ptr<PlanNode> MakeFilter(
      std::unique_ptr<PlanNode> child, sparql::FilterConstraint constraint);
  static std::unique_ptr<PlanNode> MakeProject(
      std::unique_ptr<PlanNode> child, std::vector<std::string> columns,
      bool optimizer_inserted);
  static std::unique_ptr<PlanNode> MakeOrderBy(
      std::unique_ptr<PlanNode> child, std::vector<sparql::OrderKey> keys);
  static std::unique_ptr<PlanNode> MakeAggregate(
      std::unique_ptr<PlanNode> child, sparql::CountAggregate count,
      uint64_t offset);
  static std::unique_ptr<PlanNode> MakeDistinct(
      std::unique_ptr<PlanNode> child, bool order_preserving);
  static std::unique_ptr<PlanNode> MakeLimit(std::unique_ptr<PlanNode> child,
                                             uint64_t offset, uint64_t limit);

  /// Recomputes every output schema bottom-up after a structural rewrite
  /// (EarlyProjectionPass shrinks join inputs, so join outputs shrink
  /// too). Join join_columns are re-derived alongside.
  static void RecomputeSchemas(PlanNode& node);

  /// The scan output schema of a Join Tree node: key variable first, then
  /// each pattern's value variable in pattern order, repeats collapsed —
  /// exactly the VpStore::ScanTable / PropertyTable::Scan layout.
  static std::vector<std::string> ScanOutputColumns(
      const core::JoinTreeNode& node);
};

}  // namespace prost::plan

#endif  // PROST_PLAN_PLAN_IR_H_
