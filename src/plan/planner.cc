#include "plan/planner.h"

#include <utility>

#include "common/str_util.h"

namespace prost::plan {
namespace {

/// One Join Tree node mapped onto PRoST's stores: the VP table of its one
/// pattern (null for a predicate the data lacks), or a (reverse)
/// Property Table with the node's key term and one column pattern per
/// triple pattern.
struct StoreScan {
  const core::VpStore::PredicateTable* vp_table = nullptr;
  const core::PropertyTable* table = nullptr;
  const core::PatternTerm* key = nullptr;
  std::vector<core::PropertyTable::ColumnPattern> columns;
};

Result<StoreScan> Resolve(const core::JoinTreeNode& node,
                          const PlannerInputs& inputs) {
  StoreScan scan;
  switch (node.kind) {
    case core::NodeKind::kVerticalPartitioning:
      if (inputs.vp == nullptr) {
        return Status::Internal("join tree has a VP node but no VP store");
      }
      scan.vp_table = inputs.vp->Find(node.patterns[0].predicate);
      return scan;
    case core::NodeKind::kPropertyTable:
      scan.table = inputs.property_table;
      break;
    case core::NodeKind::kReversePropertyTable:
      scan.table = inputs.reverse_property_table;
      break;
  }
  const char* kind = core::NodeKindToString(node.kind);
  if (scan.table == nullptr) {
    return Status::Internal(
        StrFormat("join tree has a %s node but no %s", kind, kind));
  }
  // The reverse table is keyed on the object; its columns hold subjects.
  const bool reverse = node.kind == core::NodeKind::kReversePropertyTable;
  scan.key = reverse ? &node.patterns[0].object : &node.patterns[0].subject;
  for (const core::NodePattern& p : node.patterns) {
    scan.columns.push_back({p.predicate, reverse ? p.subject : p.object});
  }
  return scan;
}

}  // namespace

Result<uint64_t> PlannerInputs::ScanPlannerBytes(
    const core::JoinTreeNode& node) const {
  PROST_ASSIGN_OR_RETURN(StoreScan scan, Resolve(node, *this));
  return scan.table != nullptr
             ? scan.table->ScanPlannerBytes(scan.columns)
             : core::VpStore::ScanTablePlannerBytes(scan.vp_table);
}

uint64_t PlannerInputs::InputRows(const core::JoinTreeNode& node) const {
  Result<StoreScan> scan = Resolve(node, *this);
  if (!scan.ok()) return 0;
  if (scan->table != nullptr) return scan->table->num_rows();
  return scan->vp_table != nullptr ? scan->vp_table->total_rows : 0;
}

Result<engine::Relation> PlannerInputs::Scan(
    const core::JoinTreeNode& node, cluster::CostModel& cost,
    const engine::ExecContext* exec, const core::ScanHints* hints,
    core::ScanTelemetry* telemetry) const {
  PROST_ASSIGN_OR_RETURN(StoreScan scan, Resolve(node, *this));
  if (scan.table != nullptr) {
    return scan.table->Scan(*scan.key, scan.columns, cost, exec, hints,
                            telemetry);
  }
  return vp->Scan(node.patterns[0].predicate, node.patterns[0].subject,
                  node.patterns[0].object, cost, exec, hints, telemetry);
}

Result<PhysicalPlan> BuildPlan(const core::JoinTree& tree,
                               const sparql::Query& query,
                               const core::ScanSource& source) {
  if (tree.nodes.empty()) {
    return Status::InvalidArgument("empty join tree");
  }

  std::unique_ptr<PlanNode> root;
  for (const core::JoinTreeNode& node : tree.nodes) {
    PROST_ASSIGN_OR_RETURN(uint64_t planner_bytes,
                           source.ScanPlannerBytes(node));
    std::unique_ptr<PlanNode> scan =
        PlanBuilder::MakeScan(node, planner_bytes);
    if (root == nullptr) {
      root = std::move(scan);
    } else {
      PROST_ASSIGN_OR_RETURN(
          root, PlanBuilder::MakeHashJoin(std::move(root), std::move(scan)));
    }
  }

  // Modifier tail, in SPARQL evaluation order: ORDER BY before the
  // projection, because its keys may be variables the projection drops.
  for (const sparql::FilterConstraint& filter : query.filters) {
    root = PlanBuilder::MakeFilter(std::move(root), filter);
  }
  if (query.count.has_value()) {
    // COUNT is the root: the seed folds OFFSET into the aggregate and
    // ignores ORDER BY / DISTINCT / LIMIT after it.
    root = PlanBuilder::MakeAggregate(std::move(root), *query.count,
                                      query.offset);
    return PhysicalPlan{std::move(root)};
  }
  if (!query.order_by.empty()) {
    root = PlanBuilder::MakeOrderBy(std::move(root), query.order_by);
  }
  root = PlanBuilder::MakeProject(std::move(root),
                                  query.EffectiveProjection(),
                                  /*optimizer_inserted=*/false);
  if (query.distinct) {
    root = PlanBuilder::MakeDistinct(std::move(root),
                                     /*order_preserving=*/
                                     !query.order_by.empty());
  }
  if (query.offset > 0 || query.limit > 0) {
    root = PlanBuilder::MakeLimit(std::move(root), query.offset, query.limit);
  }
  return PhysicalPlan{std::move(root)};
}

}  // namespace prost::plan
