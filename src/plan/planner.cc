#include "plan/planner.h"

#include <utility>

namespace prost::plan {
namespace {

/// Planner-visible scan size for one Join Tree node, from storage
/// statistics (the size its joins' decisions are resolved from).
Result<uint64_t> NodePlannerBytes(const core::JoinTreeNode& node,
                                  const PlannerInputs& inputs) {
  switch (node.kind) {
    case core::NodeKind::kVerticalPartitioning:
      if (inputs.vp == nullptr) return uint64_t{0};
      return inputs.vp->ScanPlannerBytes(node.patterns[0].predicate);
    case core::NodeKind::kPropertyTable: {
      if (inputs.property_table == nullptr) {
        return Status::Internal("join tree has a PT node but no PT");
      }
      std::vector<core::PropertyTable::ColumnPattern> patterns;
      patterns.reserve(node.patterns.size());
      for (const core::NodePattern& p : node.patterns) {
        patterns.push_back({p.predicate, p.object});
      }
      return inputs.property_table->ScanPlannerBytes(patterns);
    }
    case core::NodeKind::kReversePropertyTable: {
      if (inputs.reverse_property_table == nullptr) {
        return Status::Internal("join tree has an RPT node but no RPT");
      }
      std::vector<core::PropertyTable::ColumnPattern> patterns;
      patterns.reserve(node.patterns.size());
      for (const core::NodePattern& p : node.patterns) {
        patterns.push_back({p.predicate, p.subject});
      }
      return inputs.reverse_property_table->ScanPlannerBytes(patterns);
    }
  }
  return Status::Internal("unknown join tree node kind");
}

}  // namespace

Result<PhysicalPlan> BuildPlan(const core::JoinTree& tree,
                               const sparql::Query& query,
                               const PlannerInputs& inputs) {
  if (tree.nodes.empty()) {
    return Status::InvalidArgument("empty join tree");
  }

  std::unique_ptr<PlanNode> root;
  for (const core::JoinTreeNode& node : tree.nodes) {
    PROST_ASSIGN_OR_RETURN(uint64_t planner_bytes,
                           NodePlannerBytes(node, inputs));
    std::unique_ptr<PlanNode> scan =
        PlanBuilder::MakeScan(node, planner_bytes);
    if (root == nullptr) {
      root = std::move(scan);
    } else {
      PROST_ASSIGN_OR_RETURN(
          root, PlanBuilder::MakeHashJoin(std::move(root), std::move(scan)));
    }
  }

  // Modifier tail, in the order ApplyFiltersAndModifiers evaluates it.
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
