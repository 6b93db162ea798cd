#ifndef PROST_PLAN_PLANNER_H_
#define PROST_PLAN_PLANNER_H_

#include "common/status.h"
#include "core/join_tree.h"
#include "core/property_table.h"
#include "core/scan_support.h"
#include "core/vp_store.h"
#include "plan/plan_ir.h"
#include "sparql/algebra.h"

namespace prost::plan {

/// PRoST's scan source: one NodeKind switch maps a VP node to its
/// predicate's table and a PT / RPT node to the (reverse) Property
/// Table, so planner sizes and scans read the same table. A node whose
/// store is missing is an error.
class PlannerInputs final : public core::ScanSource {
 public:
  PlannerInputs() = default;
  PlannerInputs(const core::VpStore* vp_store, const core::PropertyTable* pt,
                const core::PropertyTable* reverse_pt)
      : vp(vp_store), property_table(pt), reverse_property_table(reverse_pt) {}

  const core::VpStore* vp = nullptr;
  const core::PropertyTable* property_table = nullptr;
  const core::PropertyTable* reverse_property_table = nullptr;

  /// The base table's serialized size (VpStore::ScanTablePlannerBytes,
  /// PropertyTable::ScanPlannerBytes).
  Result<uint64_t> ScanPlannerBytes(
      const core::JoinTreeNode& node) const override;
  uint64_t InputRows(const core::JoinTreeNode& node) const override;
  Result<engine::Relation> Scan(const core::JoinTreeNode& node,
                                cluster::CostModel& cost,
                                const engine::ExecContext* exec,
                                const core::ScanHints* hints,
                                core::ScanTelemetry* telemetry) const override;
};

/// Lowers a Join Tree plus the query's solution modifiers into the
/// initial physical plan: a left-deep join chain over the tree's scans
/// (nodes[0] first, matching the translator's stats ordering), each scan
/// stamped with `source`'s planner bytes, then the modifier tail in
/// SPARQL evaluation order — FILTERs, then either COUNT (the root,
/// folding OFFSET) or ORDER BY → projection → DISTINCT → OFFSET/LIMIT.
/// The result is unoptimized; run it through a PassManager to resolve
/// join strategies, push filters, and prune columns.
Result<PhysicalPlan> BuildPlan(const core::JoinTree& tree,
                               const sparql::Query& query,
                               const core::ScanSource& source);

}  // namespace prost::plan

#endif  // PROST_PLAN_PLANNER_H_
