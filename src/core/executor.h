#ifndef PROST_CORE_EXECUTOR_H_
#define PROST_CORE_EXECUTOR_H_

#include <string>
#include <vector>

#include "cluster/cost_model.h"
#include "common/status.h"
#include "core/join_tree.h"
#include "core/property_table.h"
#include "core/vp_store.h"
#include "engine/operators.h"
#include "engine/relation.h"
#include "plan/plan_ir.h"
#include "sparql/algebra.h"

namespace prost::core {

/// Loading-phase report (Table 1 of the paper): how long the simulated
/// cluster spent ingesting, and the storage footprint that resulted.
struct LoadReport {
  double simulated_load_millis = 0;
  double real_load_millis = 0;
  uint64_t input_triples = 0;
  uint64_t input_bytes = 0;
  uint64_t storage_bytes = 0;
};

/// One executed query: the result relation, the simulated cluster time,
/// and the counters explaining it.
struct QueryResult {
  engine::Relation relation;
  double simulated_millis = 0;
  cluster::ExecutionCounters counters;
  std::vector<engine::JoinStrategy> join_strategies;

  uint64_t num_rows() const { return relation.TotalRows(); }
};

/// Interprets a physical plan (plan/plan_ir.h) bottom-up: scans
/// materialize their Join Tree node from storage (evaluating any pushed
/// filters in place), joins fold the children with broadcast/shuffle
/// hash joins — honoring a plan-time resolved strategy when the
/// optimizer set one — and the modifier tail executes node by node.
/// Every plan node maps 1:1 onto an operator span, nested the way the
/// plan nests, so EXPLAIN ANALYZE shows exactly the executed plan.
///
/// `property_table` / `reverse_property_table` may be null when the plan
/// contains no scan of that kind. The cost model must be freshly reset;
/// on return it carries the query's simulated time.
///
/// `exec` (nullable) carries the pool the operators' tasks run on; the
/// result relation and the simulated time are bit-identical at every
/// thread count — parallelism affects wall-clock only.
Result<QueryResult> ExecutePlan(
    const plan::PhysicalPlan& physical, const VpStore& vp,
    const PropertyTable* property_table,
    const PropertyTable* reverse_property_table,
    const engine::JoinOptions& join_options,
    const rdf::Dictionary& dictionary, cluster::CostModel& cost,
    const engine::ExecContext* exec = nullptr);

}  // namespace prost::core

#endif  // PROST_CORE_EXECUTOR_H_
