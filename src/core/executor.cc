#include "core/executor.h"

#include "common/str_util.h"
#include "core/modifiers.h"
#include "obs/trace.h"

// Paranoid self-checks at operator boundaries: always on in debug builds,
// and in release builds when the tree is compiled with sanitizers
// (PROST_PARANOID_CHECKS comes from the PROST_ASAN/PROST_UBSAN options).
#if defined(PROST_PARANOID_CHECKS) || !defined(NDEBUG)
#define PROST_VALIDATE_RELATION(relation) \
  PROST_RETURN_IF_ERROR((relation).Validate())
#else
#define PROST_VALIDATE_RELATION(relation) \
  do {                                    \
  } while (false)
#endif

namespace prost::core {
namespace {

Result<engine::Relation> ScanNode(const JoinTreeNode& node, const VpStore& vp,
                                  const PropertyTable* property_table,
                                  const PropertyTable* reverse_property_table,
                                  cluster::CostModel& cost,
                                  const engine::ExecContext* exec,
                                  const ScanHints* hints,
                                  ScanTelemetry* telemetry) {
  switch (node.kind) {
    case NodeKind::kVerticalPartitioning:
      return vp.Scan(node.patterns[0].predicate, node.patterns[0].subject,
                     node.patterns[0].object, cost, exec, hints, telemetry);
    case NodeKind::kPropertyTable: {
      if (property_table == nullptr) {
        return Status::Internal("join tree has a PT node but no PT");
      }
      std::vector<PropertyTable::ColumnPattern> patterns;
      patterns.reserve(node.patterns.size());
      for (const NodePattern& p : node.patterns) {
        patterns.push_back({p.predicate, p.object});
      }
      return property_table->Scan(node.patterns[0].subject, patterns, cost,
                                  exec, hints, telemetry);
    }
    case NodeKind::kReversePropertyTable: {
      if (reverse_property_table == nullptr) {
        return Status::Internal("join tree has an RPT node but no RPT");
      }
      std::vector<PropertyTable::ColumnPattern> patterns;
      patterns.reserve(node.patterns.size());
      for (const NodePattern& p : node.patterns) {
        patterns.push_back({p.predicate, p.subject});
      }
      return reverse_property_table->Scan(node.patterns[0].object, patterns,
                                          cost, exec, hints, telemetry);
    }
  }
  return Status::Internal("unknown node kind");
}

/// Input row count of a plan scan: the stored table it reads.
uint64_t NodeInputRows(const JoinTreeNode& node, const VpStore& vp,
                       const PropertyTable* property_table,
                       const PropertyTable* reverse_property_table) {
  switch (node.kind) {
    case NodeKind::kVerticalPartitioning: {
      const VpStore::PredicateTable* table =
          vp.Find(node.patterns[0].predicate);
      return table != nullptr ? table->total_rows : 0;
    }
    case NodeKind::kPropertyTable:
      return property_table != nullptr ? property_table->num_rows() : 0;
    case NodeKind::kReversePropertyTable:
      return reverse_property_table != nullptr
                 ? reverse_property_table->num_rows()
                 : 0;
  }
  return 0;
}

/// Recursive plan walker. Spans open pre-order (a node's span brackets
/// its children), so the recorded span tree mirrors the plan DAG; the
/// clock-charge order over the left-deep join chain is identical to the
/// classic fold (scan, scan, join, scan, join, ...).
class PlanInterpreter {
 public:
  PlanInterpreter(const VpStore& vp, const PropertyTable* property_table,
                  const PropertyTable* reverse_property_table,
                  const engine::JoinOptions& join_options,
                  const rdf::Dictionary& dictionary, cluster::CostModel& cost,
                  const engine::ExecContext* exec)
      : vp_(vp),
        property_table_(property_table),
        reverse_property_table_(reverse_property_table),
        join_options_(join_options),
        dictionary_(dictionary),
        filters_(dictionary),
        cost_(cost),
        exec_(exec),
        profile_(engine::ProfileOf(exec)) {}

  Result<engine::Relation> Exec(const plan::PlanNode& node) {
    PROST_ASSIGN_OR_RETURN(engine::Relation relation, Dispatch(node));
    // Budget enforcement is deterministic by construction: it compares
    // simulated quantities (operator cardinality, the accounted cluster
    // clock) on the coordinating thread, so a budgeted query fails (or
    // not) identically at any thread count and under any concurrency.
    const engine::QueryBudget* budget = engine::BudgetOf(exec_);
    if (budget != nullptr) {
      if (budget->max_rows > 0 && relation.TotalRows() > budget->max_rows) {
        return Status::ResourceExhausted(StrFormat(
            "query row budget exceeded: %s produced %llu rows (budget %llu)",
            node.Label().c_str(),
            static_cast<unsigned long long>(relation.TotalRows()),
            static_cast<unsigned long long>(budget->max_rows)));
      }
      if (budget->max_simulated_millis > 0 &&
          cost_.AccountedMillis() > budget->max_simulated_millis) {
        return Status::ResourceExhausted(StrFormat(
            "query simulated-time budget exceeded after %s: %.3f ms "
            "accounted (budget %.3f ms)",
            node.Label().c_str(), cost_.AccountedMillis(),
            budget->max_simulated_millis));
      }
    }
    return relation;
  }

  Result<engine::Relation> Dispatch(const plan::PlanNode& node) {
    switch (node.kind) {
      case plan::PlanNodeKind::kVpScan:
      case plan::PlanNodeKind::kPtScan:
        return ExecScan(static_cast<const plan::ScanNodeBase&>(node));
      case plan::PlanNodeKind::kHashJoin:
        return ExecJoin(static_cast<const plan::HashJoinNode&>(node));
      case plan::PlanNodeKind::kFilter:
        return ExecFilter(static_cast<const plan::FilterNode&>(node));
      case plan::PlanNodeKind::kProject:
        return ExecProject(static_cast<const plan::ProjectNode&>(node));
      case plan::PlanNodeKind::kOrderBy:
        return ExecOrderBy(static_cast<const plan::OrderByNode&>(node));
      case plan::PlanNodeKind::kAggregate:
        return ExecAggregate(static_cast<const plan::AggregateNode&>(node));
      case plan::PlanNodeKind::kDistinct:
        return ExecDistinct(static_cast<const plan::DistinctNode&>(node));
      case plan::PlanNodeKind::kLimit:
        return ExecLimit(static_cast<const plan::LimitNode&>(node));
    }
    return Status::Internal("unknown plan node kind");
  }

  std::vector<engine::JoinStrategy> TakeStrategies() {
    return std::move(strategies_);
  }

 private:
  Result<engine::Relation> ExecScan(const plan::ScanNodeBase& node) {
    obs::OperatorSpan span(profile_, cost_, obs::SpanKind::kScan,
                           node.source.Label());
    span.SetDetail(NodeKindToString(node.source.kind));
    span.SetEstimatedRows(node.estimated_rows);
    span.SetRowsIn(NodeInputRows(node.source, vp_, property_table_,
                                 reverse_property_table_));
    // Equality pushed filters double as paged-scan pruning hints: the
    // scan may skip row groups / partitions whose zone maps or bloom
    // filters exclude the constant, because those rows would be dropped
    // by the very filters applied below.
    ScanHints hints;
    for (const sparql::FilterConstraint& filter : node.pushed_filters) {
      rdf::TermId id = rdf::kNullTermId;
      if (FilterEqualityPruneId(filter, dictionary_, &id)) {
        hints.equals.push_back({filter.variable, id});
      }
    }
    ScanTelemetry telemetry;
    PROST_ASSIGN_OR_RETURN(
        engine::Relation relation,
        ScanNode(node.source, vp_, property_table_, reverse_property_table_,
                 cost_, exec_, &hints, &telemetry));
    if (telemetry.row_groups_total > 0) {
      // The scan read row groups: surface estimate-vs-actual and skips
      // in EXPLAIN ANALYZE.
      span.SetStorage(relation.planner_bytes_raw(),
                      telemetry.row_groups_skipped,
                      telemetry.partitions_skipped);
    }
    // Pushed-down constant filters evaluate right here, inside the scan's
    // span, before anything is joined or shuffled.
    for (const sparql::FilterConstraint& filter : node.pushed_filters) {
      obs::OperatorSpan filter_span(profile_, cost_, obs::SpanKind::kFilter,
                                    "?" + filter.variable);
      filter_span.SetDetail("pushed");
      filter_span.SetRowsIn(relation.TotalRows());
      PROST_ASSIGN_OR_RETURN(relation,
                             filters_.ApplyFilter(relation, filter, cost_));
      filter_span.SetRowsOut(relation.TotalRows());
    }
    span.SetRowsOut(relation.TotalRows());
    PROST_VALIDATE_RELATION(relation);
    return relation;
  }

  Result<engine::Relation> ExecJoin(const plan::HashJoinNode& node) {
    obs::OperatorSpan span(profile_, cost_, obs::SpanKind::kJoin,
                           node.Label());
    span.SetEstimatedRows(node.estimated_rows);
    PROST_ASSIGN_OR_RETURN(engine::Relation left, Exec(*node.children[0]));
    PROST_ASSIGN_OR_RETURN(engine::Relation right, Exec(*node.children[1]));
    span.SetRowsIn(left.TotalRows() + right.TotalRows());
    engine::JoinOptions options = join_options_;
    options.planned_strategy = node.strategy;
    PROST_ASSIGN_OR_RETURN(
        engine::JoinResult joined,
        engine::HashJoin(left, right, options, cost_, exec_));
    span.SetDetail(joined.strategy == engine::JoinStrategy::kBroadcast
                       ? "broadcast"
                       : "shuffle");
    span.SetRowsOut(joined.relation.TotalRows());
    strategies_.push_back(joined.strategy);
    // The join_order pass stamps exact star intermediates with a planner
    // size; carrying it onto the relation lets the join above broadcast
    // this output, and keeps the run-time strategy derivation identical
    // to the one the join_strategy pass took from these plan nodes.
    if (node.planner_bytes != engine::Relation::kUnknownPlannerBytes) {
      joined.relation.set_planner_bytes(node.planner_bytes);
    }
    PROST_VALIDATE_RELATION(joined.relation);
    return std::move(joined.relation);
  }

  Result<engine::Relation> ExecFilter(const plan::FilterNode& node) {
    obs::OperatorSpan span(profile_, cost_, obs::SpanKind::kFilter,
                           node.Label());
    span.SetDetail("FILTER");
    span.SetEstimatedRows(node.estimated_rows);
    PROST_ASSIGN_OR_RETURN(engine::Relation relation, Exec(*node.children[0]));
    span.SetRowsIn(relation.TotalRows());
    PROST_ASSIGN_OR_RETURN(
        relation, filters_.ApplyFilter(relation, node.constraint, cost_));
    span.SetRowsOut(relation.TotalRows());
    return relation;
  }

  Result<engine::Relation> ExecProject(const plan::ProjectNode& node) {
    obs::OperatorSpan span(profile_, cost_, obs::SpanKind::kProject,
                           node.Label());
    if (node.optimizer_inserted) span.SetDetail("prune");
    PROST_ASSIGN_OR_RETURN(engine::Relation relation, Exec(*node.children[0]));
    span.SetRowsIn(relation.TotalRows());
    span.SetRowsOut(relation.TotalRows());
    if (node.optimizer_inserted) {
      // Zero-cost column drop: no charge, planner size flows through.
      relation = engine::PruneColumns(std::move(relation), node.columns);
      return relation;
    }
    PROST_ASSIGN_OR_RETURN(
        relation, engine::Project(relation, node.columns, cost_, exec_));
    return relation;
  }

  Result<engine::Relation> ExecOrderBy(const plan::OrderByNode& node) {
    obs::OperatorSpan span(profile_, cost_, obs::SpanKind::kOrderBy,
                           node.Label());
    PROST_ASSIGN_OR_RETURN(engine::Relation relation, Exec(*node.children[0]));
    span.SetRowsIn(relation.TotalRows());
    span.SetRowsOut(relation.TotalRows());
    return filters_.ApplyOrderBy(std::move(relation), node.keys, cost_);
  }

  Result<engine::Relation> ExecAggregate(const plan::AggregateNode& node) {
    obs::OperatorSpan span(profile_, cost_, obs::SpanKind::kAggregate,
                           node.Label());
    span.SetDetail(node.count.distinct ? "COUNT DISTINCT" : "COUNT");
    PROST_ASSIGN_OR_RETURN(engine::Relation relation, Exec(*node.children[0]));
    span.SetRowsIn(relation.TotalRows());
    PROST_ASSIGN_OR_RETURN(
        relation,
        ApplyCountAggregate(relation, node.count, node.offset, cost_));
    span.SetRowsOut(relation.TotalRows());
    return relation;
  }

  Result<engine::Relation> ExecDistinct(const plan::DistinctNode& node) {
    obs::OperatorSpan span(profile_, cost_, obs::SpanKind::kDistinct,
                           node.Label());
    if (node.order_preserving) span.SetDetail("order-preserving");
    PROST_ASSIGN_OR_RETURN(engine::Relation relation, Exec(*node.children[0]));
    span.SetRowsIn(relation.TotalRows());
    if (node.order_preserving) {
      relation = OrderPreservingDistinct(relation, cost_);
    } else {
      PROST_ASSIGN_OR_RETURN(relation,
                             engine::Distinct(relation, cost_, exec_));
    }
    span.SetRowsOut(relation.TotalRows());
    return relation;
  }

  Result<engine::Relation> ExecLimit(const plan::LimitNode& node) {
    obs::OperatorSpan span(profile_, cost_, obs::SpanKind::kLimit,
                           node.Label());
    PROST_ASSIGN_OR_RETURN(engine::Relation relation, Exec(*node.children[0]));
    span.SetRowsIn(relation.TotalRows());
    relation = ApplyOffset(std::move(relation), node.offset);
    if (node.limit > 0) relation = engine::Limit(relation, node.limit);
    span.SetRowsOut(relation.TotalRows());
    return relation;
  }

  const VpStore& vp_;
  const PropertyTable* property_table_;
  const PropertyTable* reverse_property_table_;
  const engine::JoinOptions& join_options_;
  const rdf::Dictionary& dictionary_;
  FilterEvaluator filters_;
  cluster::CostModel& cost_;
  const engine::ExecContext* exec_;
  obs::QueryProfile* profile_;
  std::vector<engine::JoinStrategy> strategies_;
};

}  // namespace

Result<QueryResult> ExecutePlan(
    const plan::PhysicalPlan& physical, const VpStore& vp,
    const PropertyTable* property_table,
    const PropertyTable* reverse_property_table,
    const engine::JoinOptions& join_options,
    const rdf::Dictionary& dictionary, cluster::CostModel& cost,
    const engine::ExecContext* exec) {
  if (physical.root == nullptr) {
    return Status::InvalidArgument("empty physical plan");
  }
  QueryResult result;
  obs::QueryProfile* profile = engine::ProfileOf(exec);
  // The root span brackets every charge (it opens before the query
  // overhead), so summing exclusive span charges reproduces
  // simulated_millis.
  obs::OperatorSpan query_span(profile, cost, obs::SpanKind::kQuery, "");
  cost.ChargeQueryOverhead();

  // One pipeline stage stays open across scans and broadcast joins;
  // shuffle joins and DISTINCT insert their own stage boundaries (Spark's
  // whole-stage pipelining).
  cost.BeginStage("pipeline");
  PlanInterpreter interpreter(vp, property_table, reverse_property_table,
                              join_options, dictionary, cost, exec);
  Result<engine::Relation> executed = interpreter.Exec(*physical.root);
  if (!executed.ok()) {
    cost.EndStage();
    return executed.status();
  }
  PROST_VALIDATE_RELATION(executed.value());
  cost.EndStage();

  result.relation = std::move(executed).value();
  result.simulated_millis = cost.ElapsedMillis();
  result.counters = cost.counters();
  result.join_strategies = interpreter.TakeStrategies();
  query_span.SetRowsOut(result.relation.TotalRows());
  query_span.Close();
  if (profile != nullptr) {
    profile->Finish(result.simulated_millis, result.counters);
  }
  return result;
}

}  // namespace prost::core
