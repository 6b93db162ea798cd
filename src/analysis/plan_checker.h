#ifndef PROST_ANALYSIS_PLAN_CHECKER_H_
#define PROST_ANALYSIS_PLAN_CHECKER_H_

#include "cluster/config.h"
#include "common/status.h"
#include "core/property_table.h"
#include "core/statistics.h"
#include "core/vp_store.h"
#include "plan/plan_ir.h"
#include "rdf/dictionary.h"
#include "sparql/algebra.h"

namespace prost::analysis {

/// What a plan's scans are validated against. Every pointer may be null;
/// each check that needs an absent ingredient is skipped, so callers hand
/// over whatever they have (ProstDb has everything).
struct PlanContext {
  const core::VpStore* vp = nullptr;
  const core::PropertyTable* property_table = nullptr;
  const core::PropertyTable* reverse_property_table = nullptr;
  const core::DatasetStatistics* stats = nullptr;
  const rdf::Dictionary* dictionary = nullptr;
  const cluster::ClusterConfig* cluster = nullptr;
};

/// Once-per-query verification of the scan leaves of a freshly built
/// plan (plan::BuildPlan output). Each scan's `source` is the Join Tree
/// node it evaluates, and no optimizer pass rewrites it, so these checks
/// run once, before the passes:
///   - node shape: non-empty, VP arity 1, PT/RPT patterns share one key
///     term, variable/constant resolution mirrors the source pattern, no
///     literal subjects, at least one bound variable;
///   - coverage: the scans cover each BGP triple pattern exactly once;
///   - storage resolution (needs context.vp): a PT/RPT scan requires that
///     table, each non-null predicate resolves to a VP table or a
///     Property-Table column, and every referenced table is partitioned
///     exactly `cluster.num_workers` ways with per-partition size info;
///   - dictionary agreement (needs context.dictionary): resolved constant
///     ids match the dictionary;
///   - statistics (needs context.stats): each scan's cardinality estimate
///     stays within its statistics upper bound, and VP row counts equal
///     the §3.3 statistics counts (node ordering *and* broadcast
///     eligibility are planned from these numbers, so a disagreement
///     means the optimizer and the executor see different worlds);
///   - join-key type agreement (needs context.stats): a variable bound in
///     subject position, or as the object of an entity-only predicate,
///     can never also be the object of a literal-only predicate.
/// Errors name the offending scan by its left-to-right index and label.
Status CheckScanSources(const plan::PhysicalPlan& physical,
                        const sparql::Query& query,
                        const PlanContext& context);

/// Structural invariants of a physical plan against its query. The
/// PassManager runs this on the freshly built plan and again after every
/// optimizer pass (paranoid / verify_plans builds), so a pass that breaks
/// an invariant is caught before anything executes:
///   - tree shape: scans are leaves, joins binary, everything else unary,
///     COUNT aggregates only at the root;
///   - schemas: every node's output_columns equals the schema re-derived
///     bottom-up from its children (scan layout, join left-major layout,
///     projection lists, COUNT alias);
///   - joins: join_columns is exactly the children's non-empty shared
///     intersection in left order; a join may carry a planner size (the
///     join_order pass stamps one on provably exact star intermediates
///     so joins above can broadcast them) only alongside a cardinality
///     estimate;
///   - projections: no duplicates, all columns bound in the child, and
///     optimizer-inserted prunes preserve the child's column order;
///   - filters: tail and pushed constraints reference bound variables,
///     pushed ones are constant-only, every one comes from the query, and
///     no query filter is lost;
///   - root: its schema is the query's effective projection (COUNT alias
///     for aggregates);
///   - estimates: scan cardinality estimates are finite and non-negative,
///     every other estimate is finite.
Status CheckPhysicalPlan(const plan::PhysicalPlan& physical,
                         const sparql::Query& query);

}  // namespace prost::analysis

#endif  // PROST_ANALYSIS_PLAN_CHECKER_H_
