#ifndef PROST_ENGINE_OPERATORS_H_
#define PROST_ENGINE_OPERATORS_H_

#include <optional>
#include <string>
#include <vector>

#include "cluster/cost_model.h"
#include "common/status.h"
#include "engine/exec_context.h"
#include "engine/relation.h"

namespace prost::engine {

/// Which physical strategy a join uses (resolved at plan time by the
/// optimizer's JoinStrategyPass, or derived inside HashJoin when no plan
/// provided one; exposed for tests and the ablation benches).
enum class JoinStrategy {
  kBroadcast,
  kShuffle,
};

/// Join-strategy knobs — the engine's stand-in for Catalyst's physical
/// planning (§3.3: "the optimizer can choose the type of joins to perform,
/// for example if one of the relations involved is small, a broadcast join
/// will be performed"). The A2/A3 flags here are part of the ablation
/// matrix documented in DESIGN.md §4.
struct JoinOptions {
  /// Relations whose *planner* estimate (Relation::PlannerBytes) is at or
  /// below this are broadcast instead of shuffled. 0 means "use the
  /// cluster config's broadcast_threshold_bytes" (the common case — the
  /// threshold scales with the simulated cluster).
  uint64_t broadcast_threshold_bytes = 0;

  /// Disables broadcast joins entirely (A2 ablation; also the SPARQLGX
  /// baseline, which joins plain RDDs without Catalyst).
  bool allow_broadcast = true;

  /// When true, a side that is already hash-partitioned on the join key
  /// skips its shuffle. Spark 2.1 gets no such guarantee from
  /// subject-partitioned Parquet files (PRoST does not use bucketing), so
  /// the faithful default is false; the A3 ablation bench shows what
  /// partitioning-aware planning would buy.
  bool reuse_partitioning = false;

  /// Strategy pre-resolved by the plan-time optimizer. When set, HashJoin
  /// executes it (and paranoid builds assert it matches what the run-time
  /// derivation would have picked); when unset, HashJoin derives the
  /// strategy itself from the inputs' PlannerBytes.
  std::optional<JoinStrategy> planned_strategy;
};

/// The one broadcast/shuffle decision rule, shared by the plan-time
/// JoinStrategyPass and HashJoin's run-time derivation: broadcast when
/// allowed and the smaller side's planner estimate is at or below the
/// effective threshold.
JoinStrategy ResolveJoinStrategy(uint64_t left_planner_bytes,
                                 uint64_t right_planner_bytes,
                                 const JoinOptions& options,
                                 const cluster::ClusterConfig& config);

struct JoinResult {
  Relation relation;
  JoinStrategy strategy = JoinStrategy::kShuffle;
};

/// Hash equi-join on all column names shared between `left` and `right`.
/// Errors if they share no column (the Join Tree translator never emits
/// cross products).
///
/// Stage protocol (Spark pipelining): the caller keeps one stage open for
/// the whole query pipeline. A *broadcast* join charges its work into the
/// open stage — in Spark it does not introduce a stage boundary. A
/// *shuffle* join closes the open stage (the map side ends there), opens
/// a new one carrying the shuffle transfer and the build/probe work, and
/// leaves it open for downstream operators.
///
/// Output order is deterministic regardless of `exec`: within each output
/// chunk, rows are ordered by (probe row, build row). A broadcast join
/// builds one index over the small side, hash-partitioned into one part
/// per thread, and probes the big side one task per morsel, merged back
/// in morsel order. A shuffle join runs one task per co-located
/// partition that builds and probes that partition's table.
Result<JoinResult> HashJoin(const Relation& left, const Relation& right,
                            const JoinOptions& options,
                            cluster::CostModel& cost,
                            const ExecContext* exec = nullptr);

/// Keeps rows where column `column_name` equals `value`: one task per
/// morsel, merged in morsel order.
Result<Relation> Filter(const Relation& input, const std::string& column_name,
                        TermId value, cluster::CostModel& cost,
                        const ExecContext* exec = nullptr);

/// Keeps only `column_names`, in that order. Duplicate and unknown names
/// are errors. One task per chunk.
Result<Relation> Project(const Relation& input,
                         const std::vector<std::string>& column_names,
                         cluster::CostModel& cost,
                         const ExecContext* exec = nullptr);

/// Drops every column not in `keep` (which must be a subset of the input
/// columns, listed in input order). Unlike Project this is free — no CPU
/// charge, no span: it models the optimizer's early projection, where the
/// pruned columns are simply never materialized into the next exchange.
/// planner_bytes carries over verbatim (static planning: the planner
/// priced the unpruned scan) and the hash-partition column is remapped by
/// name.
Relation PruneColumns(Relation&& input, const std::vector<std::string>& keep);

/// Removes duplicate rows globally (shuffles by row hash, then dedupes
/// per worker). `exec` is only consulted for its profiling sink.
Result<Relation> Distinct(const Relation& input, cluster::CostModel& cost,
                          const ExecContext* exec = nullptr);

/// Keeps at most `limit` rows (driver-side truncation after collect; the
/// paper's WatDiv queries do not push limits down).
Relation Limit(const Relation& input, uint64_t limit);

/// Concatenates two relations with identical column names chunk-wise.
Result<Relation> Union(const Relation& a, const Relation& b);

/// Re-distributes `input` so rows with equal values in `column_index` land
/// on the same worker. Charges shuffle bytes unless already partitioned.
/// One task per morsel buckets rows, then one task per target assembles
/// its chunk in source chunk order, then source row order.
Relation RepartitionByColumn(const Relation& input, int column_index,
                             uint32_t num_workers,
                             cluster::CostModel& cost,
                             const ExecContext* exec = nullptr);

}  // namespace prost::engine

#endif  // PROST_ENGINE_OPERATORS_H_
