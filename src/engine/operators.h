#ifndef PROST_ENGINE_OPERATORS_H_
#define PROST_ENGINE_OPERATORS_H_

#include <string>
#include <vector>

#include "cluster/cost_model.h"
#include "common/status.h"
#include "engine/exec_context.h"
#include "engine/relation.h"

namespace prost::engine {

/// Which physical strategy a join uses. The plan decides it, once:
/// JoinStrategyPass resolves it at plan time, or the executor resolves it
/// from the plan's sizes when that pass is off; HashJoin only executes it.
enum class JoinStrategy {
  kBroadcast,
  kShuffle,
};

/// Planner size of a derived relation whose size is unknown. Spark 2.1
/// treats join outputs as enormous, so they never broadcast.
inline constexpr uint64_t kUnknownPlannerBytes = ~0ull;

/// Join-strategy knobs — the engine's stand-in for Catalyst's physical
/// planning (§3.3: "the optimizer can choose the type of joins to perform,
/// for example if one of the relations involved is small, a broadcast join
/// will be performed"). The A2/A3 flags here are part of the ablation
/// matrix documented in DESIGN.md §4.
struct JoinOptions {
  /// Disables broadcast joins entirely (A2 ablation; also the SPARQLGX
  /// baseline, which joins plain RDDs without Catalyst).
  bool allow_broadcast = true;

  /// When true, a side that is already hash-partitioned on the join key
  /// skips its shuffle. Spark 2.1 gets no such guarantee from
  /// subject-partitioned Parquet files (PRoST does not use bucketing), so
  /// the faithful default is false; the A3 ablation bench shows what
  /// partitioning-aware planning would buy.
  bool reuse_partitioning = false;
};

/// One join's resolved physical plan: everything HashJoin executes.
struct JoinDecision {
  JoinStrategy strategy = JoinStrategy::kShuffle;
  /// Broadcast only: true when the left input ships to every worker.
  bool broadcast_left = false;
  /// Shuffle only: an input already hash-partitioned on the join key
  /// skips its exchange (JoinOptions::reuse_partitioning).
  bool reuse_partitioning = false;

  bool operator==(const JoinDecision&) const = default;
};

/// The one join decision rule, shared by the plan-time JoinStrategyPass,
/// the executor (for plans that pass did not resolve), the join-order
/// cost model and the baselines: broadcast when allowed and the smaller
/// side's planner size (plan::PlanNode::planner_bytes) is at or below
/// the cluster's broadcast_threshold_bytes. The smaller side ships, the
/// left one on a tie. kUnknownPlannerBytes never broadcasts.
JoinDecision ResolveJoinStrategy(uint64_t left_planner_bytes,
                                 uint64_t right_planner_bytes,
                                 const JoinOptions& options,
                                 const cluster::ClusterConfig& config);

/// Hash equi-join on all column names shared between `left` and `right`,
/// executed as `decision` says. Errors if they share no column (the Join
/// Tree translator never emits cross products).
///
/// Stage protocol (Spark pipelining): the caller keeps one stage open for
/// the whole query pipeline. A *broadcast* join charges its work into the
/// open stage — in Spark it does not introduce a stage boundary. A
/// *shuffle* join closes the open stage (the map side ends there), opens
/// a new one carrying the shuffle transfer and the build/probe work, and
/// leaves it open for downstream operators.
///
/// The probe writes its output exactly once: each probe task first
/// counts its verified matches; the counts, summed over every task, size
/// each output column once; then each task fills its own rows. When the
/// summed count exceeds the query's QueryBudget::max_rows (`exec`'s
/// budget), the join fails with kResourceExhausted before any output
/// column is allocated, with the same status at every thread count.
///
/// Output order is deterministic regardless of `exec`: within each output
/// chunk, rows are ordered by (probe row, build row). A broadcast join
/// builds one index over the shipped side, hash-partitioned into one part
/// per thread, and probes the other side one task per morsel. A shuffle
/// join builds one table per co-located partition and probes each
/// partition's rows, one task per morsel, against its own table. Either
/// way the output columns are left-major.
Result<Relation> HashJoin(const Relation& left, const Relation& right,
                          const JoinDecision& decision,
                          cluster::CostModel& cost,
                          const ExecContext* exec = nullptr);

/// Keeps only `column_names`, in that order. Duplicate and unknown names
/// are errors. It charges one CPU row per input row on each chunk's
/// worker, then hands the kept columns over through PruneColumns: the
/// output owns the input's buffers and copies no row. Callers pass
/// `std::move(relation)` (tools/lint.py `whole-result-copy`).
Result<Relation> Project(Relation input,
                         const std::vector<std::string>& column_names,
                         cluster::CostModel& cost);

/// Moves the columns named in `keep` (each an input column, at most once)
/// into that order and drops the rest; a column keeps its buffer. Unlike
/// Project this is free — no CPU charge, no span: it models the
/// optimizer's early projection, where the pruned columns are simply
/// never materialized into the next exchange, and gives a broadcast
/// join's output its left-major order. The hash-partition column is
/// remapped by name.
Relation PruneColumns(Relation&& input, const std::vector<std::string>& keep);

/// Removes duplicate rows globally (shuffles by row hash, then dedupes
/// per worker). `exec` is only consulted for its profiling sink.
Result<Relation> Distinct(const Relation& input, cluster::CostModel& cost,
                          const ExecContext* exec = nullptr);

/// Keeps at most `limit` rows (driver-side truncation after collect; the
/// paper's WatDiv queries do not push limits down): the first chunks'
/// rows, each chunk truncated in place. Callers pass `std::move(relation)`
/// (tools/lint.py `whole-result-copy`).
Relation Limit(Relation input, uint64_t limit);

/// Re-distributes `input` so rows with equal values in `column_index` land
/// on the same worker, and charges the shuffle. It always moves: HashJoin
/// decides when an already placed side may skip its exchange.
/// One task per morsel buckets rows, then one task per target assembles
/// its chunk in source chunk order, then source row order.
Relation RepartitionByColumn(const Relation& input, int column_index,
                             uint32_t num_workers,
                             cluster::CostModel& cost,
                             const ExecContext* exec = nullptr);

}  // namespace prost::engine

#endif  // PROST_ENGINE_OPERATORS_H_
