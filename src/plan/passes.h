#ifndef PROST_PLAN_PASSES_H_
#define PROST_PLAN_PASSES_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/config.h"
#include "common/status.h"
#include "engine/operators.h"
#include "plan/plan_ir.h"

namespace prost::stats {
class CardinalityEstimator;
}  // namespace prost::stats

namespace prost::plan {

/// What a pass may consult: the join knobs (A2 ablation / threshold
/// override), the cluster whose broadcast threshold applies, and the
/// store's cardinality estimator (null when the caller has no statistics;
/// the join_order pass then keeps the translator's heuristic order).
struct PassContext {
  engine::JoinOptions join;
  const cluster::ClusterConfig* cluster = nullptr;
  const stats::CardinalityEstimator* estimator = nullptr;
};

/// A rule-based plan rewrite. Passes mutate the plan in place and must
/// keep it executable: the PassManager re-validates invariants after
/// every pass (analysis::CheckPhysicalPlan in paranoid builds).
class OptimizerPass {
 public:
  virtual ~OptimizerPass() = default;

  virtual const char* name() const = 0;
  virtual Status Run(PhysicalPlan& plan, const PassContext& context) = 0;
};

/// Before/after renders of one pass — the EXPLAIN surface for "what did
/// the optimizer do".
struct PassSnapshot {
  std::string pass;
  std::string before;
  std::string after;
};

struct PassManagerOptions {
  /// Record a PassSnapshot per pass (rendering cost; off on the hot
  /// Execute path, on for EXPLAIN and tests).
  bool record_snapshots = false;
  /// Invoked on the plan before the first pass and again after every
  /// pass; any error aborts the pipeline.
  std::function<Status(const PhysicalPlan&)> validate;
};

class PassManager {
 public:
  explicit PassManager(PassManagerOptions options = PassManagerOptions{});

  void AddPass(std::unique_ptr<OptimizerPass> pass);

  /// Runs every pass in registration order. Validation (when configured)
  /// brackets the pipeline: once before the first pass, once after each.
  Status Run(PhysicalPlan& plan, const PassContext& context);

  const std::vector<PassSnapshot>& snapshots() const { return snapshots_; }

 private:
  PassManagerOptions options_;
  std::vector<std::unique_ptr<OptimizerPass>> passes_;
  std::vector<PassSnapshot> snapshots_;
};

/// Splices constant FILTERs out of the modifier tail and into every scan
/// that binds their variable (evaluated right after the scan, below the
/// joins). Variable-vs-variable filters stay in the tail, in order.
std::unique_ptr<OptimizerPass> MakeFilterPushdownPass();

/// Cost-based join reordering. Re-enumerates the join tree over the
/// scan leaves — DPsize over connected subgraphs up to
/// kJoinOrderDpThreshold leaves, greedy operator ordering beyond, none
/// above kJoinOrderMaxLeaves — producing bushy trees costed with the
/// cluster::CostModel recipe
/// (scan + shuffle + broadcast charges) over stats::CardinalityEstimator
/// row estimates. Keeps the translator's heuristic order whenever the
/// model does not predict a strictly cheaper tree, and annotates every
/// node's estimated_rows on the way out. Runs before join-strategy
/// resolution; leaves strategies and downstream passes untouched.
std::unique_ptr<OptimizerPass> MakeJoinOrderPass();

/// Leaf count above which the join_order pass switches from exhaustive
/// DPsize enumeration to greedy operator ordering.
inline constexpr size_t kJoinOrderDpThreshold = 10;

/// Leaf count above which the join_order pass leaves the segment as the
/// translator ordered it (leaf sets are 32-bit masks).
inline constexpr size_t kJoinOrderMaxLeaves = 32;

/// Relative model-cost advantage the enumerated tree must show over the
/// translator's heuristic order before the pass rewrites. Margins below
/// this are estimate noise (constants and cross-star correlations are
/// not priced exactly), where "wins" flip sign at run time as often as
/// not; real improvements clear it by an order of magnitude.
inline constexpr double kJoinOrderRewriteMargin = 0.02;

/// Resolves each join's broadcast/shuffle choice, and the side a
/// broadcast ships, at plan time from the children's planner_bytes, so
/// EXPLAIN shows the strategy before anything executes. Without this
/// pass the executor resolves the same rule over the same sizes.
std::unique_ptr<OptimizerPass> MakeJoinStrategyPass();

/// Inserts zero-cost column prunes below every join input that carries
/// columns nothing downstream reads, shrinking the bytes later shuffles
/// and broadcasts charge.
std::unique_ptr<OptimizerPass> MakeEarlyProjectionPass();

/// Which rewrites run (see the ablation matrix in DESIGN.md §4).
/// All-false reproduces the seed execution path byte for byte.
struct PassOptions {
  bool filter_pushdown = true;
  bool join_order = true;
  bool resolve_join_strategy = true;
  bool early_projection = true;
};

/// Registers the enabled passes in their contract order: pushdown first
/// (filters must settle before the cost model sees leaf selectivities),
/// then cost-based join ordering (the tree shape must be final before
/// strategies bind), then strategy resolution (planner_bytes are fixed
/// from here on), then early projection (prunes never change
/// planner_bytes, so the resolved strategies stay valid).
void AddDefaultPasses(PassManager& manager, const PassOptions& options);

/// An optimized plan plus the per-pass snapshots that produced it.
struct PlannedQuery {
  PhysicalPlan plan;
  std::vector<PassSnapshot> snapshots;
};

}  // namespace prost::plan

#endif  // PROST_PLAN_PASSES_H_
