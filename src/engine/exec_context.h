#ifndef PROST_ENGINE_EXEC_CONTEXT_H_
#define PROST_ENGINE_EXEC_CONTEXT_H_

#include <cstddef>
#include <cstdint>

#include "common/thread_pool.h"

namespace prost::obs {
class QueryProfile;
}  // namespace prost::obs

namespace prost::engine {

/// Rows per morsel when a parallel operator splits a chunk. Small enough
/// that a 9-chunk relation yields many independent tasks, big enough that
/// per-task scheduling cost (one deque pop) is noise.
inline constexpr uint32_t kDefaultMorselRows = 8192;

/// Per-query resource budget, enforced deterministically between plan
/// operators (core/executor.cc): both limits are checked against
/// simulated quantities — intermediate/result row counts and the
/// simulated cluster clock — never against host wall time, so the same
/// query with the same budget either always completes or always fails
/// with the same Status, at any thread count. Zero means unlimited.
/// The serving layer (serve::SessionManager) attaches one per admitted
/// query; direct ProstDb callers run unbudgeted.
struct QueryBudget {
  /// Ceiling on any single operator's output cardinality (result rows
  /// included). Exceeding it fails the query with kResourceExhausted.
  uint64_t max_rows = 0;
  /// Ceiling on the query's simulated time: checked against the cost
  /// model's accounted clock after every operator.
  double max_simulated_millis = 0;

  bool Unlimited() const { return max_rows == 0 && max_simulated_millis == 0; }
};

/// Executor knobs, threaded from ProstDb::Options down to the operators.
struct ExecOptions {
  /// Intra-worker parallelism of the real C++ executor. 1 (the default)
  /// builds no pool: the same task loop every operator uses runs its
  /// tasks inline, one task per chunk or partition. 0 means "use
  /// ClusterConfig::cores_per_worker" (the paper's 6-core workers). This
  /// knob changes wall-clock only — the simulated cluster clock already
  /// models worker parallelism and is charged identically either way.
  uint32_t num_threads = 1;

  /// Rows per task for scans, filters, and join probes when more than one
  /// thread runs them. 0 means kDefaultMorselRows.
  uint32_t morsel_rows = kDefaultMorselRows;
};

/// Per-execution view handed to operators: a (possibly absent) thread
/// pool plus the morsel geometry. Every operator runs its tasks through
/// engine::RunTasks (engine/task_loop.h): on the pool when there is one,
/// inline when the context is null or has no pool. The thread count only
/// sets the task geometry (engine::TaskRows), never the code path.
///
/// The context itself is immutable during execution and owns no locks;
/// shared mutable state inside a parallel region lives behind the pool's
/// ranked mutexes (DESIGN.md §11), and everything the context points at
/// (profile, cost model) stays confined to the coordinating thread.
class ExecContext {
 public:
  ExecContext() = default;
  explicit ExecContext(ThreadPool* pool,
                       uint32_t morsel_rows = kDefaultMorselRows,
                       obs::QueryProfile* profile = nullptr,
                       const QueryBudget* budget = nullptr)
      : pool_(pool),
        morsel_rows_(morsel_rows == 0 ? kDefaultMorselRows : morsel_rows),
        profile_(profile),
        budget_(budget) {}

  ThreadPool* pool() const { return pool_; }

  /// Per-query budget, or null (unlimited). Checked by the executor on
  /// the coordinating thread between operators.
  const QueryBudget* budget() const { return budget_; }

  /// Observability sink, or null when profiling is off. Spans are opened
  /// and closed on the coordinating thread only (the same contract the
  /// CostModel already imposes on Charge* calls).
  obs::QueryProfile* profile() const { return profile_; }
  uint32_t num_threads() const {
    return pool_ != nullptr ? pool_->num_threads() : 1;
  }
  uint32_t morsel_rows() const { return morsel_rows_; }

 private:
  ThreadPool* pool_ = nullptr;
  uint32_t morsel_rows_ = kDefaultMorselRows;
  obs::QueryProfile* profile_ = nullptr;
  const QueryBudget* budget_ = nullptr;
};

/// The budget carried by `exec`, or null (unlimited).
inline const QueryBudget* BudgetOf(const ExecContext* exec) {
  return exec != nullptr ? exec->budget() : nullptr;
}

/// The profiling sink carried by `exec`, or null (profiling off).
inline obs::QueryProfile* ProfileOf(const ExecContext* exec) {
  return exec != nullptr ? exec->profile() : nullptr;
}

}  // namespace prost::engine

#endif  // PROST_ENGINE_EXEC_CONTEXT_H_
