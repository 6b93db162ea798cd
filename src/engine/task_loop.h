#ifndef PROST_ENGINE_TASK_LOOP_H_
#define PROST_ENGINE_TASK_LOOP_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"
#include "engine/exec_context.h"
#include "engine/relation.h"

namespace prost::engine {

/// The one execution shape every scan and operator runs through
/// (DESIGN.md §7): work is split into index-addressed tasks, each task
/// writes only its own output slot, and the caller merges slots in index
/// order. Which thread ran which index never shows in the result, so the
/// same code is bit-identical at every thread count.
///
/// Runs fn(i) exactly once for every i in [0, num_tasks): across the
/// context's pool when it has one, inline in index order otherwise (a
/// null context or a context without a pool). This is the only caller of
/// ThreadPool::ParallelFor under src/ (tools/lint.py `parallel-for`).
void RunTasks(const ExecContext* exec, size_t num_tasks,
              const std::function<void(size_t)>& fn);

/// Most rows one task covers. Task geometry follows the thread count:
/// with several threads it is the context's morsel size; with one thread
/// it is unbounded, so every chunk or partition is a single task whose
/// output moves into place without a copy.
size_t TaskRows(const ExecContext* exec);

/// One task's slice of a chunked input: rows [begin, end) of `chunk`.
struct Morsel {
  uint32_t chunk = 0;
  size_t begin = 0;
  size_t end = 0;
};

/// Splits chunk c's rows [0, chunk_rows[c]) into morsels of at most
/// TaskRows(exec) rows, in (chunk, begin) order. Empty chunks yield none.
std::vector<Morsel> PlanMorsels(const std::vector<size_t>& chunk_rows,
                                const ExecContext* exec);
std::vector<Morsel> PlanMorsels(const Relation& relation,
                                const ExecContext* exec);

/// Runs fn(m, out) for every morsel as one task, each into a private
/// chunk of output.num_columns() columns, then appends every task's rows
/// to output chunk morsels[m].chunk in morsel order — the row order of a
/// sequential loop. A chunk's first task output is moved, not copied.
/// Returns the first failure in morsel order; `output` is unspecified
/// then.
Status RunMorsels(const ExecContext* exec, const std::vector<Morsel>& morsels,
                  const std::function<Status(size_t, RelationChunk&)>& fn,
                  Relation& output);

}  // namespace prost::engine

#endif  // PROST_ENGINE_TASK_LOOP_H_
