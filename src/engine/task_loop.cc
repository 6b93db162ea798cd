#include "engine/task_loop.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace prost::engine {

void RunTasks(const ExecContext* exec, size_t num_tasks,
              const std::function<void(size_t)>& fn) {
  ThreadPool* pool = exec != nullptr ? exec->pool() : nullptr;
  if (pool != nullptr) {
    pool->ParallelFor(num_tasks, fn);
    return;
  }
  for (size_t i = 0; i < num_tasks; ++i) fn(i);
}

size_t TaskRows(const ExecContext* exec) {
  if (exec == nullptr || exec->num_threads() <= 1) {
    return std::numeric_limits<size_t>::max();
  }
  return exec->morsel_rows();
}

std::vector<Morsel> PlanMorsels(const std::vector<size_t>& chunk_rows,
                                const ExecContext* exec) {
  const size_t task_rows = TaskRows(exec);
  std::vector<Morsel> morsels;
  for (uint32_t w = 0; w < chunk_rows.size(); ++w) {
    const size_t rows = chunk_rows[w];
    for (size_t begin = 0; begin < rows;) {
      const size_t end = rows - begin <= task_rows ? rows : begin + task_rows;
      morsels.push_back({w, begin, end});
      begin = end;
    }
  }
  return morsels;
}

std::vector<Morsel> PlanMorsels(const Relation& relation,
                                const ExecContext* exec) {
  std::vector<size_t> chunk_rows;
  chunk_rows.reserve(relation.num_chunks());
  for (const RelationChunk& chunk : relation.chunks()) {
    chunk_rows.push_back(chunk.num_rows());
  }
  return PlanMorsels(chunk_rows, exec);
}

Status RunMorsels(const ExecContext* exec, const std::vector<Morsel>& morsels,
                  const std::function<Status(size_t, RelationChunk&)>& fn,
                  Relation& output) {
  std::vector<RelationChunk> outs(morsels.size());
  std::vector<Status> statuses(morsels.size());
  RunTasks(exec, morsels.size(), [&](size_t m) {
    outs[m].columns.resize(output.num_columns());
    statuses[m] = fn(m, outs[m]);
  });
  for (const Status& status : statuses) PROST_RETURN_IF_ERROR(status);
  for (size_t m = 0; m < morsels.size(); ++m) {
    RelationChunk& dst = output.mutable_chunks()[morsels[m].chunk];
    for (size_t c = 0; c < dst.columns.size(); ++c) {
      IdVector& src = outs[m].columns[c];
      if (dst.columns[c].empty()) {
        dst.columns[c] = std::move(src);
      } else {
        dst.columns[c].insert(dst.columns[c].end(), src.begin(), src.end());
      }
      IdVector().swap(src);  // Merged rows leave memory as they land.
    }
  }
  return Status::OK();
}

}  // namespace prost::engine
