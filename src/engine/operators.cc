#include "engine/operators.h"

#include <algorithm>
#include <unordered_set>

#include "common/hash.h"
#include "common/str_util.h"
#include "engine/hash_table.h"
#include "engine/kernels.h"
#include "engine/task_loop.h"
#include "obs/trace.h"

namespace prost::engine {
namespace {

/// Column indices of the shared join variables in each relation, aligned
/// pairwise.
struct SharedColumns {
  std::vector<int> left;
  std::vector<int> right;
};

SharedColumns FindSharedColumns(const Relation& left, const Relation& right) {
  SharedColumns shared;
  for (size_t i = 0; i < left.column_names().size(); ++i) {
    int j = right.ColumnIndex(left.column_names()[i]);
    if (j >= 0) {
      shared.left.push_back(static_cast<int>(i));
      shared.right.push_back(j);
    }
  }
  return shared;
}

/// Output column layout: all of build side, then probe side minus shared.
struct OutputLayout {
  std::vector<std::string> names;
  std::vector<int> probe_extra_cols;  // probe columns not shared
};

OutputLayout MakeOutputLayout(const Relation& build, const Relation& probe,
                              const SharedColumns& shared_build_probe) {
  OutputLayout layout;
  layout.names = build.column_names();
  // Membership test directly on the shared-column vector: joins share at
  // most a handful of columns, so a linear scan beats a heap-allocated
  // set per join call.
  const std::vector<int>& shared_probe = shared_build_probe.right;
  for (size_t j = 0; j < probe.column_names().size(); ++j) {
    if (std::find(shared_probe.begin(), shared_probe.end(),
                  static_cast<int>(j)) == shared_probe.end()) {
      layout.probe_extra_cols.push_back(static_cast<int>(j));
      layout.names.push_back(probe.column_names()[j]);
    }
  }
  return layout;
}

/// Reusable per-task scratch for the vectorized probe loop: batch key
/// hashes plus the candidate (build row, probe row) pair vectors. Reused
/// across batches so steady-state probing allocates nothing.
struct JoinScratch {
  std::vector<uint64_t> hashes;
  std::vector<uint32_t> build_rows;
  std::vector<uint32_t> probe_rows;
};

/// Builds `table` over every row of `build` (hashes computed column-wise
/// into `hash_scratch`). Rows enter in ascending order — the determinism
/// contract every probe path relies on.
void BuildChunkTable(const RelationChunk& build, const std::vector<int>& keys,
                     std::vector<uint64_t>& hash_scratch,
                     FlatHashTable& table) {
  kernels::HashColumns(build, keys, 0, build.num_rows(), hash_scratch);
  table.Build(hash_scratch.data(), build.num_rows());
}

/// The build side hash-partitioned into per-thread partitions, each with
/// its own flat table (built concurrently). A probe row's hash selects
/// exactly one partition, so lookups stay single-table.
struct PartitionedIndex {
  uint32_t fanout = 1;
  std::vector<uint64_t> row_hashes;  // Key hash per build row.
  std::vector<FlatHashTable> parts;

  FlatHashTable::Range Lookup(uint64_t hash) const {
    return parts[hash % fanout].Lookup(hash);
  }
};

PartitionedIndex BuildPartitionedIndex(const RelationChunk& build,
                                       const std::vector<int>& keys,
                                       const ExecContext* exec) {
  PartitionedIndex pidx;
  const size_t rows = build.num_rows();
  pidx.fanout = exec != nullptr ? exec->num_threads() : 1;
  pidx.row_hashes.resize(rows);
  const std::vector<Morsel> morsels = PlanMorsels({rows}, exec);
  // Phase 1, one task per build morsel: hash every row column-wise and
  // bucket row indices by partition, each morsel into its own buffers.
  std::vector<std::vector<uint32_t>> buckets(morsels.size() * pidx.fanout);
  RunTasks(exec, morsels.size(), [&](size_t m) {
    const size_t begin = morsels[m].begin;
    const size_t end = morsels[m].end;
    kernels::HashColumns(build, keys, begin, end,
                         pidx.row_hashes.data() + begin);
    for (size_t r = begin; r < end; ++r) {
      buckets[m * pidx.fanout + pidx.row_hashes[r] % pidx.fanout].push_back(
          static_cast<uint32_t>(r));
    }
  });
  // Phase 2, one task per partition: concatenate its buckets in morsel
  // order — i.e. ascending build-row order — and build its flat table
  // from them, so hash runs carry rows ascending.
  pidx.parts.resize(pidx.fanout);
  RunTasks(exec, pidx.fanout, [&](size_t p) {
    std::vector<uint32_t> part_rows;
    for (size_t m = 0; m < morsels.size(); ++m) {
      std::vector<uint32_t>& bucket = buckets[m * pidx.fanout + p];
      if (part_rows.empty()) {
        part_rows = std::move(bucket);
      } else {
        part_rows.insert(part_rows.end(), bucket.begin(), bucket.end());
      }
    }
    pidx.parts[p].BuildFromRows(part_rows.data(), part_rows.size(),
                                pidx.row_hashes.data());
  });
  return pidx;
}

/// Probes rows [begin, end) of `probe` against `lookup` (hash → ascending
/// build rows), appending matches to `out`. Vectorized: per batch, hash
/// the key columns, collect hash-match candidates, batch-verify keys,
/// then materialize via per-column gathers. Candidates are collected
/// probe-row-major with each run ascending, and verification is stable,
/// so output order is (probe row, build row) — exactly the row-at-a-time
/// order. Returns emitted rows.
template <typename Lookup>
uint64_t ProbeRange(const RelationChunk& build,
                    const std::vector<int>& build_keys,
                    const RelationChunk& probe,
                    const std::vector<int>& probe_keys,
                    const std::vector<int>& probe_extra_cols, size_t begin,
                    size_t end, const Lookup& lookup, RelationChunk& out,
                    JoinScratch& scratch) {
  uint64_t emitted = 0;
  const size_t build_width = build.columns.size();
  for (size_t batch = begin; batch < end; batch += kernels::kBatchRows) {
    const size_t batch_end = std::min(end, batch + kernels::kBatchRows);
    kernels::HashColumns(probe, probe_keys, batch, batch_end,
                         scratch.hashes);
    scratch.build_rows.clear();
    scratch.probe_rows.clear();
    for (size_t i = 0; i < batch_end - batch; ++i) {
      FlatHashTable::Range range = lookup(scratch.hashes[i]);
      for (const uint32_t* br = range.begin; br != range.end; ++br) {
        scratch.build_rows.push_back(*br);
        scratch.probe_rows.push_back(static_cast<uint32_t>(batch + i));
      }
    }
    emitted += kernels::CompareKeysAt(build, build_keys, probe, probe_keys,
                                      scratch.build_rows,
                                      scratch.probe_rows);
    for (size_t c = 0; c < build_width; ++c) {
      kernels::Gather(build.columns[c], scratch.build_rows, out.columns[c]);
    }
    for (size_t k = 0; k < probe_extra_cols.size(); ++k) {
      kernels::Gather(
          probe.columns[static_cast<size_t>(probe_extra_cols[k])],
          scratch.probe_rows, out.columns[build_width + k]);
    }
  }
  return emitted;
}

/// Probe of `probe_rel` against per-chunk build sides, one task per probe
/// morsel. `build_of(chunk)` yields the build chunk to join chunk `chunk`
/// with; `lookup_of(chunk, hash)` its index lookup. Morsel outputs merge
/// back in morsel order, so each output chunk is ordered by (probe row,
/// build row). Cost charging is left to the caller.
template <typename BuildOf, typename LookupOf>
Status Probe(const Relation& probe_rel, const std::vector<int>& probe_keys,
             const std::vector<int>& probe_extra_cols,
             const std::vector<int>& build_keys, const BuildOf& build_of,
             const LookupOf& lookup_of, const ExecContext* exec,
             Relation& output) {
  const std::vector<Morsel> morsels = PlanMorsels(probe_rel, exec);
  return RunMorsels(
      exec, morsels,
      [&](size_t m, RelationChunk& out) {
        const Morsel& morsel = morsels[m];
        auto lookup = [&](uint64_t h) { return lookup_of(morsel.chunk, h); };
        JoinScratch scratch;
        ProbeRange(build_of(morsel.chunk), build_keys,
                   probe_rel.chunks()[morsel.chunk], probe_keys,
                   probe_extra_cols, morsel.begin, morsel.end, lookup, out,
                   scratch);
        return Status::OK();
      },
      output);
}

/// Carries `from`'s hash-partition column over to `to` by name: rows
/// that kept their workers stay co-located on it. -1 when `to` dropped
/// that column or `from` had none.
void KeepPartitionColumn(const Relation& from, Relation& to) {
  to.set_hash_partitioned_by(
      from.hash_partitioned_by() < 0
          ? -1
          : to.ColumnIndex(from.column_names()[static_cast<size_t>(
                from.hash_partitioned_by())]));
}

/// Gathers every row of `relation` into a single chunk (for broadcast).
RelationChunk GatherAll(const Relation& relation) {
  RelationChunk gathered;
  gathered.columns.resize(relation.num_columns());
  for (const RelationChunk& chunk : relation.chunks()) {
    for (size_t c = 0; c < chunk.columns.size(); ++c) {
      gathered.columns[c].insert(gathered.columns[c].end(),
                                 chunk.columns[c].begin(),
                                 chunk.columns[c].end());
    }
  }
  return gathered;
}

}  // namespace

JoinDecision ResolveJoinStrategy(uint64_t left_planner_bytes,
                                 uint64_t right_planner_bytes,
                                 const JoinOptions& options,
                                 const cluster::ClusterConfig& config) {
  const uint64_t smaller = std::min(left_planner_bytes, right_planner_bytes);
  JoinDecision decision;
  decision.reuse_partitioning = options.reuse_partitioning;
  if (options.allow_broadcast && smaller != kUnknownPlannerBytes &&
      smaller <= config.broadcast_threshold_bytes) {
    decision.strategy = JoinStrategy::kBroadcast;
    decision.broadcast_left = left_planner_bytes <= right_planner_bytes;
  }
  return decision;
}

Relation RepartitionByColumn(const Relation& input, int column_index,
                             uint32_t num_workers,
                             cluster::CostModel& cost,
                             const ExecContext* exec) {
  obs::OperatorSpan span(
      ProfileOf(exec), cost, obs::SpanKind::kExchange,
      input.column_names()[static_cast<size_t>(column_index)]);
  span.SetRowsIn(input.TotalRows());
  span.SetRowsOut(input.TotalRows());
  cost.ChargeShuffle(input.EstimatedBytes(cost.config()));
  Relation output(input.column_names(), num_workers);
  // Phase 1, one task per morsel: bucket row indices by target.
  const std::vector<Morsel> morsels = PlanMorsels(input, exec);
  std::vector<std::vector<uint32_t>> buckets(morsels.size() * num_workers);
  RunTasks(exec, morsels.size(), [&](size_t m) {
    const Morsel& morsel = morsels[m];
    const IdVector& keys =
        input.chunks()[morsel.chunk].columns[static_cast<size_t>(column_index)];
    for (size_t r = morsel.begin; r < morsel.end; ++r) {
      const uint32_t target = PartitionOf(keys[r], num_workers);
      buckets[m * num_workers + target].push_back(static_cast<uint32_t>(r));
    }
  });
  // Phase 2, one task per target: assemble each target chunk in morsel
  // order — (source chunk, source row) order. Each bucket is a selection
  // vector into its source chunk, so assembly is a per-column bulk gather.
  RunTasks(exec, num_workers, [&](size_t target) {
    RelationChunk& out = output.mutable_chunks()[target];
    for (size_t m = 0; m < morsels.size(); ++m) {
      const RelationChunk& chunk = input.chunks()[morsels[m].chunk];
      const std::vector<uint32_t>& sel = buckets[m * num_workers + target];
      for (size_t c = 0; c < chunk.columns.size(); ++c) {
        kernels::Gather(chunk.columns[c], sel, out.columns[c]);
      }
    }
  });
  output.set_hash_partitioned_by(column_index);
  return output;
}

Result<Relation> HashJoin(const Relation& left, const Relation& right,
                          const JoinDecision& decision,
                          cluster::CostModel& cost,
                          const ExecContext* exec) {
  SharedColumns shared = FindSharedColumns(left, right);
  if (shared.left.empty()) {
    return Status::InvalidArgument(
        "join requires at least one shared column; got [" +
        StrJoin(left.column_names(), ",") + "] vs [" +
        StrJoin(right.column_names(), ",") + "]");
  }
  const cluster::ClusterConfig& config = cost.config();
  uint32_t num_workers = config.num_workers;

  if (decision.strategy == JoinStrategy::kBroadcast) {
    // The planned side ships; the other side never moves.
    const Relation& small = decision.broadcast_left ? left : right;
    const Relation& big = decision.broadcast_left ? right : left;

    SharedColumns small_big = FindSharedColumns(small, big);
    OutputLayout layout = MakeOutputLayout(small, big, small_big);

    // Pipelined into the caller's open stage: no stage boundary.
    cost.ChargeBroadcast(small.EstimatedBytes(config));
    RelationChunk small_all = GatherAll(small);

    // The broadcast side is indexed once and shared by every probe task
    // (each simulated worker still pays the build in ChargeCpuRows).
    Relation output(layout.names, big.num_chunks());
    PartitionedIndex pidx =
        BuildPartitionedIndex(small_all, small_big.left, exec);
    PROST_RETURN_IF_ERROR(Probe(
        big, small_big.right, layout.probe_extra_cols, small_big.left,
        [&](uint32_t) -> const RelationChunk& { return small_all; },
        [&](uint32_t, uint64_t h) { return pidx.Lookup(h); }, exec, output));
    for (uint32_t w = 0; w < big.num_chunks(); ++w) {
      cost.ChargeCpuRows(w, small_all.num_rows() + big.chunks()[w].num_rows() +
                                output.chunks()[w].num_rows());
    }

    // The big side's placement is preserved, so its partitioning column
    // (if any) still holds in the output.
    KeepPartitionColumn(big, output);
    // Canonical output layout is left-major regardless of which side was
    // broadcast, so plans are insensitive to the physical strategy.
    OutputLayout canonical = MakeOutputLayout(left, right, shared);
    return PruneColumns(std::move(output), canonical.names);
  }

  // Shuffle join: a stage boundary. Close the caller's pipeline stage,
  // open the post-shuffle stage, and leave it open for downstream work.
  cost.EndStage();
  cost.BeginStage("shuffle_join");
  // A side already hash-partitioned on its join key skips its exchange
  // only when the decision reuses partitioning; every other side moves.
  auto placed = [&](const Relation& side, int key,
                    Relation& moved) -> const Relation& {
    if (decision.reuse_partitioning && side.hash_partitioned_by() == key &&
        side.num_chunks() == num_workers) {
      return side;
    }
    moved = RepartitionByColumn(side, key, num_workers, cost, exec);
    return moved;
  };
  Relation left_moved, right_moved;
  const Relation& left_parts = placed(left, shared.left[0], left_moved);
  const Relation& right_parts = placed(right, shared.right[0], right_moved);

  OutputLayout layout = MakeOutputLayout(left_parts, right_parts, shared);
  Relation output(layout.names, num_workers);
  // One task per co-located worker partition: build its hash table, probe
  // its rows straight into its output chunk. A table lives only as long as
  // its task, so no more tables are resident than there are threads.
  RunTasks(exec, num_workers, [&](size_t w) {
    const RelationChunk& l = left_parts.chunks()[w];
    const RelationChunk& r = right_parts.chunks()[w];
    FlatHashTable table;
    JoinScratch scratch;
    BuildChunkTable(l, shared.left, scratch.hashes, table);
    auto lookup = [&](uint64_t h) { return table.Lookup(h); };
    ProbeRange(l, shared.left, r, shared.right, layout.probe_extra_cols, 0,
               r.num_rows(), lookup, output.mutable_chunks()[w], scratch);
  });
  for (uint32_t w = 0; w < num_workers; ++w) {
    cost.ChargeCpuRows(w, left_parts.chunks()[w].num_rows() +
                              right_parts.chunks()[w].num_rows() +
                              output.chunks()[w].num_rows());
  }
  output.set_hash_partitioned_by(shared.left[0]);
  return output;
}

Result<Relation> Filter(const Relation& input, const std::string& column_name,
                        TermId value, cluster::CostModel& cost,
                        const ExecContext* exec) {
  int column = input.ColumnIndex(column_name);
  if (column < 0) {
    return Status::InvalidArgument("filter on unknown column " + column_name);
  }
  obs::OperatorSpan span(ProfileOf(exec), cost, obs::SpanKind::kFilter,
                         column_name);
  span.SetRowsIn(input.TotalRows());
  Relation output(input.column_names(), input.num_chunks());
  output.set_hash_partitioned_by(input.hash_partitioned_by());
  const std::vector<Morsel> morsels = PlanMorsels(input, exec);
  PROST_RETURN_IF_ERROR(RunMorsels(
      exec, morsels,
      [&](size_t m, RelationChunk& out) {
        const Morsel& morsel = morsels[m];
        const RelationChunk& chunk = input.chunks()[morsel.chunk];
        std::vector<uint32_t> sel;
        kernels::Filter(chunk.columns[static_cast<size_t>(column)], value,
                        morsel.begin, morsel.end, sel);
        for (size_t c = 0; c < chunk.columns.size(); ++c) {
          kernels::Gather(chunk.columns[c], sel, out.columns[c]);
        }
        return Status::OK();
      },
      output));
  for (uint32_t w = 0; w < input.num_chunks(); ++w) {
    cost.ChargeCpuRows(w, input.chunks()[w].num_rows());
  }
  span.SetRowsOut(output.TotalRows());
  return output;
}

Result<Relation> Project(const Relation& input,
                         const std::vector<std::string>& column_names,
                         cluster::CostModel& cost,
                         const ExecContext* exec) {
  std::vector<int> indices;
  indices.reserve(column_names.size());
  std::unordered_set<std::string> seen;
  for (const std::string& name : column_names) {
    int index = input.ColumnIndex(name);
    if (index < 0) {
      return Status::InvalidArgument("project on unknown column " + name);
    }
    if (!seen.insert(name).second) {
      return Status::InvalidArgument("duplicate projected column " + name);
    }
    indices.push_back(index);
  }
  // No span of its own: callers (the plan interpreter, the modifier tail)
  // wrap the call in the span that names their plan node.
  Relation output(column_names, input.num_chunks());
  // Projection is the degenerate batch kernel: a whole-column copy per
  // selected column (no per-row work at all), so one task per chunk is
  // the right granularity.
  RunTasks(exec, input.num_chunks(), [&](size_t w) {
    const RelationChunk& chunk = input.chunks()[w];
    RelationChunk& out = output.mutable_chunks()[w];
    for (size_t c = 0; c < indices.size(); ++c) {
      out.columns[c] = chunk.columns[static_cast<size_t>(indices[c])];
    }
  });
  for (uint32_t w = 0; w < input.num_chunks(); ++w) {
    cost.ChargeCpuRows(w, input.chunks()[w].num_rows());
  }
  // Projection keeps rows in place; partition column survives if selected.
  KeepPartitionColumn(input, output);
  return output;
}

Result<Relation> Distinct(const Relation& input, cluster::CostModel& cost,
                          const ExecContext* exec) {
  // No span of its own (callers wrap the call in their plan node's span).
  (void)exec;
  // Stage boundary, like a shuffle join: close the caller's pipeline
  // stage, run the distinct exchange in a new one, leave it open.
  cost.EndStage();
  cost.BeginStage("distinct");
  // Shuffle by full-row hash so duplicates co-locate, then dedupe locally.
  cost.ChargeShuffle(input.EstimatedBytes(cost.config()));
  uint32_t num_workers = cost.config().num_workers;
  Relation shuffled(input.column_names(), num_workers);
  for (const RelationChunk& chunk : input.chunks()) {
    for (size_t r = 0; r < chunk.num_rows(); ++r) {
      uint64_t h = 0x51ed270b9a3e11c7ULL;
      for (const IdVector& column : chunk.columns) {
        h = HashCombine(h, column[r]);
      }
      RelationChunk& out = shuffled.mutable_chunks()[h % num_workers];
      for (size_t c = 0; c < chunk.columns.size(); ++c) {
        out.columns[c].push_back(chunk.columns[c][r]);
      }
    }
  }
  Relation output(input.column_names(), num_workers);
  for (uint32_t w = 0; w < num_workers; ++w) {
    const RelationChunk& chunk = shuffled.chunks()[w];
    RelationChunk& out = output.mutable_chunks()[w];
    std::unordered_set<std::string> seen;
    seen.reserve(chunk.num_rows());
    std::string key;
    for (size_t r = 0; r < chunk.num_rows(); ++r) {
      key.clear();
      for (const IdVector& column : chunk.columns) {
        key.append(reinterpret_cast<const char*>(&column[r]),
                   sizeof(TermId));
      }
      if (!seen.insert(key).second) continue;
      for (size_t c = 0; c < chunk.columns.size(); ++c) {
        out.columns[c].push_back(chunk.columns[c][r]);
      }
    }
    cost.ChargeCpuRows(w, chunk.num_rows());
  }
  return output;
}

Relation PruneColumns(Relation&& input,
                      const std::vector<std::string>& keep) {
  if (input.column_names() == keep) return std::move(input);
  std::vector<int> source_of(keep.size());
  for (size_t c = 0; c < keep.size(); ++c) {
    source_of[c] = input.ColumnIndex(keep[c]);
  }
  Relation output(keep, input.num_chunks());
  for (uint32_t w = 0; w < input.num_chunks(); ++w) {
    for (size_t c = 0; c < keep.size(); ++c) {
      output.mutable_chunks()[w].columns[c] = std::move(
          input.mutable_chunks()[w]
              .columns[static_cast<size_t>(source_of[c])]);
    }
  }
  KeepPartitionColumn(input, output);
  return output;
}

Relation Limit(const Relation& input, uint64_t limit) {
  Relation output(input.column_names(), input.num_chunks());
  uint64_t taken = 0;
  for (uint32_t w = 0; w < input.num_chunks() && taken < limit; ++w) {
    const RelationChunk& chunk = input.chunks()[w];
    RelationChunk& out = output.mutable_chunks()[w];
    size_t take = static_cast<size_t>(
        std::min<uint64_t>(chunk.num_rows(), limit - taken));
    for (size_t c = 0; c < chunk.columns.size(); ++c) {
      out.columns[c].assign(chunk.columns[c].begin(),
                            chunk.columns[c].begin() + take);
    }
    taken += take;
  }
  return output;
}

}  // namespace prost::engine
