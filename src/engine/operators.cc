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

/// One probe morsel between the count and fill steps: its hits, i.e.
/// each probe row whose key hash found a build run, with that run, and
/// how many build rows of those runs verified.
struct MorselProbe {
  std::vector<uint32_t> rows;
  std::vector<FlatHashTable::Range> runs;
  uint64_t matches = 0;
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

/// What a probe task joins: the build chunk and its key columns, the
/// probe chunk, its key columns and the probe columns the output keeps.
struct ProbeSides {
  const RelationChunk& build;
  const std::vector<int>& build_keys;
  const RelationChunk& probe;
  const std::vector<int>& probe_keys;
  const std::vector<int>& probe_extra_cols;
};

/// Count step: looks probe rows [begin, end) up in `lookup` (hash -> run
/// of ascending build rows), one batch of kernels::kBatchRows rows at a
/// time, keeps each hit in `morsel` and counts the build rows of its run
/// whose keys really match. What it keeps grows with the hits, never
/// with the output.
template <typename Lookup>
void CountMatches(const ProbeSides& sides, size_t begin, size_t end,
                  const Lookup& lookup, MorselProbe& morsel) {
  std::vector<uint64_t> hashes;
  std::vector<uint32_t> counts;
  for (size_t batch = begin; batch < end; batch += kernels::kBatchRows) {
    const size_t rows = std::min(end, batch + kernels::kBatchRows) - batch;
    kernels::HashColumns(sides.probe, sides.probe_keys, batch, batch + rows,
                         hashes);
    const size_t first = morsel.rows.size();
    for (size_t i = 0; i < rows; ++i) {
      const FlatHashTable::Range run = lookup(hashes[i]);
      if (run.empty()) continue;
      morsel.rows.push_back(static_cast<uint32_t>(batch + i));
      morsel.runs.push_back(run);
    }
    const size_t hits = morsel.rows.size() - first;
    if (hits == 0) continue;
    counts.resize(hits);
    morsel.matches += kernels::CountKeyMatches(
        sides.build, sides.build_keys, sides.probe, sides.probe_keys,
        morsel.rows.data() + first, morsel.runs.data() + first, hits,
        counts.data());
  }
}

/// Fill step: writes the matches of the hits the count step kept into
/// rows [offset, ...) of `out`, whose columns are already sized. Per
/// batch of hits it verifies every run into a selection, gathers each
/// build column through it and repeats each probe value over its match
/// count. Hits are in probe-row order and runs carry build rows
/// ascending, so rows land in (probe row, build row) order.
void FillMatches(const ProbeSides& sides, const MorselProbe& morsel,
                 RelationChunk& out, size_t offset) {
  const size_t build_width = sides.build.columns.size();
  std::vector<uint32_t> counts;
  std::vector<uint32_t> selection;
  for (size_t first = 0; first < morsel.rows.size();
       first += kernels::kBatchRows) {
    const size_t hits =
        std::min(morsel.rows.size() - first, kernels::kBatchRows);
    const uint32_t* rows = morsel.rows.data() + first;
    const FlatHashTable::Range* runs = morsel.runs.data() + first;
    size_t candidates = 0;
    for (size_t i = 0; i < hits; ++i) candidates += runs[i].size();
    if (selection.size() < candidates) selection.resize(candidates);
    counts.resize(hits);
    const size_t matched = kernels::SelectKeyMatches(
        sides.build, sides.build_keys, sides.probe, sides.probe_keys, rows,
        runs, hits, counts.data(), selection.data());
    for (size_t c = 0; c < build_width; ++c) {
      kernels::Gather(sides.build.columns[c], selection.data(), matched,
                      out.columns[c].data() + offset);
    }
    for (size_t k = 0; k < sides.probe_extra_cols.size(); ++k) {
      kernels::Repeat(
          sides.probe.columns[static_cast<size_t>(sides.probe_extra_cols[k])],
          rows, counts.data(), hits,
          out.columns[build_width + k].data() + offset);
    }
    offset += matched;
  }
}

/// Fails a join that would emit more rows than the query's row budget
/// (QueryBudget::max_rows) with kResourceExhausted. `rows` is the count
/// summed over every probe task, so the status is the same at any thread
/// count.
Status CheckJoinRowBudget(uint64_t rows, const Relation& probe_rel,
                          const std::vector<int>& probe_keys,
                          const ExecContext* exec) {
  const QueryBudget* budget = BudgetOf(exec);
  if (budget == nullptr || budget->max_rows == 0 ||
      rows <= budget->max_rows) {
    return Status::OK();
  }
  std::vector<std::string> keys;
  for (int key : probe_keys) {
    keys.push_back(probe_rel.column_names()[static_cast<size_t>(key)]);
  }
  return Status::ResourceExhausted(StrFormat(
      "query row budget exceeded: hash join on (%s) would produce %llu rows "
      "(budget %llu)",
      StrJoin(keys, ",").c_str(), static_cast<unsigned long long>(rows),
      static_cast<unsigned long long>(budget->max_rows)));
}

/// Probes `probe_rel` against per-chunk build sides, one task per probe
/// morsel, and writes each match into `output` exactly once:
///   1. count: every task looks its rows up, keeps its hits (rows whose
///      hash found a run) and counts its verified matches;
///   2. size: the summed count meets the row budget before anything is
///      allocated, then every output column is sized once, and each
///      morsel starts where its chunk's earlier morsels end;
///   3. fill: every task verifies its hits' runs again and writes its
///      matches at its own offset.
/// `build_of(chunk)` is the build chunk probe chunk `chunk` joins with,
/// and `lookup_of(chunk, hash)` its index lookup. Output chunk c holds
/// the matches of probe chunk c, ordered by (probe row, build row), at
/// any thread count. Cost charging is left to the caller.
template <typename BuildOf, typename LookupOf>
Status Probe(const Relation& probe_rel, const std::vector<int>& probe_keys,
             const std::vector<int>& probe_extra_cols,
             const std::vector<int>& build_keys, const BuildOf& build_of,
             const LookupOf& lookup_of, const ExecContext* exec,
             Relation& output) {
  const std::vector<Morsel> morsels = PlanMorsels(probe_rel, exec);
  auto sides_of = [&](const Morsel& morsel) {
    return ProbeSides{build_of(morsel.chunk), build_keys,
                      probe_rel.chunks()[morsel.chunk], probe_keys,
                      probe_extra_cols};
  };
  std::vector<MorselProbe> probes(morsels.size());
  RunTasks(exec, morsels.size(), [&](size_t m) {
    const Morsel& morsel = morsels[m];
    auto lookup = [&](uint64_t h) { return lookup_of(morsel.chunk, h); };
    CountMatches(sides_of(morsel), morsel.begin, morsel.end, lookup,
                 probes[m]);
  });
  uint64_t total = 0;
  for (const MorselProbe& probe : probes) total += probe.matches;
  PROST_RETURN_IF_ERROR(CheckJoinRowBudget(total, probe_rel, probe_keys, exec));

  std::vector<size_t> offsets(morsels.size());
  std::vector<size_t> chunk_rows(output.num_chunks());
  for (size_t m = 0; m < morsels.size(); ++m) {
    offsets[m] = chunk_rows[morsels[m].chunk];
    chunk_rows[morsels[m].chunk] += probes[m].matches;
  }
  RunTasks(exec, output.num_chunks(), [&](size_t w) {
    for (IdVector& column : output.mutable_chunks()[w].columns) {
      column.resize(chunk_rows[w]);
    }
  });
  RunTasks(exec, morsels.size(), [&](size_t m) {
    FillMatches(sides_of(morsels[m]), probes[m],
                output.mutable_chunks()[morsels[m].chunk], offsets[m]);
    probes[m] = MorselProbe();
  });
  return Status::OK();
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
  // One flat table per co-located partition, built one task each, then
  // each partition's right rows probe its own table.
  std::vector<FlatHashTable> tables(num_workers);
  RunTasks(exec, num_workers, [&](size_t w) {
    std::vector<uint64_t> hashes;
    BuildChunkTable(left_parts.chunks()[w], shared.left, hashes, tables[w]);
  });
  PROST_RETURN_IF_ERROR(Probe(
      right_parts, shared.right, layout.probe_extra_cols, shared.left,
      [&](uint32_t w) -> const RelationChunk& {
        return left_parts.chunks()[w];
      },
      [&](uint32_t w, uint64_t h) { return tables[w].Lookup(h); }, exec,
      output));
  for (uint32_t w = 0; w < num_workers; ++w) {
    cost.ChargeCpuRows(w, left_parts.chunks()[w].num_rows() +
                              right_parts.chunks()[w].num_rows() +
                              output.chunks()[w].num_rows());
  }
  output.set_hash_partitioned_by(shared.left[0]);
  return output;
}

Result<Relation> Project(Relation input,
                         const std::vector<std::string>& column_names,
                         cluster::CostModel& cost) {
  std::unordered_set<std::string> seen;
  for (const std::string& name : column_names) {
    if (input.ColumnIndex(name) < 0) {
      return Status::InvalidArgument("project on unknown column " + name);
    }
    if (!seen.insert(name).second) {
      return Status::InvalidArgument("duplicate projected column " + name);
    }
  }
  // No span of its own: callers (the plan interpreter, the modifier tail)
  // wrap the call in the span that names their plan node.
  for (uint32_t w = 0; w < input.num_chunks(); ++w) {
    cost.ChargeCpuRows(w, input.chunks()[w].num_rows());
  }
  return PruneColumns(std::move(input), column_names);
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

Relation Limit(Relation input, uint64_t limit) {
  uint64_t taken = 0;
  for (RelationChunk& chunk : input.mutable_chunks()) {
    const size_t take = static_cast<size_t>(
        std::min<uint64_t>(chunk.num_rows(), limit - taken));
    for (IdVector& column : chunk.columns) column.resize(take);
    taken += take;
  }
  return input;
}

}  // namespace prost::engine
