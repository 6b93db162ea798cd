// Component micro-benchmarks (google-benchmark): column encodings, hash
// join strategies, Property Table scans, dictionary interning, and
// sorted-KV operations. These measure the real C++ implementation (not
// the simulated cluster clock).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "bench_util.h"
#include "cluster/cost_model.h"
#include "columnar/encoding.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/property_table.h"
#include "core/prost_db.h"
#include "core/statistics.h"
#include "core/vp_store.h"
#include "engine/hash_table.h"
#include "engine/kernels.h"
#include "engine/operators.h"
#include "kvstore/kv_store.h"
#include "net/result_writer.h"
#include "obs/trace.h"
#include "rdf/dictionary.h"
#include "rdf/sparql_json.h"
#include "watdiv/generator.h"
#include "watdiv/schema.h"

namespace {

using namespace prost;

columnar::IdVector MakeIds(size_t n, int shape, uint64_t seed) {
  Rng rng(seed);
  columnar::IdVector ids(n);
  switch (shape) {
    case 0:  // random
      for (auto& id : ids) id = rng.NextInRange(1, 1u << 20);
      break;
    case 1:  // sorted (delta-friendly)
      for (size_t i = 0; i < n; ++i) ids[i] = 10 + i * 3;
      break;
    case 2:  // runs (RLE-friendly, NULL-heavy PT column shape)
      for (size_t i = 0; i < n; ++i) {
        ids[i] = (i / 64 % 4 == 0) ? 7 : rdf::kNullTermId;
      }
      break;
  }
  return ids;
}

void BM_EncodeAdaptive(benchmark::State& state) {
  columnar::IdVector ids =
      MakeIds(static_cast<size_t>(state.range(0)), state.range(1), 11);
  for (auto _ : state) {
    ByteWriter writer;
    columnar::EncodeIdsAdaptive(ids, writer);
    benchmark::DoNotOptimize(writer.buffer().data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EncodeAdaptive)
    ->Args({1 << 14, 0})
    ->Args({1 << 14, 1})
    ->Args({1 << 14, 2});

void BM_DecodeAdaptive(benchmark::State& state) {
  columnar::IdVector ids =
      MakeIds(static_cast<size_t>(state.range(0)), state.range(1), 11);
  ByteWriter writer;
  columnar::EncodeIdsAdaptive(ids, writer);
  for (auto _ : state) {
    ByteReader reader(writer.buffer());
    columnar::IdVector out;
    if (!columnar::DecodeIds(reader, ids.size(), &out).ok()) state.SkipWithError("decode");
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DecodeAdaptive)
    ->Args({1 << 14, 0})
    ->Args({1 << 14, 1})
    ->Args({1 << 14, 2});

engine::Relation MakeRelation(const std::vector<std::string>& names,
                              size_t rows, uint64_t key_space,
                              uint64_t seed) {
  Rng rng(seed);
  std::vector<engine::Row> data;
  data.reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    engine::Row row;
    for (size_t c = 0; c < names.size(); ++c) {
      row.push_back(1 + rng.NextBounded(key_space));
    }
    data.push_back(std::move(row));
  }
  return engine::Relation::FromRows(names, data, 9);
}

void BM_HashJoin(benchmark::State& state) {
  const bool broadcast = state.range(1) != 0;
  size_t rows = static_cast<size_t>(state.range(0));
  engine::Relation left = MakeRelation({"a", "b"}, rows, rows / 2, 1);
  engine::Relation right = MakeRelation({"b", "c"}, rows / 8, rows / 2, 2);
  cluster::ClusterConfig config;
  engine::JoinDecision decision;  // Shuffle unless broadcasting `right`.
  if (broadcast) decision.strategy = engine::JoinStrategy::kBroadcast;
  for (auto _ : state) {
    cluster::CostModel cost(config);
    cost.BeginStage("bench");
    auto joined = engine::HashJoin(left, right, decision, cost);
    cost.EndStage();
    if (!joined.ok()) state.SkipWithError("join failed");
    benchmark::DoNotOptimize(joined->TotalRows());
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_HashJoin)
    ->Args({1 << 14, 0})
    ->Args({1 << 14, 1})
    ->Args({1 << 17, 0})
    ->Args({1 << 17, 1});

void BM_KvStoreSeek(benchmark::State& state) {
  kvstore::SortedKvStore store;
  std::vector<std::string> keys;
  Rng rng(3);
  for (size_t i = 0; i < 1u << 16; ++i) {
    keys.push_back(kvstore::BigEndianKey(rng.Next()));
  }
  store.BulkLoad(std::move(keys));
  Rng probe(4);
  for (auto _ : state) {
    auto range = store.ScanPrefix(
        kvstore::BigEndianKey(probe.Next()).substr(0, 2));
    benchmark::DoNotOptimize(range.size());
  }
}
BENCHMARK(BM_KvStoreSeek);

void BM_DictionaryIntern(benchmark::State& state) {
  std::vector<std::string> terms;
  Rng rng(5);
  for (size_t i = 0; i < 1u << 14; ++i) {
    terms.push_back("<http://example.org/entity/" +
                    std::to_string(rng.Next() % 100000) + ">");
  }
  for (auto _ : state) {
    rdf::Dictionary dictionary;
    for (const auto& term : terms) {
      benchmark::DoNotOptimize(dictionary.Intern(term));
    }
  }
  state.SetItemsProcessed(state.iterations() * terms.size());
}
BENCHMARK(BM_DictionaryIntern);

/// A shared small WatDiv database for the storage-scan benchmarks.
struct ScanFixture {
  ScanFixture() {
    watdiv::WatDivConfig config;
    config.target_triples = 60000;
    watdiv::WatDivDataset dataset = watdiv::Generate(config);
    dataset.graph.SortAndDedupe();
    stats = core::DatasetStatistics::Compute(dataset.graph);
    vp = core::VpStore::Build(dataset.graph, 9, pool);
    pt = core::PropertyTable::Build(dataset.graph, stats, 9, pool);
    likes = dataset.graph.dictionary().Lookup(
        "<" + watdiv::Predicates::likes() + ">");
    age = dataset.graph.dictionary().Lookup(
        "<" + watdiv::Predicates::age() + ">");
    gender = dataset.graph.dictionary().Lookup(
        "<" + watdiv::Predicates::gender() + ">");
  }
  columnar::BufferPool pool{columnar::kUnboundedBudget};
  core::DatasetStatistics stats;
  core::VpStore vp;
  core::PropertyTable pt;
  rdf::TermId likes, age, gender;
};

ScanFixture& Fixture() {
  static ScanFixture* fixture = new ScanFixture();
  return *fixture;
}

void BM_VpScan(benchmark::State& state) {
  ScanFixture& f = Fixture();
  cluster::ClusterConfig config;
  for (auto _ : state) {
    cluster::CostModel cost(config);
    cost.BeginStage("scan");
    auto relation = f.vp.Scan(f.likes, core::PatternTerm::Var("s"),
                              core::PatternTerm::Var("o"), cost);
    cost.EndStage();
    if (!relation.ok()) state.SkipWithError("scan failed");
    benchmark::DoNotOptimize(relation->TotalRows());
  }
}
BENCHMARK(BM_VpScan);

// ---------------------------------------------------------------------
// Thread-count sweep for the morsel-driven parallel operators. Each
// benchmark runs at 1/2/4/8 threads over identical inputs and reports a
// `speedup_vs_serial` counter against a cached serial baseline, so one
// run shows per-thread scaling directly. (On a single-core machine the
// counter hovers near 1; scaling shows on real multi-core hardware.)

/// Minimum-of-3 wall time of `fn` in milliseconds.
template <typename Fn>
double BestOfThreeMs(const Fn& fn) {
  double best = 1e300;
  for (int i = 0; i < 3; ++i) {
    WallTimer timer;
    fn();
    best = std::min(best, timer.ElapsedMillis());
  }
  return best;
}

void BM_ParallelHashJoin(benchmark::State& state) {
  const uint32_t threads = static_cast<uint32_t>(state.range(0));
  const size_t rows = 1 << 16;
  engine::Relation left = MakeRelation({"a", "b"}, rows, rows / 2, 1);
  engine::Relation right = MakeRelation({"b", "c"}, rows / 4, rows / 2, 2);
  cluster::ClusterConfig config;
  // Broadcast the smaller `right`: exercises the partitioned build +
  // parallel probe path.
  engine::JoinDecision decision;
  decision.strategy = engine::JoinStrategy::kBroadcast;

  auto run_once = [&](const engine::ExecContext* exec) {
    cluster::CostModel cost(config);
    cost.BeginStage("bench");
    auto joined = engine::HashJoin(left, right, decision, cost, exec);
    cost.EndStage();
    if (!joined.ok()) state.SkipWithError("join failed");
    benchmark::DoNotOptimize(joined->TotalRows());
  };
  static double serial_ms = BestOfThreeMs([&] { run_once(nullptr); });

  ThreadPool pool(threads);
  engine::ExecContext exec(&pool, 4096);
  double total_ms = 0;
  for (auto _ : state) {
    WallTimer timer;
    run_once(&exec);
    total_ms += timer.ElapsedMillis();
  }
  state.SetItemsProcessed(state.iterations() * rows);
  state.counters["threads"] = threads;
  if (state.iterations() > 0 && total_ms > 0) {
    state.counters["speedup_vs_serial"] =
        serial_ms / (total_ms / static_cast<double>(state.iterations()));
  }
}
BENCHMARK(BM_ParallelHashJoin)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime();

void BM_ParallelVpScan(benchmark::State& state) {
  const uint32_t threads = static_cast<uint32_t>(state.range(0));
  ScanFixture& f = Fixture();
  cluster::ClusterConfig config;
  auto run_once = [&](const engine::ExecContext* exec) {
    cluster::CostModel cost(config);
    cost.BeginStage("scan");
    auto relation = f.vp.Scan(f.likes, core::PatternTerm::Var("s"),
                              core::PatternTerm::Var("o"), cost, exec);
    cost.EndStage();
    if (!relation.ok()) state.SkipWithError("scan failed");
    benchmark::DoNotOptimize(relation->TotalRows());
  };
  static double serial_ms = BestOfThreeMs([&] { run_once(nullptr); });

  ThreadPool pool(threads);
  engine::ExecContext exec(&pool, 1024);
  double total_ms = 0;
  for (auto _ : state) {
    WallTimer timer;
    run_once(&exec);
    total_ms += timer.ElapsedMillis();
  }
  state.counters["threads"] = threads;
  if (state.iterations() > 0 && total_ms > 0) {
    state.counters["speedup_vs_serial"] =
        serial_ms / (total_ms / static_cast<double>(state.iterations()));
  }
}
BENCHMARK(BM_ParallelVpScan)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime();

void BM_PropertyTableStarScan(benchmark::State& state) {
  ScanFixture& f = Fixture();
  cluster::ClusterConfig config;
  std::vector<core::PropertyTable::ColumnPattern> patterns = {
      {f.likes, core::PatternTerm::Var("o1")},
      {f.age, core::PatternTerm::Var("o2")},
      {f.gender, core::PatternTerm::Var("o3")},
  };
  for (auto _ : state) {
    cluster::CostModel cost(config);
    cost.BeginStage("scan");
    auto relation = f.pt.Scan(core::PatternTerm::Var("s"), patterns, cost);
    cost.EndStage();
    if (!relation.ok()) state.SkipWithError("scan failed");
    benchmark::DoNotOptimize(relation->TotalRows());
  }
}
BENCHMARK(BM_PropertyTableStarScan);

// ---------------------------------------------------------------------
// Vectorized-kernel before/after pairs. Each "baseline" is an in-bench
// replica of the row-at-a-time / node-based loop the kernels replaced
// (unordered_map build index, branchy per-row filter, row-major
// materialization), run over identical inputs as the kernel path. The
// vectorized benchmarks report a `speedup_vs_baseline` counter; the
// `--write_kernels_json <path>` mode records both sides in
// BENCH_kernels.json.

/// Pre-mixed join-key hashes with duplicates (bounded key space), the
/// shape KeyHash feeds the build index.
std::vector<uint64_t> MakeJoinHashes(size_t n, uint64_t key_space,
                                     uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> hashes(n);
  for (auto& h : hashes) h = Mix64(1 + rng.NextBounded(key_space));
  return hashes;
}

/// Build+probe with the node-based index HashJoin used before the flat
/// table: unordered_map from hash to a per-key row vector.
uint64_t UnorderedMapBuildProbe(const std::vector<uint64_t>& build,
                                const std::vector<uint64_t>& probe) {
  std::unordered_map<uint64_t, std::vector<uint32_t>> index;
  index.reserve(build.size());
  for (uint32_t r = 0; r < build.size(); ++r) {
    index[build[r]].push_back(r);
  }
  uint64_t sum = 0;
  for (uint64_t h : probe) {
    auto it = index.find(h);
    if (it == index.end()) continue;
    for (uint32_t r : it->second) sum += r;
  }
  return sum;
}

/// The same build+probe on the flat open-addressing table.
uint64_t FlatTableBuildProbe(engine::FlatHashTable& table,
                             const std::vector<uint64_t>& build,
                             const std::vector<uint64_t>& probe) {
  table.Build(build.data(), build.size());
  uint64_t sum = 0;
  for (uint64_t h : probe) {
    engine::FlatHashTable::Range range = table.Lookup(h);
    for (const uint32_t* r = range.begin; r != range.end; ++r) sum += *r;
  }
  return sum;
}

constexpr size_t kKernelBenchRows = 1 << 20;

void BM_UnorderedMapBaseline(benchmark::State& state) {
  const size_t n = kKernelBenchRows;
  auto build = MakeJoinHashes(n, n / 2, 21);
  auto probe = MakeJoinHashes(n, n / 2, 22);
  for (auto _ : state) {
    benchmark::DoNotOptimize(UnorderedMapBuildProbe(build, probe));
  }
  state.SetItemsProcessed(state.iterations() * 2 * n);
}
BENCHMARK(BM_UnorderedMapBaseline);

void BM_FlatHashTable(benchmark::State& state) {
  const size_t n = kKernelBenchRows;
  auto build = MakeJoinHashes(n, n / 2, 21);
  auto probe = MakeJoinHashes(n, n / 2, 22);
  double baseline_ms =
      BestOfThreeMs([&] { UnorderedMapBuildProbe(build, probe); });
  engine::FlatHashTable table;  // Reused — the per-morsel scratch shape.
  double total_ms = 0;
  for (auto _ : state) {
    WallTimer timer;
    benchmark::DoNotOptimize(FlatTableBuildProbe(table, build, probe));
    total_ms += timer.ElapsedMillis();
  }
  state.SetItemsProcessed(state.iterations() * 2 * n);
  if (state.iterations() > 0 && total_ms > 0) {
    state.counters["speedup_vs_baseline"] =
        baseline_ms / (total_ms / static_cast<double>(state.iterations()));
  }
}
BENCHMARK(BM_FlatHashTable);

/// A two-column chunk whose first column is a 50/50 coin — the worst
/// case for the branchy per-row filter the kernel replaced.
engine::RelationChunk MakeFilterChunk(size_t n, uint64_t seed) {
  Rng rng(seed);
  engine::RelationChunk chunk;
  chunk.columns.resize(2);
  chunk.columns[0].resize(n);
  chunk.columns[1].resize(n);
  for (size_t r = 0; r < n; ++r) {
    chunk.columns[0][r] = 1 + rng.NextBounded(2);
    chunk.columns[1][r] = rng.Next();
  }
  return chunk;
}

/// The old Filter operator inner loop: per row, test then push the row
/// across every output column.
uint64_t ScalarFilter(const engine::RelationChunk& chunk, rdf::TermId value,
                      engine::RelationChunk& out) {
  for (auto& column : out.columns) column.clear();
  const columnar::IdVector& pred = chunk.columns[0];
  for (size_t r = 0; r < pred.size(); ++r) {
    if (pred[r] == value) {
      for (size_t c = 0; c < chunk.columns.size(); ++c) {
        out.columns[c].push_back(chunk.columns[c][r]);
      }
    }
  }
  return out.columns[0].size();
}

/// The kernel path: branch-free selection, then one gather per column.
uint64_t VectorizedFilter(const engine::RelationChunk& chunk,
                          rdf::TermId value, std::vector<uint32_t>& sel,
                          engine::RelationChunk& out) {
  for (auto& column : out.columns) column.clear();
  sel.clear();
  engine::kernels::Filter(chunk.columns[0], value, 0,
                          chunk.columns[0].size(), sel);
  for (size_t c = 0; c < chunk.columns.size(); ++c) {
    engine::kernels::Gather(chunk.columns[c], sel, out.columns[c]);
  }
  return sel.size();
}

void BM_VectorizedFilter(benchmark::State& state) {
  engine::RelationChunk chunk = MakeFilterChunk(kKernelBenchRows, 31);
  engine::RelationChunk out;
  out.columns.resize(chunk.columns.size());
  double baseline_ms = BestOfThreeMs([&] { ScalarFilter(chunk, 1, out); });
  std::vector<uint32_t> sel;
  double total_ms = 0;
  for (auto _ : state) {
    WallTimer timer;
    benchmark::DoNotOptimize(VectorizedFilter(chunk, 1, sel, out));
    total_ms += timer.ElapsedMillis();
  }
  state.SetItemsProcessed(state.iterations() * kKernelBenchRows);
  if (state.iterations() > 0 && total_ms > 0) {
    state.counters["speedup_vs_baseline"] =
        baseline_ms / (total_ms / static_cast<double>(state.iterations()));
  }
}
BENCHMARK(BM_VectorizedFilter);

/// Materialization inputs: a four-column chunk and an ascending ~50%
/// selection — the join-output shape.
struct GatherInputs {
  engine::RelationChunk chunk;
  std::vector<uint32_t> sel;
};

GatherInputs MakeGatherInputs(size_t n, uint64_t seed) {
  Rng rng(seed);
  GatherInputs in;
  in.chunk.columns.resize(4);
  for (auto& column : in.chunk.columns) {
    column.resize(n);
    for (auto& id : column) id = rng.Next();
  }
  in.sel.reserve(n / 2);
  for (size_t r = 0; r < n; ++r) {
    if (rng.NextBernoulli(0.5)) in.sel.push_back(static_cast<uint32_t>(r));
  }
  return in;
}

/// Row-major materialization: each selected row pushed across all
/// columns (the pre-kernel emit loop). Output vectors start cold — each
/// query materializes into fresh columns, so the baseline pays the
/// reallocation churn the unreserved push_back loop really paid.
uint64_t RowMajorMaterialize(const GatherInputs& in,
                             engine::RelationChunk& out) {
  for (auto& column : out.columns) columnar::IdVector().swap(column);
  for (uint32_t r : in.sel) {
    for (size_t c = 0; c < in.chunk.columns.size(); ++c) {
      out.columns[c].push_back(in.chunk.columns[c][r]);
    }
  }
  return out.columns[0].size();
}

uint64_t ColumnMajorGather(const GatherInputs& in,
                           engine::RelationChunk& out) {
  for (auto& column : out.columns) columnar::IdVector().swap(column);
  for (size_t c = 0; c < in.chunk.columns.size(); ++c) {
    engine::kernels::Gather(in.chunk.columns[c], in.sel, out.columns[c]);
  }
  return out.columns[0].size();
}

void BM_Gather(benchmark::State& state) {
  GatherInputs in = MakeGatherInputs(kKernelBenchRows, 41);
  engine::RelationChunk out;
  out.columns.resize(in.chunk.columns.size());
  double baseline_ms = BestOfThreeMs([&] { RowMajorMaterialize(in, out); });
  double total_ms = 0;
  for (auto _ : state) {
    WallTimer timer;
    benchmark::DoNotOptimize(ColumnMajorGather(in, out));
    total_ms += timer.ElapsedMillis();
  }
  state.SetItemsProcessed(state.iterations() * in.sel.size());
  if (state.iterations() > 0 && total_ms > 0) {
    state.counters["speedup_vs_baseline"] =
        baseline_ms / (total_ms / static_cast<double>(state.iterations()));
  }
}
BENCHMARK(BM_Gather);

/// List-unnest inputs: a key column and two list columns whose cells hold
/// 0-4 values (about a fifth empty) — a Property Table star over two
/// multi-valued predicates.
struct ListExpandInputs {
  columnar::IdVector keys;
  columnar::IdListColumn a;
  columnar::IdListColumn b;
};

ListExpandInputs MakeListExpandInputs(size_t n, uint64_t seed) {
  Rng rng(seed);
  ListExpandInputs in;
  columnar::IdVector cell;
  for (size_t r = 0; r < n; ++r) {
    in.keys.push_back(1 + r);
    for (columnar::IdListColumn* lists : {&in.a, &in.b}) {
      cell.resize(rng.NextBounded(5));
      for (auto& id : cell) id = 1 + rng.NextBounded(1u << 20);
      lists->AppendRow(cell);
    }
  }
  return in;
}

/// The row-at-a-time partial loop the Property Table scan ran before its
/// list kernels: a heap-allocated Row seed per row, each partial copied
/// once per cell value, then a row-major emit.
uint64_t RowPartialExpand(const ListExpandInputs& in,
                          engine::RelationChunk& out) {
  for (auto& column : out.columns) columnar::IdVector().swap(column);
  std::vector<engine::Row> partials;
  std::vector<engine::Row> next;
  for (size_t r = 0; r < in.keys.size(); ++r) {
    partials.clear();
    engine::Row seed(3, rdf::kNullTermId);
    seed[0] = in.keys[r];
    partials.push_back(std::move(seed));
    size_t out_col = 1;
    for (const columnar::IdListColumn* lists : {&in.a, &in.b}) {
      next.clear();
      for (const engine::Row& partial : partials) {
        for (uint32_t p = lists->offsets[r]; p < lists->offsets[r + 1];
             ++p) {
          engine::Row extended = partial;
          extended[out_col] = lists->values[p];
          next.push_back(std::move(extended));
        }
      }
      partials.swap(next);
      ++out_col;
    }
    for (const engine::Row& row : partials) {
      for (size_t c = 0; c < row.size(); ++c) {
        out.columns[c].push_back(row[c]);
      }
    }
  }
  return out.columns[0].size();
}

/// The kernel path: refine rows to non-empty cells, unnest each list by
/// offsets, then one gather per output column.
uint64_t OffsetsListExpand(const ListExpandInputs& in,
                           engine::RelationChunk& out) {
  for (auto& column : out.columns) columnar::IdVector().swap(column);
  std::vector<uint32_t> rows;
  engine::kernels::Iota(0, in.keys.size(), rows);
  engine::kernels::RefineListNotEmpty(in.a, rows);
  engine::kernels::RefineListNotEmpty(in.b, rows);
  std::vector<uint32_t> repeat;
  std::vector<uint32_t> a_positions;
  engine::kernels::ListExpand(in.a, rows, repeat, a_positions);
  std::vector<uint32_t> a_rows;
  engine::kernels::Gather(rows, repeat, a_rows);
  repeat.clear();
  std::vector<uint32_t> b_positions;
  engine::kernels::ListExpand(in.b, a_rows, repeat, b_positions);
  rows.clear();
  engine::kernels::Gather(a_rows, repeat, rows);
  std::vector<uint32_t> positions;
  engine::kernels::Gather(a_positions, repeat, positions);
  engine::kernels::Gather(in.keys, rows, out.columns[0]);
  engine::kernels::Gather(in.a.values, positions, out.columns[1]);
  engine::kernels::Gather(in.b.values, b_positions, out.columns[2]);
  return out.columns[0].size();
}

constexpr size_t kListExpandRows = kKernelBenchRows / 4;

void BM_ListExpand(benchmark::State& state) {
  ListExpandInputs in = MakeListExpandInputs(kListExpandRows, 51);
  engine::RelationChunk out;
  out.columns.resize(3);
  double baseline_ms = BestOfThreeMs([&] { RowPartialExpand(in, out); });
  double total_ms = 0;
  for (auto _ : state) {
    WallTimer timer;
    benchmark::DoNotOptimize(OffsetsListExpand(in, out));
    total_ms += timer.ElapsedMillis();
  }
  state.SetItemsProcessed(state.iterations() * kListExpandRows);
  if (state.iterations() > 0 && total_ms > 0) {
    state.counters["speedup_vs_baseline"] =
        baseline_ms / (total_ms / static_cast<double>(state.iterations()));
  }
}
BENCHMARK(BM_ListExpand);

/// Minimum-of-N wall time in milliseconds (JSON mode uses more repeats
/// than the counter plumbing above for stabler checked-in numbers).
template <typename Fn>
double BestOfMs(int repeats, const Fn& fn) {
  double best = 1e300;
  for (int i = 0; i < repeats; ++i) {
    WallTimer timer;
    fn();
    best = std::min(best, timer.ElapsedMillis());
  }
  return best;
}

/// `--write_kernels_json <path>`: measures every before/after kernel
/// pair and writes the BENCH_kernels.json feed.
int RunWriteKernelsJson(const std::string& path) {
  constexpr int kRepeats = 7;
  std::vector<bench::KernelRun> runs;

  {
    const size_t n = kKernelBenchRows;
    auto build = MakeJoinHashes(n, n / 2, 21);
    auto probe = MakeJoinHashes(n, n / 2, 22);
    engine::FlatHashTable table;
    bench::KernelRun run;
    run.kernel = "hash_join_build_probe";
    run.baseline = "std_unordered_map";
    run.rows = 2 * n;
    run.baseline_millis =
        BestOfMs(kRepeats, [&] { UnorderedMapBuildProbe(build, probe); });
    run.vectorized_millis = BestOfMs(
        kRepeats, [&] { FlatTableBuildProbe(table, build, probe); });
    runs.push_back(run);
  }
  {
    engine::RelationChunk chunk = MakeFilterChunk(kKernelBenchRows, 31);
    engine::RelationChunk out;
    out.columns.resize(chunk.columns.size());
    std::vector<uint32_t> sel;
    bench::KernelRun run;
    run.kernel = "filter";
    run.baseline = "row_at_a_time_branchy";
    run.rows = kKernelBenchRows;
    run.baseline_millis =
        BestOfMs(kRepeats, [&] { ScalarFilter(chunk, 1, out); });
    run.vectorized_millis =
        BestOfMs(kRepeats, [&] { VectorizedFilter(chunk, 1, sel, out); });
    runs.push_back(run);
  }
  {
    GatherInputs in = MakeGatherInputs(kKernelBenchRows, 41);
    engine::RelationChunk out;
    out.columns.resize(in.chunk.columns.size());
    bench::KernelRun run;
    run.kernel = "gather";
    run.baseline = "row_major_push_back";
    run.rows = in.sel.size();
    run.baseline_millis =
        BestOfMs(kRepeats, [&] { RowMajorMaterialize(in, out); });
    run.vectorized_millis =
        BestOfMs(kRepeats, [&] { ColumnMajorGather(in, out); });
    runs.push_back(run);
  }
  {
    ListExpandInputs in = MakeListExpandInputs(kListExpandRows, 51);
    engine::RelationChunk out;
    out.columns.resize(3);
    bench::KernelRun run;
    run.kernel = "list_expand";
    run.baseline = "row_at_a_time_partials";
    run.rows = kListExpandRows;
    run.baseline_millis =
        BestOfMs(kRepeats, [&] { RowPartialExpand(in, out); });
    run.vectorized_millis =
        BestOfMs(kRepeats, [&] { OffsetsListExpand(in, out); });
    engine::RelationChunk baseline_out;
    baseline_out.columns.resize(3);
    RowPartialExpand(in, baseline_out);
    if (baseline_out.columns != out.columns) {
      std::fprintf(stderr, "list_expand: kernel output differs from the "
                           "row-at-a-time loop\n");
      return 1;
    }
    runs.push_back(run);
  }

  for (const bench::KernelRun& run : runs) {
    std::printf("%-22s vs %-22s: baseline %8.3fms  vectorized %8.3fms  "
                "speedup %.2fx\n",
                run.kernel.c_str(), run.baseline.c_str(),
                run.baseline_millis, run.vectorized_millis,
                run.baseline_millis / run.vectorized_millis);
  }
  bench::WriteBenchJson(path, "kernels", runs);
  return 0;
}

// ---------------------------------------------------------------------
// `--profiling_overhead_check`: asserts that executing with profiling
// *off* (a null QueryProfile) is not measurably slower than the same
// execution with a profile attached. A true before/after-the-subsystem
// comparison needs two binaries; within one binary, the profiling-off
// path differs from pre-instrumentation code only by null checks, so
// "off <= on * 1.02" bounds that overhead: if even the fully
// instrumented run is within 2%, the null path is too. Uses the
// BM_ParallelHashJoin workload on the shuffle path (the one that opens
// exchange spans inside the join).

int RunProfilingOverheadCheck() {
  const size_t rows = 1 << 16;
  engine::Relation left = MakeRelation({"a", "b"}, rows, rows / 2, 1);
  engine::Relation right = MakeRelation({"b", "c"}, rows / 4, rows / 2, 2);
  cluster::ClusterConfig config;
  const engine::JoinDecision shuffle;  // The default decision shuffles.
  ThreadPool pool(4);

  auto join_once = [&](const engine::ExecContext& exec) {
    cluster::CostModel cost(config);
    cost.BeginStage("bench");
    auto joined = engine::HashJoin(left, right, shuffle, cost, &exec);
    cost.EndStage();
    if (!joined.ok()) {
      std::fprintf(stderr, "FATAL: join failed: %s\n",
                   joined.status().ToString().c_str());
      std::exit(2);
    }
    benchmark::DoNotOptimize(joined->TotalRows());
  };
  auto off_ms = [&] {
    engine::ExecContext exec(&pool, 4096);
    return BestOfThreeMs([&] { join_once(exec); });
  };
  auto on_ms = [&] {
    return BestOfThreeMs([&] {
      obs::QueryProfile profile;
      engine::ExecContext exec(&pool, 4096, &profile);
      join_once(exec);
    });
  };

  off_ms();  // Warm up allocators and the thread pool.
  constexpr int kAttempts = 5;
  double off = 0;
  double on = 0;
  for (int attempt = 0; attempt < kAttempts; ++attempt) {
    off = off_ms();
    on = on_ms();
    std::printf("profiling overhead attempt %d: off=%.3fms on=%.3fms\n",
                attempt + 1, off, on);
    if (off <= on * 1.02) {
      std::printf("PASS: profiling-off within 2%% (off/on = %.4f)\n",
                  off / on);
      return 0;
    }
  }
  std::fprintf(stderr,
               "FAIL: profiling-off slower than profiled run by > 2%% "
               "(off=%.3fms on=%.3fms) after %d attempts\n",
               off, on, kAttempts);
  return 1;
}

// ---------------------------------------------------------------------
// Wall-ratio guards over the BENCH-scale mixed VP+PT store
// (PROST_BENCH_TRIPLES, by default ~275k triples). Each compares, summed
// over WatDiv queries, the median of 5 walls of one layer with the median
// of 5 ProstDb::Execute walls: a ratio of two walls from the same
// process, so it holds across machines.

constexpr int kGuardRuns = 5;

/// Median wall of kGuardRuns calls of `fn`, after one warm-up call.
template <typename Fn>
double MedianWallMs(const Fn& fn) {
  fn();
  std::vector<double> walls;
  for (int i = 0; i < kGuardRuns; ++i) {
    WallTimer timer;
    fn();
    walls.push_back(timer.ElapsedMillis());
  }
  std::sort(walls.begin(), walls.end());
  return walls[kGuardRuns / 2];
}

struct GuardStore {
  bench::BenchWorkload workload;
  std::unique_ptr<core::ProstDb> db;
};

/// The workload and its mixed store, or null after reporting the failure.
std::unique_ptr<GuardStore> LoadGuardStore() {
  auto store = std::make_unique<GuardStore>();
  store->workload = bench::BuildWorkload();
  core::ProstDb::Options options;
  options.cluster = bench::ScaledCluster(store->workload);
  auto db = core::ProstDb::LoadFromSharedGraph(store->workload.graph, options);
  if (!db.ok()) {
    std::fprintf(stderr, "FATAL: load failed: %s\n",
                 db.status().ToString().c_str());
    return nullptr;
  }
  store->db = std::move(db).value();
  return store;
}

/// Takes `layer_ms(db, query)` (a layer's median wall, or a negative value
/// on failure) and the median Execute wall for every WatDiv query, C2
/// only when `include_c2`, and fails unless the summed layer walls are at
/// most `max_ratio` times the summed Execute walls.
template <typename LayerMs>
int CheckWallRatio(const GuardStore& store, const char* layer,
                   double max_ratio, bool include_c2,
                   const LayerMs& layer_ms) {
  const core::ProstDb& db = *store.db;
  double layer_total = 0;
  double execute_total = 0;
  for (size_t i = 0; i < store.workload.queries.size(); ++i) {
    const std::string& id = store.workload.queries[i].id;
    if (id == "C2" && !include_c2) continue;
    const sparql::Query& query = store.workload.parsed[i];
    const double ms = layer_ms(db, query);
    bool ok = ms >= 0;
    const double execute_ms =
        MedianWallMs([&] { ok &= db.Execute(query).ok(); });
    if (!ok) {
      std::fprintf(stderr, "FATAL: %s failed\n", id.c_str());
      return 2;
    }
    std::printf("%-4s %s %8.3fms  execute %8.3fms\n", id.c_str(), layer, ms,
                execute_ms);
    layer_total += ms;
    execute_total += execute_ms;
  }
  const double ratio = layer_total / execute_total;
  std::printf("%s %.3fms / execute %.3fms = %.3f (bound %.2f)\n", layer,
              layer_total, execute_total, ratio, max_ratio);
  if (ratio > max_ratio) {
    std::fprintf(stderr, "FAIL: %s costs %.3fx execution (> %.2f)\n", layer,
                 ratio, max_ratio);
    return 1;
  }
  std::printf("PASS: %s within %.2fx of execution\n", layer, max_ratio);
  return 0;
}

// `--plan_cost_check`: planning must stay cheap next to the query it
// plans. ProstDb::PlanPhysical over the 20 WatDiv queries, bound 0.2x.
int RunPlanCostCheck() {
  std::unique_ptr<GuardStore> store = LoadGuardStore();
  if (store == nullptr) return 2;
  return CheckWallRatio(
      *store, "plan", 0.2, /*include_c2=*/true,
      [](const core::ProstDb& db, const sparql::Query& query) {
        bool ok = true;
        const double ms =
            MedianWallMs([&] { ok &= db.PlanPhysical(query).ok(); });
        return ok ? ms : -1.0;
      });
}

// `--serialize_cost_check`: writing a result as SPARQL JSON must stay
// cheap next to computing it. SparqlResultWriter::Write into a sink that
// only counts bytes, over the 19 interactive queries (all but C2, the
// set perfbench serves), bound 0.4x. The store's binding table is built
// first, so the walls time writing alone.
int RunSerializeCostCheck() {
  std::unique_ptr<GuardStore> store = LoadGuardStore();
  if (store == nullptr) return 2;
  WallTimer timer;
  const rdf::BindingTable& table = store->db->json_bindings();
  std::printf("binding table: %zu terms, %zu B of bindings, built in "
              "%.2fms\n",
              store->db->dictionary().size(), table.arena_bytes(),
              timer.ElapsedMillis());
  return CheckWallRatio(
      *store, "serialize", 0.4, /*include_c2=*/false,
      [](const core::ProstDb& db, const sparql::Query& query) {
        auto result = db.Execute(query);
        if (!result.ok()) return -1.0;
        size_t bytes = 0;
        bool ok = true;
        const double ms = MedianWallMs([&] {
          ok &= net::SparqlResultWriter::Write(
                    db, result->relation, net::ResultFormat::kJson,
                    [&bytes](std::string_view piece) {
                      bytes += piece.size();
                      return Status::OK();
                    })
                    .ok();
        });
        benchmark::DoNotOptimize(bytes);
        return ok ? ms : -1.0;
      });
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--profiling_overhead_check") == 0) {
      return RunProfilingOverheadCheck();
    }
    if (std::strcmp(argv[i], "--plan_cost_check") == 0) {
      return RunPlanCostCheck();
    }
    if (std::strcmp(argv[i], "--serialize_cost_check") == 0) {
      return RunSerializeCostCheck();
    }
    if (std::strcmp(argv[i], "--write_kernels_json") == 0 &&
        i + 1 < argc) {
      return RunWriteKernelsJson(argv[i + 1]);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
