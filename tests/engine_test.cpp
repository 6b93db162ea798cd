// Unit and property tests for the execution engine: relations, hash joins
// (broadcast and shuffle) checked against a naive nested-loop reference,
// filters, projections, distinct, limit, union, and repartitioning.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <set>

#include "cluster/cost_model.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "engine/exec_context.h"
#include "engine/operators.h"
#include "engine/relation.h"

namespace prost::engine {
namespace {

cluster::ClusterConfig TestConfig() {
  cluster::ClusterConfig config;
  config.num_workers = 4;
  return config;
}

Relation RelationOf(std::vector<std::string> names, std::vector<Row> rows,
                    uint32_t workers = 4) {
  return Relation::FromRows(std::move(names), rows, workers);
}

// ------------------------------------------------------------- Relation

TEST(RelationTest, ShapeAndCollect) {
  Relation r = RelationOf({"a", "b"}, {{1, 2}, {3, 4}, {5, 6}});
  EXPECT_EQ(r.num_columns(), 2u);
  EXPECT_EQ(r.TotalRows(), 3u);
  EXPECT_EQ(r.ColumnIndex("b"), 1);
  EXPECT_EQ(r.ColumnIndex("zz"), -1);
  EXPECT_TRUE(r.Validate().ok());
  EXPECT_EQ(r.CollectSortedRows(),
            (std::vector<Row>{{1, 2}, {3, 4}, {5, 6}}));
}

TEST(RelationTest, EstimatedBytesUsesConfigWidth) {
  Relation r = RelationOf({"a", "b"}, {{1, 2}, {3, 4}});
  cluster::ClusterConfig config = TestConfig();
  config.bytes_per_value = 10.0;
  EXPECT_EQ(r.EstimatedBytes(config), 2u * 2u * 10u);
}

TEST(RelationTest, ValidateCatchesRaggedChunks) {
  Relation r({"a", "b"}, 2);
  r.mutable_chunks()[0].columns[0].push_back(1);  // b missing
  EXPECT_FALSE(r.Validate().ok());
}

// ------------------------------------------------- HashJoin correctness

std::vector<Row> NaiveJoin(const Relation& left, const Relation& right) {
  // Reference nested-loop join on all shared column names.
  std::vector<int> lshared, rshared, rextra;
  for (size_t i = 0; i < left.column_names().size(); ++i) {
    int j = right.ColumnIndex(left.column_names()[i]);
    if (j >= 0) {
      lshared.push_back(static_cast<int>(i));
      rshared.push_back(j);
    }
  }
  for (size_t j = 0; j < right.column_names().size(); ++j) {
    if (std::find(rshared.begin(), rshared.end(), static_cast<int>(j)) ==
        rshared.end()) {
      rextra.push_back(static_cast<int>(j));
    }
  }
  std::vector<Row> out;
  for (const Row& l : left.CollectRows()) {
    for (const Row& r : right.CollectRows()) {
      bool match = true;
      for (size_t k = 0; k < lshared.size(); ++k) {
        if (l[static_cast<size_t>(lshared[k])] !=
            r[static_cast<size_t>(rshared[k])]) {
          match = false;
          break;
        }
      }
      if (!match) continue;
      Row row = l;
      for (int c : rextra) row.push_back(r[static_cast<size_t>(c)]);
      out.push_back(std::move(row));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

JoinDecision Broadcast(bool left) {
  JoinDecision decision;
  decision.strategy = JoinStrategy::kBroadcast;
  decision.broadcast_left = left;
  return decision;
}

/// Joins `left` and `right` under every decision — shuffle, and a
/// broadcast of either side — checks that all three give the same rows,
/// and returns them sorted.
std::vector<Row> RunJoin(const Relation& left, const Relation& right) {
  const JoinDecision decisions[] = {JoinDecision{}, Broadcast(true),
                                    Broadcast(false)};
  std::vector<Row> first;
  for (size_t i = 0; i < std::size(decisions); ++i) {
    cluster::CostModel cost(TestConfig());
    cost.BeginStage("test");
    auto joined = HashJoin(left, right, decisions[i], cost);
    cost.EndStage();
    EXPECT_TRUE(joined.ok()) << joined.status();
    EXPECT_TRUE(joined->Validate().ok());
    std::vector<Row> rows = joined->CollectSortedRows();
    if (i == 0) {
      first = std::move(rows);
    } else {
      EXPECT_EQ(rows, first) << "decision " << i;
    }
  }
  return first;
}

TEST(HashJoinTest, SimpleEquiJoin) {
  Relation users = RelationOf({"u", "city"}, {{1, 10}, {2, 10}, {3, 20}});
  Relation cities = RelationOf({"city", "country"}, {{10, 100}, {20, 200}});
  std::vector<Row> rows = RunJoin(users, cities);
  EXPECT_EQ(rows, NaiveJoin(users, cities));
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0], (Row{1, 10, 100}));
}

TEST(HashJoinTest, NoSharedColumnIsError) {
  Relation a = RelationOf({"x"}, {{1}});
  Relation b = RelationOf({"y"}, {{1}});
  cluster::CostModel cost(TestConfig());
  EXPECT_EQ(HashJoin(a, b, JoinDecision{}, cost).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(HashJoin(a, b, Broadcast(true), cost).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(HashJoinTest, MultiColumnKeys) {
  Relation a = RelationOf({"x", "y", "p"}, {{1, 2, 7}, {1, 3, 8}, {2, 2, 9}});
  Relation b = RelationOf({"x", "y", "q"}, {{1, 2, 70}, {2, 2, 90}, {1, 9, 0}});
  std::vector<Row> rows = RunJoin(a, b);
  EXPECT_EQ(rows, NaiveJoin(a, b));
  EXPECT_EQ(rows.size(), 2u);
}

TEST(HashJoinTest, DuplicateKeysProduceBagSemantics) {
  Relation a = RelationOf({"k", "va"}, {{1, 1}, {1, 2}});
  Relation b = RelationOf({"k", "vb"}, {{1, 5}, {1, 6}, {1, 7}});
  std::vector<Row> rows = RunJoin(a, b);
  EXPECT_EQ(rows.size(), 6u);  // 2 x 3 cross within the key group.
  EXPECT_EQ(rows, NaiveJoin(a, b));
}

TEST(HashJoinTest, BroadcastAndShuffleAgree) {
  Rng rng(77);
  for (int round = 0; round < 12; ++round) {
    std::vector<Row> left_rows, right_rows;
    size_t ln = 20 + rng.NextBounded(120);
    size_t rn = 20 + rng.NextBounded(120);
    uint64_t key_space = 2 + rng.NextBounded(30);
    for (size_t i = 0; i < ln; ++i) {
      left_rows.push_back(
          {1 + rng.NextBounded(key_space), rng.NextBounded(1000)});
    }
    for (size_t i = 0; i < rn; ++i) {
      right_rows.push_back(
          {1 + rng.NextBounded(key_space), rng.NextBounded(1000)});
    }
    Relation left = RelationOf({"k", "a"}, left_rows);
    Relation right = RelationOf({"k", "b"}, right_rows);
    EXPECT_EQ(RunJoin(left, right), NaiveJoin(left, right))
        << "round " << round;
  }
}

TEST(HashJoinTest, BroadcastShipsTheDecidedSide) {
  Relation a = RelationOf({"k", "a"}, {{1, 2}, {2, 3}, {3, 4}, {4, 5}});
  Relation b = RelationOf({"k", "b", "c"}, {{1, 9, 5}, {2, 8, 6}});
  for (bool left : {true, false}) {
    SCOPED_TRACE(left ? "broadcast left" : "broadcast right");
    cluster::CostModel cost(TestConfig());
    cost.BeginStage("t");
    auto joined = HashJoin(a, b, Broadcast(left), cost);
    cost.EndStage();
    ASSERT_TRUE(joined.ok()) << joined.status();
    // The shipped side reaches every worker.
    const Relation& shipped = left ? a : b;
    EXPECT_EQ(cost.counters().bytes_broadcast,
              shipped.EstimatedBytes(cost.config()) * 4);
    EXPECT_EQ(cost.counters().bytes_shuffled, 0u);
    // Left-major output whichever side shipped.
    EXPECT_EQ(joined->column_names(),
              (std::vector<std::string>{"k", "a", "b", "c"}));
  }
}

// ------------------------------------------------ Strategy resolution

TEST(ResolveJoinStrategyTest, ThresholdDecides) {
  cluster::ClusterConfig config = TestConfig();
  config.broadcast_threshold_bytes = 100;
  const JoinOptions options;
  // The smaller side's size is compared with the threshold, inclusive.
  EXPECT_EQ(ResolveJoinStrategy(1, kUnknownPlannerBytes, options, config)
                .strategy,
            JoinStrategy::kBroadcast);
  EXPECT_EQ(ResolveJoinStrategy(500, 100, options, config).strategy,
            JoinStrategy::kBroadcast);
  EXPECT_EQ(ResolveJoinStrategy(500, 101, options, config).strategy,
            JoinStrategy::kShuffle);
}

TEST(ResolveJoinStrategyTest, UnknownSizeNeverBroadcasts) {
  cluster::ClusterConfig config = TestConfig();
  const JoinOptions options;
  // Join outputs (unknown planner size) never broadcast, even under the
  // largest threshold there is.
  const uint64_t thresholds[] = {0, ~0ull >> 1, ~0ull};
  for (uint64_t threshold : thresholds) {
    config.broadcast_threshold_bytes = threshold;
    EXPECT_EQ(ResolveJoinStrategy(kUnknownPlannerBytes, kUnknownPlannerBytes,
                                  options, config),
              JoinDecision{})
        << threshold;
  }
}

TEST(ResolveJoinStrategyTest, DisallowedBroadcastAlwaysShuffles) {
  cluster::ClusterConfig config = TestConfig();
  config.broadcast_threshold_bytes = ~0ull >> 1;
  JoinOptions options;
  options.allow_broadcast = false;
  EXPECT_EQ(ResolveJoinStrategy(0, 0, options, config), JoinDecision{});
  EXPECT_EQ(ResolveJoinStrategy(1, kUnknownPlannerBytes, options, config),
            JoinDecision{});
  // The partitioning policy rides along on every decision.
  options.reuse_partitioning = true;
  EXPECT_TRUE(ResolveJoinStrategy(0, 0, options, config).reuse_partitioning);
}

TEST(ResolveJoinStrategyTest, SmallerSideShipsLeftOnTies) {
  cluster::ClusterConfig config = TestConfig();
  config.broadcast_threshold_bytes = 100;
  const JoinOptions options;
  EXPECT_EQ(ResolveJoinStrategy(5, 10, options, config), Broadcast(true));
  EXPECT_EQ(ResolveJoinStrategy(10, 5, options, config), Broadcast(false));
  EXPECT_EQ(ResolveJoinStrategy(7, 7, options, config), Broadcast(true));
  EXPECT_EQ(ResolveJoinStrategy(kUnknownPlannerBytes, 7, options, config),
            Broadcast(false));
}

TEST(HashJoinTest, ShuffleJoinCoLocatesOutput) {
  Relation a = RelationOf({"k", "a"}, {{1, 2}, {2, 3}, {3, 4}, {4, 5}});
  Relation b = RelationOf({"k", "b"}, {{1, 9}, {2, 8}, {3, 7}, {4, 6}});
  cluster::CostModel cost(TestConfig());
  cost.BeginStage("t");
  auto joined = HashJoin(a, b, JoinDecision{}, cost);
  cost.EndStage();
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined->hash_partitioned_by(), 0);
  // Every row sits on the worker its key hashes to.
  for (uint32_t w = 0; w < joined->num_chunks(); ++w) {
    const RelationChunk& chunk = joined->chunks()[w];
    for (size_t r = 0; r < chunk.num_rows(); ++r) {
      EXPECT_EQ(Mix64(chunk.columns[0][r]) % 4, w);
    }
  }
}

TEST(HashJoinTest, ShuffleSkipsAlreadyPartitionedSideWhenAllowed) {
  Relation a = RelationOf({"k", "a"}, {{1, 2}, {2, 3}, {3, 4}, {4, 5}});
  Relation b = RelationOf({"k", "b"}, {{1, 9}, {2, 8}});
  cluster::CostModel cost(TestConfig());

  // Pre-partition `a` on k.
  cost.BeginStage("prep");
  Relation a_parts = RepartitionByColumn(a, 0, 4, cost);
  cost.EndStage();
  uint64_t shuffled_before = cost.counters().bytes_shuffled;

  JoinDecision shuffle;
  shuffle.reuse_partitioning = true;
  cost.BeginStage("join");
  auto joined = HashJoin(a_parts, b, shuffle, cost);
  cost.EndStage();
  ASSERT_TRUE(joined.ok());
  // Only b's bytes were shuffled for the join.
  uint64_t join_shuffle = cost.counters().bytes_shuffled - shuffled_before;
  EXPECT_EQ(join_shuffle, b.EstimatedBytes(cost.config()));

  // Without reuse, both sides move again.
  cluster::CostModel cost2(TestConfig());
  shuffle.reuse_partitioning = false;
  cost2.BeginStage("join");
  auto joined2 = HashJoin(a_parts, b, shuffle, cost2);
  cost2.EndStage();
  ASSERT_TRUE(joined2.ok());
  EXPECT_GT(cost2.counters().bytes_shuffled, join_shuffle);
  EXPECT_EQ(joined->CollectSortedRows(), joined2->CollectSortedRows());
}

// ------------------------------------------ HashJoin exact differential

/// The chunks a shuffle moves `side` into: row r of source chunk c lands
/// on PartitionOf(key) in (source chunk, source row) order, as
/// RepartitionByColumn places it.
std::vector<std::vector<Row>> OraclePartitions(const Relation& side, int key,
                                               uint32_t workers) {
  std::vector<std::vector<Row>> parts(workers);
  for (const Row& row : side.CollectRows()) {
    parts[PartitionOf(row[static_cast<size_t>(key)], workers)].push_back(
        row);
  }
  return parts;
}

/// Nested-loop oracle of HashJoin's exact output: one chunk per probe
/// chunk, rows in (probe row, build row) order, columns left-major (all
/// of left, then right's unshared columns). A shuffle builds on each left
/// partition and probes the right partition; a broadcast builds on the
/// shipped side, gathered chunk by chunk, and probes the other side's
/// chunks where they are.
std::vector<std::vector<Row>> OracleJoin(const Relation& left,
                                         const Relation& right,
                                         const JoinDecision& decision,
                                         uint32_t workers) {
  std::vector<int> lshared, rshared, rextra;
  for (size_t i = 0; i < left.num_columns(); ++i) {
    int j = right.ColumnIndex(left.column_names()[i]);
    if (j >= 0) {
      lshared.push_back(static_cast<int>(i));
      rshared.push_back(j);
    }
  }
  for (size_t j = 0; j < right.num_columns(); ++j) {
    if (std::find(rshared.begin(), rshared.end(), static_cast<int>(j)) ==
        rshared.end()) {
      rextra.push_back(static_cast<int>(j));
    }
  }
  auto joined = [&](const Row& l, const Row& r, std::vector<Row>& out) {
    for (size_t k = 0; k < lshared.size(); ++k) {
      if (l[static_cast<size_t>(lshared[k])] !=
          r[static_cast<size_t>(rshared[k])]) {
        return;
      }
    }
    Row row = l;
    for (int c : rextra) row.push_back(r[static_cast<size_t>(c)]);
    out.push_back(std::move(row));
  };
  std::vector<std::vector<Row>> chunks;
  if (decision.strategy == JoinStrategy::kShuffle) {
    std::vector<std::vector<Row>> lparts =
        OraclePartitions(left, lshared[0], workers);
    std::vector<std::vector<Row>> rparts =
        OraclePartitions(right, rshared[0], workers);
    chunks.resize(workers);
    for (uint32_t w = 0; w < workers; ++w) {
      for (const Row& r : rparts[w]) {
        for (const Row& l : lparts[w]) joined(l, r, chunks[w]);
      }
    }
    return chunks;
  }
  const Relation& big = decision.broadcast_left ? right : left;
  const std::vector<Row> small =
      (decision.broadcast_left ? left : right).CollectRows();
  for (const RelationChunk& chunk : big.chunks()) {
    Relation one(big.column_names(), 1);
    one.mutable_chunks()[0] = chunk;
    std::vector<Row>& out = chunks.emplace_back();
    for (const Row& b : one.CollectRows()) {
      for (const Row& s : small) {
        if (decision.broadcast_left) {
          joined(s, b, out);
        } else {
          joined(b, s, out);
        }
      }
    }
  }
  return chunks;
}

/// Deals `rows` over `chunks` chunks at random, leaving chunk 1 empty.
Relation ScatteredRelation(std::vector<std::string> names,
                           const std::vector<Row>& rows, uint32_t chunks,
                           Rng& rng) {
  Relation relation(std::move(names), chunks);
  for (const Row& row : rows) {
    uint32_t w = static_cast<uint32_t>(rng.NextBounded(chunks - 1));
    w += w >= 1 ? 1 : 0;
    for (size_t c = 0; c < row.size(); ++c) {
      relation.mutable_chunks()[w].columns[c].push_back(row[c]);
    }
  }
  return relation;
}

/// Worker partition that no join key lands on, so every shuffle in the
/// differential below has an empty partition on both sides.
constexpr uint32_t kEmptyPartition = 3;

/// `hot` rows of key `hot_key`, then `n` rows with keys drawn from
/// [1, domain] (shifted past the domain on a `miss` side), none of them
/// in kEmptyPartition. A two-key row adds a second key, 0 on hot rows and
/// 0 or 1 otherwise, so both keys decide a match.
std::vector<Row> JoinRows(Rng& rng, size_t n, size_t hot, uint64_t hot_key,
                          uint64_t domain, bool miss, bool two_keys) {
  std::vector<Row> rows;
  for (size_t i = 0; i < n + hot; ++i) {
    uint64_t key = hot_key;
    if (i >= hot) {
      do {
        key = 1 + rng.NextBounded(domain) + (miss ? domain : 0);
      } while (PartitionOf(key, TestConfig().num_workers) == kEmptyPartition);
    }
    Row row = {key, 1000 + rng.NextBounded(50)};
    if (two_keys) row.push_back(i < hot ? 0 : rng.NextBounded(2));
    rows.push_back(std::move(row));
  }
  return rows;
}

TEST(HashJoinTest, ExactOrderMatchesNestedLoopOracle) {
  const uint32_t workers = TestConfig().num_workers;
  ThreadPool pool(4);
  const ExecContext serial;
  const ExecContext parallel(&pool, /*morsel_rows=*/16);
  const JoinDecision decisions[] = {JoinDecision{}, Broadcast(true),
                                    Broadcast(false)};
  uint64_t hot_key = 1;
  while (PartitionOf(hot_key, workers) == kEmptyPartition) ++hot_key;
  int hot_matches = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    for (bool two_keys : {false, true}) {
      for (bool all_miss : {false, true}) {
        Rng rng(seed * 7919 + (two_keys ? 1 : 0));
        // The hot key is hot on both sides: with shuffle and either
        // broadcast, some probe row meets at least 100 build rows.
        const size_t hot = 100 + rng.NextBounded(20);
        std::vector<Row> lrows =
            JoinRows(rng, 150, hot, hot_key, 40, false, two_keys);
        std::vector<Row> rrows = JoinRows(rng, 120, all_miss ? 0 : hot,
                                          hot_key, 40, all_miss, two_keys);
        // Left (k, a[, j]); right ([j, ]b, k): shared columns sit at
        // different positions on each side.
        std::vector<std::string> lnames = {"k", "a"};
        std::vector<std::string> rnames = {"k", "b"};
        if (two_keys) lnames.push_back("j");
        if (two_keys) rnames.push_back("j");
        for (Row& row : rrows) std::reverse(row.begin(), row.end());
        std::reverse(rnames.begin(), rnames.end());
        Relation left = ScatteredRelation(lnames, lrows, workers, rng);
        Relation right = ScatteredRelation(rnames, rrows, workers, rng);
        for (const JoinDecision& decision : decisions) {
          const std::vector<std::vector<Row>> expected =
              OracleJoin(left, right, decision, workers);
          for (const ExecContext* exec : {&serial, &parallel}) {
            SCOPED_TRACE("seed " + std::to_string(seed) +
                         (two_keys ? " two keys" : " one key") +
                         (all_miss ? " all miss" : "") + " strategy " +
                         std::to_string(static_cast<int>(decision.strategy)) +
                         " left " + std::to_string(decision.broadcast_left) +
                         " threads " + std::to_string(exec->num_threads()));
            cluster::CostModel cost(TestConfig());
            cost.BeginStage("test");
            auto joined = HashJoin(left, right, decision, cost, exec);
            cost.EndStage();
            ASSERT_TRUE(joined.ok()) << joined.status();
            ASSERT_EQ(joined->num_chunks(), expected.size());
            std::vector<std::string> names = lnames;
            names.push_back("b");
            ASSERT_EQ(joined->column_names(), names);
            for (uint32_t w = 0; w < expected.size(); ++w) {
              Relation want = Relation::FromRows(names, expected[w], 1);
              const RelationChunk& got = joined->chunks()[w];
              for (size_t c = 0; c < names.size(); ++c) {
                EXPECT_EQ(got.columns[c], want.chunks()[0].columns[c])
                    << "chunk " << w << ", column " << names[c];
              }
            }
            if (all_miss) {
              EXPECT_EQ(joined->TotalRows(), 0u);
            }
            if (decision.strategy == JoinStrategy::kShuffle) {
              EXPECT_EQ(joined->chunks()[kEmptyPartition].num_rows(), 0u);
            }
            if (!all_miss && joined->TotalRows() >= hot * hot) {
              ++hot_matches;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(hot_matches, 0);
}

// ------------------------------------------------------ Other operators

TEST(ProjectTest, ReordersAndDrops) {
  Relation r = RelationOf({"a", "b", "c"}, {{1, 2, 3}, {4, 5, 6}});
  cluster::CostModel cost(TestConfig());
  auto projected = Project(r, {"c", "a"}, cost);
  ASSERT_TRUE(projected.ok());
  EXPECT_EQ(projected->column_names(),
            (std::vector<std::string>{"c", "a"}));
  EXPECT_EQ(projected->CollectSortedRows(),
            (std::vector<Row>{{3, 1}, {6, 4}}));
  EXPECT_FALSE(Project(r, {"a", "a"}, cost).ok());
  EXPECT_FALSE(Project(r, {"nope"}, cost).ok());
}

TEST(ProjectTest, PartitioningSurvivesWhenColumnKept) {
  Relation r = RelationOf({"a", "b"}, {{1, 2}});
  r.set_hash_partitioned_by(0);
  cluster::CostModel cost(TestConfig());
  auto kept = Project(r, {"a"}, cost);
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(kept->hash_partitioned_by(), 0);
  auto dropped = Project(r, {"b"}, cost);
  ASSERT_TRUE(dropped.ok());
  EXPECT_EQ(dropped->hash_partitioned_by(), -1);
}

TEST(ProjectTest, MovesColumnsAndChargesEveryInputRow) {
  Relation r = RelationOf({"a", "b", "c"},
                          {{1, 2, 3}, {4, 5, 6}, {7, 8, 9}, {10, 11, 12},
                           {13, 14, 15}});
  std::vector<const TermId*> buffers;
  for (const RelationChunk& chunk : r.chunks()) {
    buffers.push_back(chunk.columns[2].data());
  }
  // The charge Project made before it moved: one CPU row per input row
  // on each chunk's worker.
  cluster::CostModel expected(TestConfig());
  expected.BeginStage("t");
  for (uint32_t w = 0; w < r.num_chunks(); ++w) {
    expected.ChargeCpuRows(w, r.chunks()[w].num_rows());
  }
  expected.EndStage();

  cluster::CostModel cost(TestConfig());
  cost.BeginStage("t");
  auto projected = Project(std::move(r), {"c", "a"}, cost);
  cost.EndStage();
  ASSERT_TRUE(projected.ok());
  EXPECT_EQ(projected->CollectSortedRows(),
            (std::vector<Row>{{3, 1}, {6, 4}, {9, 7}, {12, 10}, {15, 13}}));
  for (uint32_t w = 0; w < projected->num_chunks(); ++w) {
    EXPECT_EQ(projected->chunks()[w].columns[0].data(), buffers[w])
        << "chunk " << w;
  }
  EXPECT_EQ(cost.ElapsedMillis(), expected.ElapsedMillis());
  EXPECT_EQ(cost.counters().rows_processed,
            expected.counters().rows_processed);
}

TEST(DistinctTest, RemovesDuplicatesGlobally) {
  // Same logical row placed in different chunks must still deduplicate.
  Relation r({"a", "b"}, 3);
  for (uint32_t w = 0; w < 3; ++w) {
    r.mutable_chunks()[w].columns[0].push_back(1);
    r.mutable_chunks()[w].columns[1].push_back(2);
  }
  r.mutable_chunks()[0].columns[0].push_back(9);
  r.mutable_chunks()[0].columns[1].push_back(9);
  cluster::CostModel cost(TestConfig());
  cost.BeginStage("t");
  auto distinct = Distinct(r, cost);
  cost.EndStage();
  ASSERT_TRUE(distinct.ok());
  EXPECT_EQ(distinct->CollectSortedRows(),
            (std::vector<Row>{{1, 2}, {9, 9}}));
}

TEST(LimitTest, TruncatesAcrossChunks) {
  Relation r = RelationOf({"a"}, {{1}, {2}, {3}, {4}, {5}});
  EXPECT_EQ(Limit(r, 2).TotalRows(), 2u);
  EXPECT_EQ(Limit(r, 0).TotalRows(), 0u);
  EXPECT_EQ(Limit(r, 99).TotalRows(), 5u);
  // Rows deal round-robin, so chunk 0 holds 1 and 5: the first chunk's
  // rows are kept, in place.
  const TermId* first = r.chunks()[0].columns[0].data();
  Relation limited = Limit(std::move(r), 3);
  EXPECT_EQ(limited.CollectRows(), (std::vector<Row>{{1}, {5}, {2}}));
  EXPECT_EQ(limited.chunks()[0].columns[0].data(), first);
}

TEST(RepartitionTest, CoLocatesEqualKeys) {
  Rng rng(5);
  std::vector<Row> rows;
  for (int i = 0; i < 200; ++i) {
    rows.push_back({1 + rng.NextBounded(20), rng.Next()});
  }
  Relation r = RelationOf({"k", "v"}, rows);
  cluster::CostModel cost(TestConfig());
  cost.BeginStage("t");
  Relation parts = RepartitionByColumn(r, 0, 4, cost);
  cost.EndStage();
  EXPECT_EQ(parts.hash_partitioned_by(), 0);
  EXPECT_EQ(parts.TotalRows(), 200u);
  std::map<TermId, std::set<uint32_t>> owner;
  for (uint32_t w = 0; w < parts.num_chunks(); ++w) {
    const RelationChunk& chunk = parts.chunks()[w];
    for (size_t i = 0; i < chunk.num_rows(); ++i) {
      owner[chunk.columns[0][i]].insert(w);
    }
  }
  for (const auto& [key, workers] : owner) {
    EXPECT_EQ(workers.size(), 1u) << "key " << key << " split";
  }
}

}  // namespace
}  // namespace prost::engine
