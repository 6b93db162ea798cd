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
