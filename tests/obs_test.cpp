// Tests for the observability subsystem: the metrics registry, the
// query-profile span tree, and the EXPLAIN ANALYZE / JSON reports.
//
// The central invariant under test: exclusive span charges partition the
// CostModel's accounted clock, so summing them over any profile
// reproduces the query's simulated_millis — per operator attribution
// with nothing double-counted and nothing dropped.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <regex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cost_model.h"
#include "core/prost_db.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "sparql/parser.h"
#include "watdiv/generator.h"
#include "watdiv/queries.h"

namespace prost {
namespace {

// ---------------------------------------------------------------------
// Metrics registry.

TEST(MetricsTest, CounterGaugeBasics) {
  obs::MetricsRegistry registry;
  obs::Counter& counter = registry.counter("queries");
  counter.Increment();
  counter.Add(4);
  EXPECT_EQ(counter.value(), 5u);
  // Registration is idempotent: same name, same handle.
  EXPECT_EQ(&registry.counter("queries"), &counter);

  registry.gauge("ratio").Set(0.75);
  EXPECT_DOUBLE_EQ(registry.gauge("ratio").value(), 0.75);

  obs::MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.counter("queries"), 5u);
  EXPECT_DOUBLE_EQ(snapshot.gauge("ratio"), 0.75);
  // Missing names read as zero, not as errors.
  EXPECT_EQ(snapshot.counter("no-such"), 0u);
  EXPECT_DOUBLE_EQ(snapshot.gauge("no-such"), 0.0);
}

TEST(MetricsTest, HistogramBucketsAreInclusiveUpperBounds) {
  obs::MetricsRegistry registry;
  obs::Histogram& hist = registry.histogram("h", {1.0, 2.0, 4.0});
  hist.Observe(0.5);    // bucket 0
  hist.Observe(1.0);    // bucket 0 (inclusive upper bound)
  hist.Observe(1.5);    // bucket 1
  hist.Observe(4.0);    // bucket 2 (inclusive upper bound)
  hist.Observe(100.0);  // overflow bucket
  EXPECT_EQ(hist.count(), 5u);
  EXPECT_DOUBLE_EQ(hist.sum(), 107.0);  // exact: sum kept in micro-units
  EXPECT_EQ(hist.bucket_count(0), 2u);
  EXPECT_EQ(hist.bucket_count(1), 1u);
  EXPECT_EQ(hist.bucket_count(2), 1u);
  EXPECT_EQ(hist.bucket_count(3), 1u);

  obs::MetricsSnapshot snapshot = registry.Snapshot();
  const auto& data = snapshot.histograms.at("h");
  EXPECT_EQ(data.count, 5u);
  EXPECT_EQ(data.bucket_counts,
            (std::vector<uint64_t>{2, 1, 1, 1}));
}

TEST(MetricsTest, ConcurrentUpdatesAreExact) {
  obs::MetricsRegistry registry;
  // Pre-register so the threads exercise the lock-free update path and
  // the (mutex-guarded) lookup path concurrently.
  registry.counter("hits");
  constexpr int kThreads = 8;
  constexpr int kIterations = 10000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&registry] {
      obs::Counter& hits = registry.counter("hits");
      obs::Histogram& lat = registry.histogram("lat", {1.0, 10.0});
      for (int i = 0; i < kIterations; ++i) {
        hits.Increment();
        lat.Observe(0.5);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  obs::MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.counter("hits"),
            static_cast<uint64_t>(kThreads) * kIterations);
  const auto& lat = snapshot.histograms.at("lat");
  EXPECT_EQ(lat.count, static_cast<uint64_t>(kThreads) * kIterations);
  EXPECT_DOUBLE_EQ(lat.sum, kThreads * kIterations * 0.5);
}

TEST(MetricsTest, HistogramSnapshotNeverTearsUnderConcurrentObserve) {
  // Regression: Observe used to bump `count_` first (relaxed), so a
  // concurrent Snapshot could read a count that included observations
  // whose bucket/sum updates it could not yet see — `sum(buckets)` and
  // `sum` ran *behind* `count`. With the release-count-last /
  // acquire-count-first protocol the skew is one-directional: every
  // counted observation is already in its bucket and in the sum.
  obs::MetricsRegistry registry;
  obs::Histogram& hist = registry.histogram("tear", {1.0, 4.0});
  constexpr int kWriters = 4;
  constexpr int kIterations = 20000;
  constexpr double kValue = 0.5;  // 0.5 -> bucket 0; micros stay exact.
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&hist] {
      for (int i = 0; i < kIterations; ++i) hist.Observe(kValue);
    });
  }
  std::thread reader([&registry, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      obs::MetricsSnapshot snapshot = registry.Snapshot();
      const auto& data = snapshot.histograms.at("tear");
      uint64_t bucket_sum = 0;
      for (uint64_t c : data.bucket_counts) bucket_sum += c;
      // The invariants a mid-storm snapshot must keep.
      EXPECT_GE(bucket_sum, data.count);
      EXPECT_GE(data.sum + 1e-9, kValue * static_cast<double>(data.count));
    }
  });
  for (std::thread& writer : writers) writer.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  // Quiescent totals are exact.
  obs::MetricsSnapshot final_snapshot = registry.Snapshot();
  const auto& data = final_snapshot.histograms.at("tear");
  constexpr uint64_t kTotal = static_cast<uint64_t>(kWriters) * kIterations;
  EXPECT_EQ(data.count, kTotal);
  EXPECT_EQ(data.bucket_counts[0], kTotal);
  EXPECT_DOUBLE_EQ(data.sum, kValue * static_cast<double>(kTotal));
}

TEST(MetricsTest, SnapshotJsonIsStable) {
  obs::MetricsRegistry registry;
  registry.counter("b.count").Add(2);
  registry.counter("a.count").Add(1);
  registry.gauge("g").Set(1.5);
  registry.histogram("h", {1.0}).Observe(0.5);
  std::string json = registry.Snapshot().ToJson();
  // Sorted keys, all three sections present.
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_LT(json.find("a.count"), json.find("b.count"));
  // Stable: rendering twice gives the same bytes.
  EXPECT_EQ(json, registry.Snapshot().ToJson());
}

// ---------------------------------------------------------------------
// QueryProfile: exclusive-charge segmentation.

TEST(QueryProfileTest, ExclusiveChargesPartitionTheClock) {
  // Drive the profile with hand-picked accounted-clock values:
  //   root opens at 0, scan spans [10, 30], join spans [30, 45] with a
  //   nested exchange [32, 40], root closes at 50.
  obs::QueryProfile profile;
  int32_t root = profile.OpenSpan(obs::SpanKind::kQuery, "q", 0.0);
  int32_t scan = profile.OpenSpan(obs::SpanKind::kScan, "scan", 10.0);
  profile.CloseSpan(scan, 30.0);
  int32_t join = profile.OpenSpan(obs::SpanKind::kJoin, "join", 30.0);
  int32_t exchange = profile.OpenSpan(obs::SpanKind::kExchange, "x", 32.0);
  profile.CloseSpan(exchange, 40.0);
  profile.CloseSpan(join, 45.0);
  profile.CloseSpan(root, 50.0);
  profile.Finish(50.0, cluster::ExecutionCounters{});

  ASSERT_EQ(profile.spans().size(), 4u);
  const obs::Span& r = profile.spans()[static_cast<size_t>(root)];
  const obs::Span& s = profile.spans()[static_cast<size_t>(scan)];
  const obs::Span& j = profile.spans()[static_cast<size_t>(join)];
  const obs::Span& x = profile.spans()[static_cast<size_t>(exchange)];

  // Tree shape.
  EXPECT_EQ(r.parent, -1);
  EXPECT_EQ(s.parent, root);
  EXPECT_EQ(j.parent, root);
  EXPECT_EQ(x.parent, join);
  EXPECT_EQ(r.children, (std::vector<int32_t>{scan, join}));
  EXPECT_EQ(j.children, (std::vector<int32_t>{exchange}));

  // Exclusive charges: the clock advance while each span was innermost.
  EXPECT_DOUBLE_EQ(r.charge_millis, 15.0);  // [0,10] + [45,50]
  EXPECT_DOUBLE_EQ(s.charge_millis, 20.0);  // [10,30]
  EXPECT_DOUBLE_EQ(j.charge_millis, 7.0);   // [30,32] + [40,45]
  EXPECT_DOUBLE_EQ(x.charge_millis, 8.0);   // [32,40]

  // Inclusive rollups.
  EXPECT_DOUBLE_EQ(x.total_charge_millis, 8.0);
  EXPECT_DOUBLE_EQ(j.total_charge_millis, 15.0);
  EXPECT_DOUBLE_EQ(r.total_charge_millis, 50.0);

  // The partition property: exclusive charges sum to the whole clock.
  EXPECT_DOUBLE_EQ(profile.TotalChargedMillis(), 50.0);
  EXPECT_TRUE(profile.finished());
  EXPECT_DOUBLE_EQ(profile.simulated_millis(), 50.0);
}

TEST(OperatorSpanTest, AttributesCostModelDeltas) {
  cluster::ClusterConfig config;
  cluster::CostModel cost(config);
  obs::QueryProfile profile;
  {
    obs::OperatorSpan query_span(&profile, cost, obs::SpanKind::kQuery, "");
    cost.BeginStage("s");
    {
      obs::OperatorSpan scan(&profile, cost, obs::SpanKind::kScan, "scan");
      scan.SetRowsOut(100);
      cost.ChargeScan(0, 1 << 20);
    }
    {
      obs::OperatorSpan shuffle(&profile, cost, obs::SpanKind::kExchange,
                                "x");
      cost.ChargeShuffle(1 << 16);
    }
    cost.EndStage();
  }
  profile.Finish(cost.ElapsedMillis(), cost.counters());

  ASSERT_EQ(profile.spans().size(), 3u);
  const obs::Span& scan = profile.spans()[1];
  const obs::Span& shuffle = profile.spans()[2];
  EXPECT_EQ(scan.rows_out, 100u);
  EXPECT_EQ(scan.bytes_scanned, static_cast<uint64_t>(1) << 20);
  EXPECT_EQ(scan.bytes_shuffled, 0u);
  EXPECT_EQ(shuffle.bytes_shuffled, static_cast<uint64_t>(1) << 16);
  EXPECT_GT(scan.charge_millis, 0.0);      // scan work raised the clock
  EXPECT_GT(shuffle.charge_millis, 0.0);   // transfer raised it again
  EXPECT_GE(scan.wall_millis, 0.0);
  // The accounted clock telescopes: sum of charges == simulated time.
  EXPECT_NEAR(profile.TotalChargedMillis(), cost.ElapsedMillis(),
              1e-9 * (1.0 + cost.ElapsedMillis()));
}

TEST(OperatorSpanTest, NullProfileIsInert) {
  cluster::ClusterConfig config;
  cluster::CostModel cost(config);
  obs::OperatorSpan span(nullptr, cost, obs::SpanKind::kScan, "scan");
  EXPECT_FALSE(span.active());
  span.SetDetail("d");
  span.SetRowsIn(1);
  span.SetRowsOut(2);
  span.SetEstimatedRows(3.0);
  span.Close();  // Idempotent, no profile to touch.
}

// ---------------------------------------------------------------------
// End-to-end: profiles from real query execution.

class ObsIntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    watdiv::WatDivConfig config;
    config.target_triples = 20000;
    config.seed = 7;
    watdiv::WatDivDataset dataset = watdiv::Generate(config);
    dataset.graph.SortAndDedupe();
    core::ProstDb::Options options;
    auto db = core::ProstDb::LoadFromGraph(std::move(dataset.graph), options);
    ASSERT_TRUE(db.ok()) << db.status();
    db_ = std::move(db).value();
    watdiv::WatDivDataset sizing_only;  // Queries depend only on IRIs.
    queries_ = watdiv::BasicQuerySet(sizing_only);
  }
  static void TearDownTestSuite() { db_.reset(); }

  static std::unique_ptr<core::ProstDb> db_;
  static std::vector<watdiv::WatDivQuery> queries_;
};

std::unique_ptr<core::ProstDb> ObsIntegrationTest::db_;
std::vector<watdiv::WatDivQuery> ObsIntegrationTest::queries_;

TEST_F(ObsIntegrationTest, SpanTreeMatchesPlanOnEveryQuery) {
  ASSERT_EQ(queries_.size(), 20u);
  for (const watdiv::WatDivQuery& wq : queries_) {
    SCOPED_TRACE(wq.id);
    auto parsed = sparql::ParseQuery(wq.sparql);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    auto tree = db_->Plan(*parsed);
    ASSERT_TRUE(tree.ok()) << tree.status();

    obs::QueryProfile profile;
    auto result = db_->Execute(*parsed, &profile);
    ASSERT_TRUE(result.ok()) << result.status();

    ASSERT_TRUE(profile.finished());
    ASSERT_GE(profile.root(), 0);
    const obs::Span& root = profile.spans()[0];
    EXPECT_EQ(root.kind, obs::SpanKind::kQuery);
    EXPECT_EQ(root.rows_out, result->relation.TotalRows());
    // Spans nest the way the physical plan nests, and the plan is one
    // rooted tree: the query span has exactly one child (the plan root).
    ASSERT_EQ(root.children.size(), 1u);

    // One scan span per join-tree node, labelled like the node, with the
    // planner's estimate attached; one join span per non-leading node.
    // The cost-based join_order pass may permute the scans, so labels
    // are compared as a multiset rather than positionally. The modifier
    // tail executes as plan nodes on this path, so no kModifiers
    // container span appears.
    std::vector<const obs::Span*> scans;
    std::vector<const obs::Span*> joins;
    for (const obs::Span& span : profile.spans()) {
      switch (span.kind) {
        case obs::SpanKind::kScan:
          scans.push_back(&span);
          break;
        case obs::SpanKind::kJoin:
          joins.push_back(&span);
          break;
        case obs::SpanKind::kModifiers:
          ADD_FAILURE() << "kModifiers span on the plan-interpreter path";
          break;
        default:
          break;
      }
    }
    ASSERT_EQ(scans.size(), tree->nodes.size());
    EXPECT_EQ(joins.size(), tree->nodes.size() - 1);
    std::multiset<std::string> tree_labels, scan_labels;
    for (const core::JoinTreeNode& node : tree->nodes) {
      tree_labels.insert(node.Label());
    }
    for (size_t i = 0; i < scans.size(); ++i) {
      scan_labels.insert(scans[i]->label);
      // Estimated-vs-actual cardinality is recorded per node. With the
      // statistics subsystem in place the estimate is the refined one
      // (characteristic sets + pushed-filter selectivity), not the raw
      // §3.3 priority, so assert validity rather than exact equality.
      EXPECT_TRUE(std::isfinite(scans[i]->estimated_rows)) << "node " << i;
      EXPECT_GT(scans[i]->estimated_rows, 0.0) << "node " << i;
      // Scans are leaves of the join chain: each nests under a join span
      // or under the optimizer-inserted prune feeding one (single-pattern
      // plans nest directly under the tail chain instead).
      ASSERT_GE(scans[i]->parent, 0);
      if (tree->nodes.size() > 1) {
        const obs::Span& parent =
            profile.spans()[static_cast<size_t>(scans[i]->parent)];
        EXPECT_TRUE(parent.kind == obs::SpanKind::kJoin ||
                    (parent.kind == obs::SpanKind::kProject &&
                     parent.detail == "prune"))
            << "node " << i << ": parent " << obs::SpanKindName(parent.kind);
      }
    }
    EXPECT_EQ(scan_labels, tree_labels);
    for (const obs::Span* join : joins) {
      // The strategy the optimizer resolved at plan time is what executed
      // (the interpreter asserts planned == derived in paranoid builds).
      EXPECT_TRUE(join->detail == "broadcast" || join->detail == "shuffle")
          << join->detail;
    }

    // The accounting invariant, end to end: exclusive charges sum to
    // the simulated time, and the root's rollup equals it too.
    const double tolerance = 1e-9 * (1.0 + result->simulated_millis);
    EXPECT_NEAR(profile.TotalChargedMillis(), result->simulated_millis,
                tolerance);
    EXPECT_NEAR(root.total_charge_millis, result->simulated_millis,
                tolerance);
    EXPECT_DOUBLE_EQ(profile.simulated_millis(), result->simulated_millis);
    EXPECT_EQ(profile.counters().stages, result->counters.stages);
  }
}

TEST_F(ObsIntegrationTest, ExecuteUpdatesDbMetrics) {
  obs::MetricsSnapshot before = db_->metrics().Snapshot();
  auto parsed = sparql::ParseQuery(queries_[0].sparql);
  ASSERT_TRUE(parsed.ok());
  auto result = db_->Execute(*parsed);
  ASSERT_TRUE(result.ok()) << result.status();
  obs::MetricsSnapshot after = db_->metrics().Snapshot();
  EXPECT_EQ(after.counter("query.executed"),
            before.counter("query.executed") + 1);
  EXPECT_EQ(after.counter("query.rows"),
            before.counter("query.rows") + result->relation.TotalRows());
  EXPECT_EQ(after.histograms.at("query.simulated_ms").count,
            before.counter("query.executed") + 1);
}

TEST_F(ObsIntegrationTest, ConcurrentExecuteCountsAreExact) {
  // Execute() no longer serializes, so the lifetime metrics must stay
  // exact when many queries race: counters are single atomic words (no
  // increment can be lost or torn) and the simulated_ms histogram seals
  // each observation with a release increment of its count. Mix
  // succeeding runs with deterministic budget failures and check the
  // per-query deltas add up to the thread count exactly.
  size_t victim = queries_.size();
  sparql::Query query;
  uint64_t rows_per_query = 0;
  for (size_t i = 0; i < queries_.size(); ++i) {
    auto parsed = sparql::ParseQuery(queries_[i].sparql);
    ASSERT_TRUE(parsed.ok()) << queries_[i].id << ": " << parsed.status();
    auto result = db_->Execute(*parsed);
    ASSERT_TRUE(result.ok()) << queries_[i].id << ": " << result.status();
    if (result->relation.TotalRows() >= 2) {
      victim = i;
      query = std::move(parsed).value();
      rows_per_query = result->relation.TotalRows();
      break;
    }
  }
  ASSERT_LT(victim, queries_.size()) << "no multi-row query in the set";

  engine::QueryBudget tight;
  tight.max_rows = 1;  // Trips deterministically: the query has >= 2 rows.
  constexpr int kThreads = 4;
  constexpr int kOkPerThread = 6;
  constexpr int kFailPerThread = 3;

  obs::MetricsSnapshot before = db_->metrics().Snapshot();
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kOkPerThread; ++i) {
        auto result = db_->Execute(query);
        ASSERT_TRUE(result.ok()) << result.status();
      }
      for (int i = 0; i < kFailPerThread; ++i) {
        auto result = db_->Execute(query, nullptr, &tight);
        ASSERT_FALSE(result.ok());
        ASSERT_EQ(result.status().code(), StatusCode::kResourceExhausted)
            << result.status();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  obs::MetricsSnapshot after = db_->metrics().Snapshot();
  const uint64_t executed = kThreads * kOkPerThread;
  const uint64_t failed = kThreads * kFailPerThread;
  EXPECT_EQ(after.counter("query.executed"),
            before.counter("query.executed") + executed);
  EXPECT_EQ(after.counter("query.failed"),
            before.counter("query.failed") + failed);
  EXPECT_EQ(after.counter("query.rows"),
            before.counter("query.rows") + executed * rows_per_query);
  // Every successful execution lands exactly one histogram observation;
  // failures land none.
  EXPECT_EQ(after.histograms.at("query.simulated_ms").count,
            before.histograms.at("query.simulated_ms").count + executed);
}

TEST_F(ObsIntegrationTest, ProfileJsonIsWellFormed) {
  auto parsed = sparql::ParseQuery(queries_[0].sparql);
  ASSERT_TRUE(parsed.ok());
  obs::QueryProfile profile;
  auto result = db_->Execute(*parsed, &profile);
  ASSERT_TRUE(result.ok()) << result.status();
  std::string json = obs::ProfileJson(profile);
  EXPECT_NE(json.find("\"simulated_millis\""), std::string::npos);
  EXPECT_NE(json.find("\"trace\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"query\""), std::string::npos);
  // Balanced braces/brackets — cheap well-formedness check without a
  // JSON parser in the test deps.
  int braces = 0;
  int brackets = 0;
  for (char c : json) {
    braces += c == '{' ? 1 : c == '}' ? -1 : 0;
    brackets += c == '[' ? 1 : c == ']' ? -1 : 0;
    ASSERT_GE(braces, 0);
    ASSERT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

/// Masks the simulated-charge figures (which move whenever a cost-model
/// constant is tuned) while keeping structure, labels, row counts, and
/// estimates — the parts EXPLAIN ANALYZE must keep stable.
std::string MaskTimes(const std::string& text) {
  static const std::regex times(R"(\d+\.\d+ ?ms)");
  return std::regex_replace(text, times, "#ms");
}

TEST_F(ObsIntegrationTest, GoldenExplainAnalyzeForWatDivL2) {
  const watdiv::WatDivQuery* l2 = nullptr;
  for (const watdiv::WatDivQuery& wq : queries_) {
    if (wq.id == "L2") l2 = &wq;
  }
  ASSERT_NE(l2, nullptr);
  auto parsed = sparql::ParseQuery(l2->sparql);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  obs::QueryProfile profile;
  auto result = db_->Execute(*parsed, &profile);
  ASSERT_TRUE(result.ok()) << result.status();

  std::string masked = MaskTimes(obs::ExplainAnalyze(profile));
  EXPECT_EQ(masked, std::string(
      R"(EXPLAIN ANALYZE  (simulated #ms, 1 stages, charged #ms)
query  rows=1  charge=#ms (total=#ms)  scanned=174.1 KB  broadcast=216 B
└─ project v1,v2  rows=1  charge=#ms (total=#ms)  scanned=174.1 KB  broadcast=216 B
   └─ join PT(?v2 <http://db.uwaterloo.ca/~galuc/wsdbm/likes> <http://db.uwaterloo.ca/~galuc/wsdbm/Product0> ; ?v2 <http://schema.org/nationality> ?v1) [broadcast]  rows=1 (in=98)  est=1.0  charge=#ms (total=#ms)  scanned=174.1 KB  broadcast=216 B
      ├─ scan VP(<http://db.uwaterloo.ca/~galuc/wsdbm/City0> <http://www.geonames.org/ontology#parentCountry> ?v1) [VP]  rows=1 (in=20)  est=1.0  charge=#ms  bytes=1.7 KB/337 B, skipped=0 (+8 bloom partitions)
      └─ scan PT(?v2 <http://db.uwaterloo.ca/~galuc/wsdbm/likes> <http://db.uwaterloo.ca/~galuc/wsdbm/Product0> ; ?v2 <http://schema.org/nationality> ?v1) [PT]  rows=97 (in=2279)  est=4.0  charge=#ms  bytes=173.8 KB/173.8 KB, skipped=0
)"));
}

}  // namespace
}  // namespace prost
