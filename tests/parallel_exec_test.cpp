// Verification harness for the morsel-driven parallel executor.
//
// Two properties are enforced, both stronger than "same bag of rows":
//
//  1. Differential: over seeded random graphs and random BGP queries, a
//     PRoST instance running with num_threads in {2, 4, 8} must produce a
//     result relation *bit-identical* to the serial instance (same chunk
//     layout, same row order, same columns) and, sorted, equal to the
//     brute-force reference evaluator.
//  2. Determinism: every WatDiv basic query, run twice at num_threads = 8,
//     must return byte-identical relations — and identical to the serial
//     run, with the identical simulated time (the cost model must not see
//     real parallelism).
//
// Tests use a tiny morsel size so even small relations split into many
// morsels at 2+ threads, forcing the multi-morsel merges; one thread
// runs one task per chunk.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/prost_db.h"
#include "obs/trace.h"
#include "random_workload.h"
#include "reference_evaluator.h"
#include "sparql/parser.h"
#include "watdiv/generator.h"
#include "watdiv/queries.h"

namespace prost {
namespace {

using SharedGraph = std::shared_ptr<const rdf::EncodedGraph>;

/// Morsel size small enough that a few-hundred-row relation still splits
/// into many morsels per chunk.
constexpr uint32_t kTinyMorselRows = 64;

std::unique_ptr<core::ProstDb> MakeDb(const SharedGraph& graph,
                                      uint32_t num_threads,
                                      uint32_t morsel_rows) {
  core::ProstDb::Options options;
  options.exec.num_threads = num_threads;
  options.exec.morsel_rows = morsel_rows;
  auto db = core::ProstDb::LoadFromSharedGraph(graph, options);
  EXPECT_TRUE(db.ok()) << db.status();
  return db.ok() ? std::move(db).value() : nullptr;
}

/// Bit-identity: same column names, same chunk count, and every chunk's
/// every column is the same vector — row order included.
void ExpectBitIdentical(const engine::Relation& actual,
                        const engine::Relation& expected,
                        const std::string& context) {
  ASSERT_EQ(actual.column_names(), expected.column_names()) << context;
  ASSERT_EQ(actual.num_chunks(), expected.num_chunks()) << context;
  for (uint32_t w = 0; w < expected.num_chunks(); ++w) {
    const engine::RelationChunk& a = actual.chunks()[w];
    const engine::RelationChunk& e = expected.chunks()[w];
    ASSERT_EQ(a.columns.size(), e.columns.size())
        << context << ", chunk " << w;
    for (size_t c = 0; c < e.columns.size(); ++c) {
      EXPECT_EQ(a.columns[c], e.columns[c])
          << context << ", chunk " << w << ", column "
          << expected.column_names()[c];
    }
  }
}

class ParallelDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelDifferentialTest, ParallelMatchesSerialAndReference) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  Rng rng(seed * 6151 + 29);
  size_t triples = 120 + rng.NextBounded(500);
  size_t entities = 10 + rng.NextBounded(40);
  size_t predicates = 2 + rng.NextBounded(6);
  auto graph = std::make_shared<const rdf::EncodedGraph>(
      testing::RandomGraph(rng, triples, entities, predicates));

  auto serial = MakeDb(graph, 1, kTinyMorselRows);
  ASSERT_NE(serial, nullptr);
  std::vector<std::unique_ptr<core::ProstDb>> parallel;
  for (uint32_t threads : {2u, 4u, 8u}) {
    parallel.push_back(MakeDb(graph, threads, kTinyMorselRows));
    ASSERT_NE(parallel.back(), nullptr);
  }

  int interesting = 0;
  for (int round = 0; round < 10; ++round) {
    sparql::Query query;
    if (round == 0) {
      // One guaranteed non-empty query per seed: an open scan of a
      // predicate that actually occurs in the data.
      sparql::TriplePattern pattern;
      pattern.subject = rdf::Term::Variable("v0");
      pattern.object = rdf::Term::Variable("v1");
      rdf::TermId predicate_id = graph->DistinctPredicates().front();
      pattern.predicate = *graph->dictionary().DecodeTerm(predicate_id);
      query.bgp.patterns.push_back(std::move(pattern));
    } else {
      size_t num_patterns = 1 + rng.NextBounded(4);
      query = testing::RandomQuery(rng, *graph, num_patterns, predicates);
    }
    if (!sparql::ValidateQuery(query).ok()) continue;  // e.g. all-const.
    SCOPED_TRACE("seed " + std::to_string(seed) + " round " +
                 std::to_string(round) + "\n" + query.ToString());

    auto expected = testing::ReferenceEvaluate(query, *graph);
    auto serial_result = serial->Execute(query);
    ASSERT_TRUE(serial_result.ok()) << serial_result.status();
    EXPECT_EQ(serial_result->relation.CollectSortedRows(), expected);
    if (!expected.empty()) ++interesting;

    for (size_t i = 0; i < parallel.size(); ++i) {
      const uint32_t threads =
          parallel[i]->options().exec.num_threads;
      auto result = parallel[i]->Execute(query);
      ASSERT_TRUE(result.ok())
          << threads << " threads: " << result.status();
      ExpectBitIdentical(result->relation, serial_result->relation,
                         std::to_string(threads) + " threads vs serial");
      EXPECT_EQ(result->relation.CollectSortedRows(), expected)
          << threads << " threads vs reference";
      // The simulated cluster clock must not notice real parallelism.
      EXPECT_DOUBLE_EQ(result->simulated_millis,
                       serial_result->simulated_millis)
          << threads << " threads";
    }
  }
  EXPECT_GT(interesting, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelDifferentialTest,
                         ::testing::Range(0, 6));

TEST(ParallelExecConcurrencyTest, ConcurrentExecuteSharesOnePoolSafely) {
  // Execute() is const and safe to call concurrently; on a
  // parallel-configured db every call shares the one thread pool, each
  // execution running as its own task region (no serialization — the
  // regions genuinely overlap). Hammer a single db from several threads
  // and check each result bit-for-bit against the serial engine.
  // serving_stress_test covers the same property at scale through
  // serve::SessionManager.
  Rng rng(4242);
  auto graph = std::make_shared<const rdf::EncodedGraph>(
      testing::RandomGraph(rng, 400, 30, 5));
  auto parallel = MakeDb(graph, 4, kTinyMorselRows);
  ASSERT_NE(parallel, nullptr);
  auto serial = MakeDb(graph, 1, kTinyMorselRows);
  ASSERT_NE(serial, nullptr);

  std::vector<sparql::Query> queries;
  while (queries.size() < 4) {
    sparql::Query query =
        testing::RandomQuery(rng, *graph, 1 + rng.NextBounded(3), 5);
    if (sparql::ValidateQuery(query).ok()) queries.push_back(std::move(query));
  }
  std::vector<core::QueryResult> expected;
  for (const sparql::Query& query : queries) {
    auto result = serial->Execute(query);
    ASSERT_TRUE(result.ok()) << result.status();
    expected.push_back(std::move(result).value());
  }

  constexpr int kCallers = 4;
  constexpr int kIterations = 8;
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      for (int iter = 0; iter < kIterations; ++iter) {
        size_t q = static_cast<size_t>(t + iter) % queries.size();
        auto result = parallel->Execute(queries[q]);
        ASSERT_TRUE(result.ok())
            << "caller " << t << " iter " << iter << ": " << result.status();
        ExpectBitIdentical(result->relation, expected[q].relation,
                           "caller " + std::to_string(t) + " iter " +
                               std::to_string(iter) + " query " +
                               std::to_string(q));
        EXPECT_DOUBLE_EQ(result->simulated_millis,
                         expected[q].simulated_millis)
            << "caller " << t << " query " << q;
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
}

TEST(ParallelExecConfigTest, ZeroThreadsUsesCoresPerWorker) {
  Rng rng(991);
  auto graph = std::make_shared<const rdf::EncodedGraph>(
      testing::RandomGraph(rng, 300, 25, 4));

  core::ProstDb::Options options;
  options.exec.num_threads = 0;  // Resolve from the cluster description.
  options.exec.morsel_rows = kTinyMorselRows;
  ASSERT_EQ(options.cluster.cores_per_worker, 6u);  // Paper §4.1 default.
  auto db = core::ProstDb::LoadFromSharedGraph(graph, options);
  ASSERT_TRUE(db.ok()) << db.status();

  auto serial = MakeDb(graph, 1, kTinyMorselRows);
  ASSERT_NE(serial, nullptr);
  sparql::Query query;
  do {
    query = testing::RandomQuery(rng, *graph, 3, 4);
  } while (!sparql::ValidateQuery(query).ok());
  auto parallel_result = (*db)->Execute(query);
  auto serial_result = serial->Execute(query);
  ASSERT_TRUE(parallel_result.ok()) << parallel_result.status();
  ASSERT_TRUE(serial_result.ok()) << serial_result.status();
  ExpectBitIdentical(parallel_result->relation, serial_result->relation,
                     "cores_per_worker resolution");
}

class WatDivDeterminismTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    watdiv::WatDivConfig config;
    config.target_triples = 40000;
    config.seed = 7;
    watdiv::WatDivDataset dataset = watdiv::Generate(config);
    dataset.graph.SortAndDedupe();
    graph_ = std::make_shared<const rdf::EncodedGraph>(
        std::move(dataset.graph));
    watdiv::WatDivDataset sizing_only;  // Queries depend only on IRIs.
    queries_ = watdiv::BasicQuerySet(sizing_only);
  }

  static void TearDownTestSuite() { graph_.reset(); }

  static SharedGraph graph_;
  static std::vector<watdiv::WatDivQuery> queries_;
};

SharedGraph WatDivDeterminismTest::graph_;
std::vector<watdiv::WatDivQuery> WatDivDeterminismTest::queries_;

TEST_F(WatDivDeterminismTest, EightThreadsIsDeterministicAndMatchesSerial) {
  ASSERT_EQ(queries_.size(), 20u);
  // Morsels sized so the 40k-triple relations split into real morsel
  // counts without making the run quadratic.
  auto serial = MakeDb(graph_, 1, 256);
  auto parallel = MakeDb(graph_, 8, 256);
  ASSERT_NE(serial, nullptr);
  ASSERT_NE(parallel, nullptr);

  for (const watdiv::WatDivQuery& wq : queries_) {
    auto parsed = sparql::ParseQuery(wq.sparql);
    ASSERT_TRUE(parsed.ok()) << wq.id << ": " << parsed.status();
    const sparql::Query& query = parsed.value();

    auto first = parallel->Execute(query);
    auto second = parallel->Execute(query);
    auto serial_result = serial->Execute(query);
    ASSERT_TRUE(first.ok()) << wq.id << ": " << first.status();
    ASSERT_TRUE(second.ok()) << wq.id << ": " << second.status();
    ASSERT_TRUE(serial_result.ok()) << wq.id << ": "
                                    << serial_result.status();

    ExpectBitIdentical(second->relation, first->relation,
                       wq.id + " run 2 vs run 1");
    ExpectBitIdentical(first->relation, serial_result->relation,
                       wq.id + " parallel vs serial");
    EXPECT_DOUBLE_EQ(first->simulated_millis,
                     serial_result->simulated_millis)
        << wq.id;
  }
}

TEST_F(WatDivDeterminismTest, ProfilesAreIdenticalSerialAndParallel) {
  // Operator spans are opened, charged, and closed on the coordinating
  // thread only, so the aggregated profile must be *identical* between
  // serial and 8-thread runs — same tree, same rows, same byte counts,
  // and bitwise-equal simulated charges. Only wall_millis (real time)
  // may differ. Runs under the TSan CI leg, so this is also the
  // profiling-enabled parallel race check.
  auto serial = MakeDb(graph_, 1, 256);
  auto parallel = MakeDb(graph_, 8, 256);
  ASSERT_NE(serial, nullptr);
  ASSERT_NE(parallel, nullptr);

  for (const watdiv::WatDivQuery& wq : queries_) {
    SCOPED_TRACE(wq.id);
    auto parsed = sparql::ParseQuery(wq.sparql);
    ASSERT_TRUE(parsed.ok()) << parsed.status();

    obs::QueryProfile serial_profile;
    obs::QueryProfile parallel_profile;
    auto serial_result = serial->Execute(*parsed, &serial_profile);
    auto parallel_result = parallel->Execute(*parsed, &parallel_profile);
    ASSERT_TRUE(serial_result.ok()) << serial_result.status();
    ASSERT_TRUE(parallel_result.ok()) << parallel_result.status();

    ASSERT_TRUE(serial_profile.finished());
    ASSERT_TRUE(parallel_profile.finished());
    ASSERT_EQ(parallel_profile.spans().size(),
              serial_profile.spans().size());
    for (size_t i = 0; i < serial_profile.spans().size(); ++i) {
      const obs::Span& s = serial_profile.spans()[i];
      const obs::Span& p = parallel_profile.spans()[i];
      SCOPED_TRACE("span " + std::to_string(i) + " (" + s.label + ")");
      EXPECT_EQ(p.kind, s.kind);
      EXPECT_EQ(p.label, s.label);
      EXPECT_EQ(p.detail, s.detail);
      EXPECT_EQ(p.parent, s.parent);
      EXPECT_EQ(p.children, s.children);
      EXPECT_EQ(p.rows_in, s.rows_in);
      EXPECT_EQ(p.rows_out, s.rows_out);
      EXPECT_EQ(p.bytes_scanned, s.bytes_scanned);
      EXPECT_EQ(p.bytes_shuffled, s.bytes_shuffled);
      EXPECT_EQ(p.bytes_broadcast, s.bytes_broadcast);
      EXPECT_DOUBLE_EQ(p.estimated_rows, s.estimated_rows);
      // Bitwise: the simulated clock must not see real parallelism.
      EXPECT_EQ(p.charge_millis, s.charge_millis);
      EXPECT_EQ(p.total_charge_millis, s.total_charge_millis);
    }
    EXPECT_EQ(parallel_profile.TotalChargedMillis(),
              serial_profile.TotalChargedMillis());
    EXPECT_EQ(parallel_profile.simulated_millis(),
              serial_profile.simulated_millis());
  }
}

TEST_F(WatDivDeterminismTest, AllThreadCountsAgreeOnEveryQuery) {
  auto serial = MakeDb(graph_, 1, 256);
  ASSERT_NE(serial, nullptr);
  for (uint32_t threads : {2u, 4u}) {
    auto db = MakeDb(graph_, threads, 256);
    ASSERT_NE(db, nullptr);
    for (const watdiv::WatDivQuery& wq : queries_) {
      auto parsed = sparql::ParseQuery(wq.sparql);
      ASSERT_TRUE(parsed.ok()) << wq.id;
      auto result = db->Execute(parsed.value());
      auto expected = serial->Execute(parsed.value());
      ASSERT_TRUE(result.ok()) << wq.id << ": " << result.status();
      ASSERT_TRUE(expected.ok()) << wq.id << ": " << expected.status();
      ExpectBitIdentical(
          result->relation, expected->relation,
          wq.id + " at " + std::to_string(threads) + " threads");
    }
  }
}

TEST_F(WatDivDeterminismTest, KernelPathRunTwiceByteIdentityAtFullMorsels) {
  // The other fixtures use tiny morsels (64/256 rows) to maximize morsel
  // count. This case uses production-sized morsels (8192 rows) so each
  // morsel spans several kernels::kBatchRows probe batches — the
  // vectorized hash/compare/gather path runs at its real batch geometry
  // rather than degenerating to sub-batch morsels. Run-twice byte
  // identity plus parallel-vs-serial identity at 8 threads.
  auto serial = MakeDb(graph_, 1, 8192);
  auto parallel = MakeDb(graph_, 8, 8192);
  ASSERT_NE(serial, nullptr);
  ASSERT_NE(parallel, nullptr);

  for (const watdiv::WatDivQuery& wq : queries_) {
    auto parsed = sparql::ParseQuery(wq.sparql);
    ASSERT_TRUE(parsed.ok()) << wq.id << ": " << parsed.status();

    auto first = parallel->Execute(parsed.value());
    auto second = parallel->Execute(parsed.value());
    auto serial_result = serial->Execute(parsed.value());
    ASSERT_TRUE(first.ok()) << wq.id << ": " << first.status();
    ASSERT_TRUE(second.ok()) << wq.id << ": " << second.status();
    ASSERT_TRUE(serial_result.ok())
        << wq.id << ": " << serial_result.status();

    ExpectBitIdentical(second->relation, first->relation,
                       wq.id + " kernel-path run 2 vs run 1");
    ExpectBitIdentical(first->relation, serial_result->relation,
                       wq.id + " kernel-path parallel vs serial");
    EXPECT_DOUBLE_EQ(first->simulated_millis,
                     serial_result->simulated_millis)
        << wq.id;
  }
}

}  // namespace
}  // namespace prost
