// Paged-storage differential harness (DESIGN.md §15).
//
// Every store holds its data as row groups behind a buffer pool, and the
// pool budget must be invisible to query semantics. The baseline is a
// store built with the default storage options: an unbounded pool
// (nothing is ever evicted) over default-size row groups. With any
// budget — including one smaller than any single partition — and
// 512-row groups, every WatDiv basic query must return a relation
// *bit-identical* (chunk layout, row order, columns) to that baseline,
// serial and morsel-parallel alike. On top of identity, the harness
// checks that paging actually pages (pins, misses, evictions under a
// tight budget; pins and no evictions on the default store) and actually
// skips (zone-map row groups on the constant-heavy queries,
// bloom-filtered partitions on point-subject lookups), and that EXPLAIN
// ANALYZE surfaces the skips.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "columnar/buffer_pool.h"
#include "columnar/paged_table.h"
#include "core/prost_db.h"
#include "core/scan_support.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "sparql/parser.h"
#include "watdiv/generator.h"
#include "watdiv/queries.h"

namespace prost {
namespace {

using SharedGraph = std::shared_ptr<const rdf::EncodedGraph>;

/// Small row groups so the 40k-triple partitions split into many pages:
/// real eviction traffic and real zone-map granularity at test scale.
constexpr uint32_t kTestRowGroupRows = 512;

std::unique_ptr<core::ProstDb> MakeDb(const SharedGraph& graph,
                                      uint64_t pool_bytes,
                                      uint32_t num_threads) {
  core::ProstDb::Options options;
  options.use_reverse_property_table = true;
  options.exec.num_threads = num_threads;
  options.storage.buffer_pool_bytes = pool_bytes;
  options.storage.row_group_rows = pool_bytes == 0 ? 0 : kTestRowGroupRows;
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
    ASSERT_EQ(a.columns.size(), e.columns.size()) << context << ", chunk " << w;
    for (size_t c = 0; c < e.columns.size(); ++c) {
      EXPECT_EQ(a.columns[c], e.columns[c])
          << context << ", chunk " << w << ", column "
          << expected.column_names()[c];
    }
  }
}

class PagedScanTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    watdiv::WatDivConfig config;
    config.target_triples = 40000;
    config.seed = 7;
    watdiv::WatDivDataset dataset = watdiv::Generate(config);
    dataset.graph.SortAndDedupe();
    graph_ =
        std::make_shared<const rdf::EncodedGraph>(std::move(dataset.graph));
    watdiv::WatDivDataset sizing_only;  // Queries depend only on IRIs.
    queries_ = watdiv::BasicQuerySet(sizing_only);
    // Default storage options: unbounded pool, default-size row groups.
    baseline_ = MakeDb(graph_, /*pool_bytes=*/0, /*num_threads=*/1);
  }

  static void TearDownTestSuite() {
    baseline_.reset();
    graph_.reset();
  }

  static SharedGraph graph_;
  static std::vector<watdiv::WatDivQuery> queries_;
  static std::unique_ptr<core::ProstDb> baseline_;
};

SharedGraph PagedScanTest::graph_;
std::vector<watdiv::WatDivQuery> PagedScanTest::queries_;
std::unique_ptr<core::ProstDb> PagedScanTest::baseline_;

TEST_F(PagedScanTest, BitIdenticalAcrossBudgetsAndThreadCounts) {
  ASSERT_EQ(queries_.size(), 20u);
  ASSERT_NE(baseline_, nullptr);
  const uint64_t footprint = baseline_->load_report().storage_bytes;
  ASSERT_GT(footprint, 0u);

  // Budgets: far below any single partition (every scan must page its
  // own working set in and out), a quarter of the columnar footprint
  // (the bounded-memory CI point), and effectively unlimited.
  const std::vector<uint64_t> budgets = {4096, footprint / 4,
                                         1ull << 30};
  for (uint64_t budget : budgets) {
    for (uint32_t threads : {1u, 8u}) {
      auto paged = MakeDb(graph_, budget, threads);
      ASSERT_NE(paged, nullptr);
      for (const watdiv::WatDivQuery& wq : queries_) {
        auto parsed = sparql::ParseQuery(wq.sparql);
        ASSERT_TRUE(parsed.ok()) << wq.id << ": " << parsed.status();
        auto expected = baseline_->Execute(*parsed);
        auto actual = paged->Execute(*parsed);
        ASSERT_TRUE(expected.ok()) << wq.id << ": " << expected.status();
        ASSERT_TRUE(actual.ok()) << wq.id << ": " << actual.status();
        ExpectBitIdentical(actual->relation, expected->relation,
                           wq.id + " @ budget " + std::to_string(budget) +
                               ", " + std::to_string(threads) + " threads");
      }
    }
  }
}

TEST_F(PagedScanTest, DefaultStoreIsUnboundedAndNeverEvicts) {
  auto db =
      core::ProstDb::LoadFromSharedGraph(graph_, core::ProstDb::Options());
  ASSERT_TRUE(db.ok()) << db.status();
  ASSERT_NE((*db)->buffer_pool(), nullptr);
  for (const watdiv::WatDivQuery& wq : queries_) {
    auto parsed = sparql::ParseQuery(wq.sparql);
    ASSERT_TRUE(parsed.ok()) << wq.id;
    ASSERT_TRUE((*db)->Execute(*parsed).ok()) << wq.id;
  }
  obs::MetricsSnapshot snapshot = (*db)->metrics().Snapshot();
  EXPECT_GT(snapshot.counter("storage.pages_pinned"), 0u);
  EXPECT_EQ(snapshot.counter("storage.evictions"), 0u);
}

TEST_F(PagedScanTest, TinyBudgetActuallyPagesAndEvicts) {
  ASSERT_NE(baseline_, nullptr);
  // 4 KiB is smaller than any 512-row id column (512 * 8 bytes), so no
  // two pages fit: the pool must stream every scan through evictions.
  auto paged = MakeDb(graph_, /*pool_bytes=*/4096, /*num_threads=*/1);
  ASSERT_NE(paged, nullptr);
  for (const watdiv::WatDivQuery& wq : queries_) {
    auto parsed = sparql::ParseQuery(wq.sparql);
    ASSERT_TRUE(parsed.ok()) << wq.id;
    ASSERT_TRUE(paged->Execute(*parsed).ok()) << wq.id;
  }
  obs::MetricsSnapshot snapshot = paged->metrics().Snapshot();
  EXPECT_GT(snapshot.counter("storage.pages_pinned"), 0u);
  EXPECT_GT(snapshot.counter("storage.page_misses"), 0u);
  EXPECT_GT(snapshot.counter("storage.evictions"), 0u);
  EXPECT_GT(snapshot.counter("storage.bytes_scanned"), 0u);

  ASSERT_NE(paged->buffer_pool(), nullptr);
  columnar::BufferPool::Stats stats = paged->buffer_pool()->GetStats();
  EXPECT_EQ(stats.pinned_pages, 0u) << "pins leaked past query end";
  EXPECT_LE(stats.resident_bytes, 4096u) << "budget not enforced at rest";
}

TEST_F(PagedScanTest, ConstantQueriesSkipRowGroupsViaZoneMaps) {
  ASSERT_NE(baseline_, nullptr);
  auto paged = MakeDb(graph_, /*pool_bytes=*/1ull << 30, /*num_threads=*/1);
  ASSERT_NE(paged, nullptr);
  for (const watdiv::WatDivQuery& wq : queries_) {
    auto parsed = sparql::ParseQuery(wq.sparql);
    ASSERT_TRUE(parsed.ok()) << wq.id;
    ASSERT_TRUE(paged->Execute(*parsed).ok()) << wq.id;
  }
  obs::MetricsSnapshot snapshot = paged->metrics().Snapshot();
  // The workload is rich in constant objects (C/S/F classes): zone maps
  // must prune at least some row groups, or skipping is dead code.
  EXPECT_GT(snapshot.counter("storage.row_groups_skipped_zonemap"), 0u);
}

TEST_F(PagedScanTest, PointSubjectLookupSkipsPartitionsViaBloom) {
  ASSERT_NE(baseline_, nullptr);
  auto paged = MakeDb(graph_, /*pool_bytes=*/1ull << 30, /*num_threads=*/1);
  ASSERT_NE(paged, nullptr);

  // A constant-subject point lookup: the subject lives in exactly one
  // subject-hash partition, so the other workers' key blooms must
  // reject their partitions without decoding a single page.
  const rdf::EncodedTriple& triple = graph_->triples().front();
  sparql::Query query;
  sparql::TriplePattern pattern;
  pattern.subject = *graph_->dictionary().DecodeTerm(triple.subject);
  pattern.predicate = *graph_->dictionary().DecodeTerm(triple.predicate);
  pattern.object = rdf::Term::Variable("o");
  query.bgp.patterns.push_back(std::move(pattern));

  auto expected = baseline_->Execute(query);
  auto actual = paged->Execute(query);
  ASSERT_TRUE(expected.ok()) << expected.status();
  ASSERT_TRUE(actual.ok()) << actual.status();
  ExpectBitIdentical(actual->relation, expected->relation, "point lookup");
  EXPECT_GT(actual->relation.TotalRows(), 0u);

  obs::MetricsSnapshot snapshot = paged->metrics().Snapshot();
  EXPECT_GT(snapshot.counter("storage.partitions_skipped_bloom"), 0u);
}

TEST_F(PagedScanTest, ExplainAnalyzeReportsBytesAndSkips) {
  ASSERT_NE(baseline_, nullptr);
  auto paged = MakeDb(graph_, /*pool_bytes=*/1ull << 30, /*num_threads=*/1);
  ASSERT_NE(paged, nullptr);

  // Find a query whose paged execution skips row groups, and check the
  // report line carries the paged storage clause.
  bool found = false;
  for (const watdiv::WatDivQuery& wq : queries_) {
    auto parsed = sparql::ParseQuery(wq.sparql);
    ASSERT_TRUE(parsed.ok()) << wq.id;
    obs::QueryProfile profile;
    auto result = paged->Execute(*parsed, &profile);
    ASSERT_TRUE(result.ok()) << wq.id << ": " << result.status();
    std::string report = obs::ExplainAnalyze(profile);
    if (report.find("skipped=") == std::string::npos) continue;
    EXPECT_NE(report.find("bytes="), std::string::npos) << report;
    found = true;
    break;
  }
  EXPECT_TRUE(found)
      << "no WatDiv query produced a paged EXPLAIN ANALYZE skip clause";

  // The default store pages too, so its scans carry the clause as well.
  obs::QueryProfile profile;
  auto parsed = sparql::ParseQuery(queries_.front().sparql);
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(baseline_->Execute(*parsed, &profile).ok());
  std::string report = obs::ExplainAnalyze(profile);
  EXPECT_NE(report.find("skipped="), std::string::npos) << report;
}

TEST(PagedPersistenceTest, RoundTripWithPagingOnBothSides) {
  core::ProstDb::Options options;
  options.storage.buffer_pool_bytes = 1 << 16;
  options.storage.row_group_rows = 4;
  auto db = core::ProstDb::LoadFromNTriples(
      "<u1> <likes> <p1> .\n"
      "<u1> <likes> <p2> .\n"
      "<u1> <age> \"30\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n"
      "<u2> <likes> <p1> .\n"
      "<u3> <likes> <p2> .\n"
      "<p1> <label> \"x\" .\n"
      "<p2> <label> \"y\" .\n",
      options);
  ASSERT_TRUE(db.ok()) << db.status();

  std::string dir = ::testing::TempDir() + "/prost_paged_roundtrip";
  ASSERT_TRUE((*db)->PersistTo(dir).ok());

  // Reopen paged with a different (tiny) budget: the lexical files on
  // disk are representation-agnostic, so decoded results must agree.
  core::ProstDb::Options reopen_options;
  reopen_options.storage.buffer_pool_bytes = 4096;
  reopen_options.storage.row_group_rows = 2;
  auto reopened = core::ProstDb::OpenFrom(dir, reopen_options);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  ASSERT_NE((*reopened)->buffer_pool(), nullptr);

  for (const char* text : {
           "SELECT * WHERE { ?u <likes> ?p . ?p <label> ?l . }",
           "SELECT * WHERE { ?u <likes> ?p . ?u <age> ?a . }",
           "SELECT ?u WHERE { ?u <likes> ?p . FILTER(?p != <p2>) }",
       }) {
    auto query = sparql::ParseQuery(text);
    ASSERT_TRUE(query.ok());
    auto original = (*db)->Execute(*query);
    auto restored = (*reopened)->Execute(*query);
    ASSERT_TRUE(original.ok()) << original.status();
    ASSERT_TRUE(restored.ok()) << text << ": " << restored.status();
    auto original_rows = (*db)->DecodeRows(original->relation);
    auto restored_rows = (*reopened)->DecodeRows(restored->relation);
    ASSERT_TRUE(original_rows.ok());
    ASSERT_TRUE(restored_rows.ok());
    EXPECT_EQ(*original_rows, *restored_rows) << text;
  }
}

// --- RowGroupPruner, directly -------------------------------------------
//
// A two-column (key, value) partition of 64 rows in row groups of 16:
// keys are 1..64 ascending, so group g holds keys [16g + 1, 16g + 16];
// values are 1000 + key except in group 0, where they are all NULL.

constexpr uint32_t kPrunerGroupRows = 16;

columnar::PagedTable PrunerPartition() {
  columnar::IdVector keys;
  columnar::IdVector values;
  for (rdf::TermId key = 1; key <= 64; ++key) {
    keys.push_back(key);
    values.push_back(key <= kPrunerGroupRows ? rdf::kNullTermId : 1000 + key);
  }
  std::vector<columnar::Column> columns;
  columns.emplace_back(std::move(keys));
  columns.emplace_back(std::move(values));
  columnar::Schema schema({columnar::Field{"s", columnar::ColumnKind::kId},
                           columnar::Field{"o", columnar::ColumnKind::kId}});
  return columnar::PagedTable::FromStored(
      columnar::StoredTable(std::move(schema), std::move(columns)),
      kPrunerGroupRows);
}

using Bindings = std::vector<std::pair<size_t, const core::PatternTerm*>>;

TEST(RowGroupPrunerTest, KeyBloomRejectsPartition) {
  columnar::PagedTable paged = PrunerPartition();
  rdf::TermId absent = 100000;
  while (paged.key_bloom().MayContain(absent)) ++absent;
  core::PatternTerm key = core::PatternTerm::Const(absent);
  core::RowGroupPruner pruner(2, Bindings{{0, &key}}, nullptr);
  core::ScanTelemetry telemetry;
  core::RowGroupPruner::Partition kept =
      pruner.Prune(paged, {{{0, 1}, 5000}}, telemetry);
  EXPECT_TRUE(kept.groups.empty());
  EXPECT_EQ(kept.rows, 0u);
  EXPECT_EQ(kept.charged_bytes, 0u);
  EXPECT_EQ(telemetry.partitions_skipped, 1u);
  EXPECT_EQ(telemetry.row_groups_total, 4u);
  EXPECT_EQ(telemetry.row_groups_skipped, 0u);
}

TEST(RowGroupPrunerTest, ZoneMapSkipsGroups) {
  columnar::PagedTable paged = PrunerPartition();
  core::PatternTerm key = core::PatternTerm::Const(40);  // Group 2.
  core::RowGroupPruner pruner(2, Bindings{{0, &key}}, nullptr);
  core::ScanTelemetry telemetry;
  const std::vector<core::RowGroupPruner::ChargeUnit> units{{{0, 1}, 5000}};
  core::RowGroupPruner::Partition kept = pruner.Prune(paged, units, telemetry);
  EXPECT_EQ(kept.groups, std::vector<uint32_t>{2});
  EXPECT_EQ(kept.rows, kPrunerGroupRows);
  EXPECT_EQ(kept.charged_bytes,
            core::RowGroupPruner::GroupCharges(paged, units[0])[2]);
  EXPECT_EQ(telemetry.row_groups_skipped, 3u);
  EXPECT_EQ(telemetry.partitions_skipped, 0u);
}

TEST(RowGroupPrunerTest, AllNullColumnSkipsGroup) {
  columnar::PagedTable paged = PrunerPartition();
  core::PatternTerm key = core::PatternTerm::Var("s");
  core::PatternTerm value = core::PatternTerm::Var("o");
  core::RowGroupPruner pruner(2, Bindings{{0, &key}, {1, &value}}, nullptr,
                              {1});
  core::ScanTelemetry telemetry;
  core::RowGroupPruner::Partition kept =
      pruner.Prune(paged, {{{0}, 700}, {{1}, 900}}, telemetry);
  EXPECT_EQ(kept.groups, (std::vector<uint32_t>{1, 2, 3}));
  EXPECT_EQ(kept.rows, 3 * kPrunerGroupRows);
  EXPECT_EQ(telemetry.row_groups_skipped, 1u);
}

TEST(RowGroupPrunerTest, NullTermHintSkipsEveryGroup) {
  columnar::PagedTable paged = PrunerPartition();
  core::PatternTerm key = core::PatternTerm::Var("s");
  core::PatternTerm value = core::PatternTerm::Var("o");
  core::ScanHints hints;
  hints.equals.push_back({"o", rdf::kNullTermId});
  core::RowGroupPruner pruner(2, Bindings{{0, &key}, {1, &value}}, &hints);
  core::ScanTelemetry telemetry;
  core::RowGroupPruner::Partition kept =
      pruner.Prune(paged, {{{0, 1}, 5000}}, telemetry);
  EXPECT_TRUE(kept.groups.empty());
  EXPECT_EQ(kept.charged_bytes, 0u);
  EXPECT_EQ(telemetry.row_groups_skipped, 4u);
  EXPECT_EQ(telemetry.partitions_skipped, 0u);
}

TEST(RowGroupPrunerTest, UnskippedChargesSumToEachUnitExactly) {
  columnar::PagedTable paged = PrunerPartition();
  // Odd totals, so the proportional split cannot be exact per group and
  // only the cumulative flooring makes the sums telescope.
  const std::vector<core::RowGroupPruner::ChargeUnit> units{
      {{0}, 1000003}, {{1}, 77}, {{0, 1}, 999999937}, {{1}, 0}};
  uint64_t expected_total = 0;
  for (const core::RowGroupPruner::ChargeUnit& unit : units) {
    std::vector<uint64_t> charges =
        core::RowGroupPruner::GroupCharges(paged, unit);
    ASSERT_EQ(charges.size(), paged.num_groups());
    uint64_t sum = 0;
    for (uint64_t charge : charges) sum += charge;
    EXPECT_EQ(sum, unit.lexical_bytes);
    expected_total += unit.lexical_bytes;
  }
  core::PatternTerm key = core::PatternTerm::Var("s");
  core::PatternTerm value = core::PatternTerm::Var("o");
  core::RowGroupPruner pruner(2, Bindings{{0, &key}, {1, &value}}, nullptr);
  core::ScanTelemetry telemetry;
  core::RowGroupPruner::Partition kept = pruner.Prune(paged, units, telemetry);
  EXPECT_EQ(kept.groups.size(), paged.num_groups());
  EXPECT_EQ(kept.rows, paged.num_rows());
  EXPECT_EQ(kept.charged_bytes, expected_total);
  EXPECT_EQ(telemetry.row_groups_skipped, 0u);
}

}  // namespace
}  // namespace prost
