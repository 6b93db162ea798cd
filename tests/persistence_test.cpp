// Persistence round-trip tests: PersistTo writes a self-describing
// database directory; OpenFrom reopens it into a fresh dictionary and
// must answer every query identically.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "columnar/lexical_format.h"
#include "common/io.h"
#include "core/prost_db.h"
#include "sparql/parser.h"
#include "watdiv/generator.h"
#include "watdiv/queries.h"

namespace prost::core {
namespace {

std::string ScratchDir(const char* name) {
  return ::testing::TempDir() + "/prost_persistence_" + name;
}

TEST(PersistenceTest, RoundTripSmallGraph) {
  ProstDb::Options options;
  options.use_reverse_property_table = true;
  auto db = ProstDb::LoadFromNTriples(
      "<u1> <likes> <p1> .\n"
      "<u1> <likes> <p2> .\n"
      "<u1> <age> \"30\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n"
      "<u2> <likes> <p1> .\n"
      "<p1> <label> \"x\" .\n"
      "<p2> <label> \"y\" .\n",
      options);
  ASSERT_TRUE(db.ok()) << db.status();

  std::string dir = ScratchDir("small");
  auto bytes = (*db)->PersistTo(dir);
  ASSERT_TRUE(bytes.ok()) << bytes.status();

  // Reopen with *different* option flags: the manifest wins.
  ProstDb::Options open_options;
  open_options.use_property_table = false;
  auto reopened = ProstDb::OpenFrom(dir, open_options);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_TRUE((*reopened)->options().use_property_table);
  EXPECT_TRUE((*reopened)->options().use_reverse_property_table);
  EXPECT_EQ((*reopened)->load_report().input_triples, 6u);
  EXPECT_EQ((*reopened)->statistics().num_predicates(), 3u);

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
    // Ids differ across dictionaries; compare decoded lexical rows.
    auto original_rows = (*db)->DecodeRows(original->relation);
    auto restored_rows = (*reopened)->DecodeRows(restored->relation);
    ASSERT_TRUE(original_rows.ok());
    ASSERT_TRUE(restored_rows.ok());
    std::sort(original_rows->begin(), original_rows->end());
    std::sort(restored_rows->begin(), restored_rows->end());
    EXPECT_EQ(*original_rows, *restored_rows) << text;
    EXPECT_GT(restored->simulated_millis, 0.0);
  }
  (void)RemoveAllRecursively(dir);
}

// Sorted decoded rows of `sparql` on `db`: ids differ across
// dictionaries, lexical forms do not.
std::vector<std::vector<std::string>> SortedRows(const ProstDb& db,
                                                 const sparql::Query& query) {
  auto result = db.Execute(query);
  EXPECT_TRUE(result.ok()) << result.status();
  if (!result.ok()) return {};
  auto rows = db.DecodeRows(result->relation);
  EXPECT_TRUE(rows.ok()) << rows.status();
  if (!rows.ok()) return {};
  std::sort(rows->begin(), rows->end());
  return std::move(rows).value();
}

watdiv::WatDivDataset SmallWatDiv() {
  watdiv::WatDivConfig config;
  config.target_triples = 15000;
  return watdiv::Generate(config);
}

// Every WatDiv query answers the same on the reopened store, with and
// without the A3 partitioning reuse. Reuse skips the shuffle of a side
// whose rows already sit where the current dictionary's ids hash, so it
// only answers right when reopening places rows like a fresh load.
TEST(PersistenceTest, RoundTripWatDivQuerySet) {
  for (bool reuse : {false, true}) {
    SCOPED_TRACE(reuse ? "reuse_partitioning" : "shuffle both sides");
    watdiv::WatDivDataset dataset = SmallWatDiv();
    auto queries = watdiv::BasicQuerySet(dataset);
    ProstDb::Options options;
    // The bench cluster's scale, so that most joins shuffle.
    options.cluster.ScaleToDataset(dataset.graph.size());
    options.join.reuse_partitioning = reuse;
    auto db = ProstDb::LoadFromGraph(std::move(dataset.graph), options);
    ASSERT_TRUE(db.ok());
    std::string dir = ScratchDir("watdiv");
    ASSERT_TRUE((*db)->PersistTo(dir).ok());
    auto reopened = ProstDb::OpenFrom(dir, options);
    ASSERT_TRUE(reopened.ok()) << reopened.status();
    for (const watdiv::WatDivQuery& wq : queries) {
      auto query = sparql::ParseQuery(wq.sparql);
      ASSERT_TRUE(query.ok());
      EXPECT_EQ(SortedRows(**db, *query), SortedRows(**reopened, *query))
          << wq.id;
    }
    (void)RemoveAllRecursively(dir);
  }
}

// The per-predicate statistics, keyed by lexical predicate.
std::map<std::string, rdf::PredicateStats> LexicalStats(const ProstDb& db) {
  std::map<std::string, rdf::PredicateStats> stats;
  for (const auto& [predicate, s] : db.statistics().per_predicate()) {
    stats.emplace(db.dictionary().MustLookupId(predicate), s);
  }
  return stats;
}

// Each characteristic set as its lexical predicate -> occurrences map
// (whose keys are the signature), with its subject count.
std::map<std::map<std::string, uint64_t>, uint64_t> LexicalCharSets(
    const ProstDb& db) {
  std::map<std::map<std::string, uint64_t>, uint64_t> sets;
  for (const stats::CharacteristicSet& set :
       db.characteristic_sets().sets()) {
    std::map<std::string, uint64_t> occurrences;
    for (size_t i = 0; i < set.predicates.size(); ++i) {
      occurrences.emplace(db.dictionary().MustLookupId(set.predicates[i]),
                          set.occurrences[i]);
    }
    sets.emplace(std::move(occurrences), set.subject_count);
  }
  return sets;
}

TEST(PersistenceTest, ReopenedStoreLoadsLikeTheOriginal) {
  ProstDb::Options options;
  options.use_reverse_property_table = true;
  auto db = ProstDb::LoadFromGraph(SmallWatDiv().graph, options);
  ASSERT_TRUE(db.ok());
  std::string dir = ScratchDir("statistics");
  ASSERT_TRUE((*db)->PersistTo(dir).ok());
  auto reopened = ProstDb::OpenFrom(dir, ProstDb::Options{});
  ASSERT_TRUE(reopened.ok()) << reopened.status();

  // Fan-out caps included: PredicateStats compares every field.
  const auto original_stats = LexicalStats(**db);
  ASSERT_GT(original_stats.size(), 10u);
  EXPECT_TRUE(original_stats == LexicalStats(**reopened));
  EXPECT_EQ((*db)->statistics().total_triples(),
            (*reopened)->statistics().total_triples());
  const auto original_sets = LexicalCharSets(**db);
  ASSERT_GT(original_sets.size(), 10u);
  EXPECT_EQ(original_sets, LexicalCharSets(**reopened));

  // storage_bytes may differ: each partition's local dictionaries depend
  // on which terms hash to it, and the re-interned ids hash elsewhere.
  const LoadReport& before = (*db)->load_report();
  const LoadReport& after = (*reopened)->load_report();
  EXPECT_EQ(before.input_triples, after.input_triples);
  EXPECT_EQ(before.input_bytes, after.input_bytes);
  EXPECT_DOUBLE_EQ(before.simulated_load_millis,
                   after.simulated_load_millis);
  (void)RemoveAllRecursively(dir);
}

TEST(PersistenceTest, OpenMissingDirectoryFails) {
  auto db = ProstDb::OpenFrom("/nonexistent/prost/db", ProstDb::Options{});
  EXPECT_FALSE(db.ok());
}

TEST(PersistenceTest, OpenCorruptManifestFails) {
  std::string dir = ScratchDir("corrupt");
  ASSERT_TRUE(MakeDirectories(dir).ok());
  ASSERT_TRUE(WriteStringToFile(dir + "/MANIFEST", "not a manifest").ok());
  auto db = ProstDb::OpenFrom(dir, ProstDb::Options{});
  EXPECT_EQ(db.status().code(), StatusCode::kCorruption);
  (void)RemoveAllRecursively(dir);
}

TEST(PersistenceTest, OpenCorruptTableFails) {
  ProstDb::Options options;
  auto db = ProstDb::LoadFromNTriples("<s> <p> <o> .\n", options);
  ASSERT_TRUE(db.ok());
  std::string dir = ScratchDir("bitrot");
  ASSERT_TRUE((*db)->PersistTo(dir).ok());
  // Flip a byte in the first VP table file.
  std::string victim = dir + "/vp/vp_0_p0.tbl";
  std::string bytes;
  ASSERT_TRUE(ReadFileToString(victim, &bytes).ok());
  bytes[bytes.size() / 2] ^= 0x20;
  ASSERT_TRUE(WriteStringToFile(victim, bytes).ok());
  auto reopened = ProstDb::OpenFrom(dir, ProstDb::Options{});
  EXPECT_FALSE(reopened.ok());
  (void)RemoveAllRecursively(dir);
}

TEST(PersistenceTest, OpenTableOfTheWrongShapeFails) {
  auto db = ProstDb::LoadFromNTriples("<s> <p> <o> .\n", ProstDb::Options{});
  ASSERT_TRUE(db.ok());
  std::string dir = ScratchDir("shape");
  ASSERT_TRUE((*db)->PersistTo(dir).ok());
  // A well-formed lexical table with one id column where the VP file
  // must hold (subject, object).
  rdf::Dictionary dictionary;
  columnar::IdVector subjects = {dictionary.Intern("<s>")};
  std::vector<columnar::Column> columns;
  columns.emplace_back(std::move(subjects));
  const columnar::StoredTable narrow(
      columnar::Schema({columnar::Field{"s", columnar::ColumnKind::kId}}),
      std::move(columns));
  ASSERT_TRUE(columnar::WriteLexicalTableFile(narrow, dictionary,
                                              dir + "/vp/vp_0_p0.tbl")
                  .ok());
  auto reopened = ProstDb::OpenFrom(dir, ProstDb::Options{});
  EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption);
  (void)RemoveAllRecursively(dir);
}

}  // namespace
}  // namespace prost::core
