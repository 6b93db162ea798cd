// Order-exact differential test of the paged scan kernel, over Property
// Table and Vertical Partitioning scans.
//
// OracleScanRows is the row-at-a-time partial-binding loop the PT scan
// ran before its selection-vector kernel, kept here as the reference. A
// VP partition is the oracle's flat-only case: key column `s` plus one
// flat column `o`. Every check runs PropertyTable::Scan or VpStore::Scan
// and, per partition, the oracle over that partition's decoded columns,
// and requires each output chunk's columns to equal the oracle's *in
// order*: the kernel must reproduce the row-major order and the nesting
// of list-cell values, not only the multiset of rows. Inputs are seeded
// random graphs (empty cells, 1-4 values per list cell, flat and list
// columns, forward and reverse tables, row groups small enough to split)
// and every PT and VP scan of the 20 WatDiv basic queries, each at one
// thread and at four threads with 16-row morsels, where a partition
// splits into several scan tasks.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cluster/cost_model.h"
#include "columnar/buffer_pool.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/property_table.h"
#include "core/prost_db.h"
#include "core/statistics.h"
#include "core/vp_store.h"
#include "engine/exec_context.h"
#include "sparql/parser.h"
#include "watdiv/generator.h"
#include "watdiv/queries.h"

namespace prost::core {
namespace {

using ColumnPattern = PropertyTable::ColumnPattern;
using columnar::Column;
using columnar::ColumnKind;
using columnar::IdListColumn;
using columnar::IdVector;
using rdf::Term;
using rdf::TermId;

/// The pre-kernel scan of one row group, verbatim in its semantics: per
/// row, one seed partial binding; per pattern in order, a constant must
/// be in the cell, a variable's first occurrence extends each partial by
/// every cell value (in cell order) and a repeated variable keeps the
/// partials whose cell holds the bound value. Returns the output columns
/// in Scan's layout (key variable first, then each new variable).
std::vector<IdVector> OracleScanRows(const PatternTerm& key,
                                     const std::vector<ColumnPattern>& patterns,
                                     const IdVector& row_keys,
                                     const std::vector<const Column*>& cols) {
  std::unordered_map<std::string, size_t> index_of_name;
  if (key.is_variable) index_of_name.emplace(key.name, 0);
  std::vector<int> pattern_out(patterns.size(), -1);
  for (size_t i = 0; i < patterns.size(); ++i) {
    if (!patterns[i].value.is_variable) continue;
    auto it = index_of_name
                  .emplace(patterns[i].value.name, index_of_name.size())
                  .first;
    pattern_out[i] = static_cast<int>(it->second);
  }
  const size_t num_names = index_of_name.size();
  std::vector<IdVector> out(num_names);

  std::vector<engine::Row> partials;
  std::vector<engine::Row> next;
  for (size_t r = 0; r < row_keys.size(); ++r) {
    if (!key.is_variable && row_keys[r] != key.id) continue;
    partials.clear();
    engine::Row seed(num_names, rdf::kNullTermId);
    if (key.is_variable) seed[0] = row_keys[r];
    partials.push_back(std::move(seed));

    bool row_alive = true;
    for (size_t i = 0; i < patterns.size() && row_alive; ++i) {
      const Column& column = *cols[i];
      const TermId* cell_begin = nullptr;
      const TermId* cell_end = nullptr;
      TermId flat_value = rdf::kNullTermId;
      if (column.kind() == ColumnKind::kId) {
        flat_value = column.ids()[r];
        if (flat_value != rdf::kNullTermId) {
          cell_begin = &flat_value;
          cell_end = cell_begin + 1;
        }
      } else {
        const IdListColumn& lists = column.lists();
        cell_begin = lists.values.data() + lists.offsets[r];
        cell_end = lists.values.data() + lists.offsets[r + 1];
      }
      if (cell_begin == cell_end) {
        row_alive = false;
        break;
      }
      if (!patterns[i].value.is_variable) {
        if (std::find(cell_begin, cell_end, patterns[i].value.id) ==
            cell_end) {
          row_alive = false;
        }
        continue;
      }
      size_t out_col = static_cast<size_t>(pattern_out[i]);
      next.clear();
      for (const engine::Row& partial : partials) {
        if (partial[out_col] != rdf::kNullTermId) {
          if (std::find(cell_begin, cell_end, partial[out_col]) != cell_end) {
            next.push_back(partial);
          }
        } else {
          for (const TermId* v = cell_begin; v != cell_end; ++v) {
            engine::Row extended = partial;
            extended[out_col] = *v;
            next.push_back(std::move(extended));
          }
        }
      }
      partials.swap(next);
      if (partials.empty()) row_alive = false;
    }
    if (!row_alive) continue;
    for (const engine::Row& row : partials) {
      for (size_t c = 0; c < num_names; ++c) out[c].push_back(row[c]);
    }
  }
  return out;
}

/// Runs Scan (unpruned by hints) and the oracle over each decoded
/// partition, and compares every output column in order. Returns the
/// scan's total output rows.
size_t ExpectScanMatchesOracle(const PropertyTable& pt,
                               const rdf::Dictionary& dictionary,
                               const PatternTerm& key,
                               const std::vector<ColumnPattern>& patterns,
                               const engine::ExecContext* exec,
                               const std::string& context) {
  cluster::CostModel cost((cluster::ClusterConfig()));
  cost.BeginStage("scan");
  auto actual = pt.Scan(key, patterns, cost, exec);
  cost.EndStage();
  EXPECT_TRUE(actual.ok()) << context << ": " << actual.status();
  if (!actual.ok()) return 0;
  bool possible = !key.IsImpossibleConstant();
  for (const ColumnPattern& p : patterns) {
    possible = possible && pt.HasPredicate(p.predicate) &&
               !p.value.IsImpossibleConstant();
  }
  EXPECT_EQ(actual->num_chunks(), pt.num_workers()) << context;
  for (uint32_t w = 0; w < pt.num_workers(); ++w) {
    const engine::RelationChunk& chunk = actual->chunks()[w];
    if (!possible) {
      EXPECT_EQ(chunk.num_rows(), 0u) << context << ", partition " << w;
      continue;
    }
    auto stored = pt.partition(w).ToStored();
    EXPECT_TRUE(stored.ok()) << context << ": " << stored.status();
    if (!stored.ok()) continue;
    std::vector<const Column*> cols;
    for (const ColumnPattern& p : patterns) {
      auto column = stored->ColumnByName(
          std::string(dictionary.MustLookupId(p.predicate)));
      EXPECT_TRUE(column.ok()) << context << ": " << column.status();
      if (!column.ok()) return 0;
      cols.push_back(*column);
    }
    std::vector<IdVector> expected =
        OracleScanRows(key, patterns, stored->column(0).ids(), cols);
    EXPECT_EQ(chunk.columns.size(), expected.size()) << context;
    for (size_t c = 0; c < std::min(chunk.columns.size(), expected.size());
         ++c) {
      EXPECT_EQ(chunk.columns[c], expected[c])
          << context << ", partition " << w << ", column "
          << actual->column_names()[c];
    }
  }
  return actual->TotalRows();
}

/// The VP twin of ExpectScanMatchesOracle: runs VpStore::Scan of
/// `subject predicate object` and, per partition, the oracle over the
/// decoded (s, o) columns with `s` as the key and `o` as the one flat
/// pattern column. An unknown predicate must yield empty chunks.
size_t ExpectVpScanMatchesOracle(const VpStore& vp, TermId predicate,
                                 const PatternTerm& subject,
                                 const PatternTerm& object,
                                 const engine::ExecContext* exec,
                                 const std::string& context) {
  cluster::CostModel cost((cluster::ClusterConfig()));
  cost.BeginStage("scan");
  auto actual = vp.Scan(predicate, subject, object, cost, exec);
  cost.EndStage();
  EXPECT_TRUE(actual.ok()) << context << ": " << actual.status();
  if (!actual.ok()) return 0;
  EXPECT_EQ(actual->num_chunks(), vp.num_workers()) << context;
  const VpStore::PredicateTable* table = vp.Find(predicate);
  for (uint32_t w = 0; w < vp.num_workers(); ++w) {
    const engine::RelationChunk& chunk = actual->chunks()[w];
    if (table == nullptr) {
      EXPECT_EQ(chunk.num_rows(), 0u) << context << ", partition " << w;
      continue;
    }
    auto stored = table->paged[w].ToStored();
    EXPECT_TRUE(stored.ok()) << context << ": " << stored.status();
    if (!stored.ok()) continue;
    std::vector<IdVector> expected =
        OracleScanRows(subject, {{predicate, object}},
                       stored->column(0).ids(), {&stored->column(1)});
    EXPECT_EQ(chunk.columns.size(), expected.size()) << context;
    for (size_t c = 0; c < std::min(chunk.columns.size(), expected.size());
         ++c) {
      EXPECT_EQ(chunk.columns[c], expected[c])
          << context << ", partition " << w << ", column "
          << actual->column_names()[c];
    }
  }
  return actual->TotalRows();
}

/// The thread configurations every check runs at: one thread (no
/// context), and four threads with 16-row morsels, so that a partition
/// of more than one small row group splits into several scan tasks.
struct ThreadConfigs {
  ThreadPool pool{4};
  engine::ExecContext four{&pool, /*morsel_rows=*/16};
  std::vector<std::pair<const engine::ExecContext*, std::string>> all() {
    return {{nullptr, " 1 thread"}, {&four, " 4 threads"}};
  }
};

/// A seeded random graph over subjects s0..s39 and predicates p0..p5.
/// p0-p2 give a subject 1-4 values, p3-p5 at most one; about a third of
/// the cells stay empty. Values come from v0..v5 and s0..s5, so
/// subjects can appear in their own cells (`?s p ?s`) and list cells
/// share values often enough for repeated variables to match. The
/// reverse table turns shared objects into list cells of subjects, so
/// p5's objects are each subject's own u<i>: one subject per object
/// keeps it flat there too.
rdf::EncodedGraph RandomGraph(uint64_t seed) {
  Rng rng(seed);
  rdf::EncodedGraph graph;
  auto iri = [](const char* stem, uint64_t i) {
    std::string name = stem;
    name += std::to_string(i);
    return Term::Iri(std::move(name));
  };
  auto value = [&]() {
    uint64_t v = rng.NextBounded(12);
    return iri(v < 6 ? "v" : "s", v % 6);
  };
  for (int p = 0; p < 6; ++p) {
    const Term predicate = iri("p", p);
    // Every predicate gets a triple, and every list predicate a
    // two-value cell, so all six columns exist with the intended kind.
    graph.Add({Term::Iri("s0"), predicate, Term::Iri("v0")});
    if (p < 3) graph.Add({Term::Iri("s0"), predicate, Term::Iri("s1")});
    for (int s = 1; s < 40; ++s) {
      if (rng.NextBounded(3) == 0) continue;  // Empty cell.
      const Term subject = iri("s", s);
      const uint64_t count = p < 3 ? 1 + rng.NextBounded(4) : 1;
      for (uint64_t k = 0; k < count; ++k) {
        graph.Add({subject, predicate,
                   p == 5 ? iri("u", s) : value()});
      }
    }
  }
  graph.SortAndDedupe();
  return graph;
}

/// One randomly built table, the VP store of the same graph, and what
/// shape generators need to know.
struct RandomTable {
  rdf::EncodedGraph graph;
  std::unique_ptr<columnar::BufferPool> pool;
  PropertyTable pt;
  VpStore vp;
  std::vector<TermId> list_predicates;
  std::vector<TermId> flat_predicates;
  std::vector<TermId> values;  // Every value and key id of the graph.
};

std::unique_ptr<RandomTable> MakeRandomTable(uint64_t seed, bool reverse,
                                             uint32_t row_group_rows) {
  auto table = std::make_unique<RandomTable>();
  table->graph = RandomGraph(seed);
  table->pool =
      std::make_unique<columnar::BufferPool>(columnar::kUnboundedBudget);
  DatasetStatistics stats = DatasetStatistics::Compute(table->graph);
  const uint32_t workers = 1 + static_cast<uint32_t>(seed % 3);
  table->pt = PropertyTable::Build(table->graph, stats, workers,
                                   *table->pool, reverse, row_group_rows);
  table->vp =
      VpStore::Build(table->graph, workers, *table->pool, row_group_rows);
  const rdf::Dictionary& dictionary = table->graph.dictionary();
  const columnar::Schema& schema = table->pt.partition(0).schema();
  for (size_t c = 1; c < schema.num_fields(); ++c) {
    TermId predicate = dictionary.Lookup(schema.field(c).name);
    (schema.field(c).kind == ColumnKind::kIdList ? table->list_predicates
                                                 : table->flat_predicates)
        .push_back(predicate);
  }
  for (int i = 0; i < 40; ++i) {
    for (const char* stem : {"s", "v"}) {
      std::string iri = "<";
      iri.append(stem).append(std::to_string(i)).append(">");
      TermId id = dictionary.Lookup(iri);
      if (id != rdf::kNullTermId) table->values.push_back(id);
    }
  }
  return table;
}

/// Generates one scan (key + patterns) for a random table. A VP shape is
/// one pattern: the key is its subject, the pattern its predicate and
/// object.
struct ScanShape {
  PatternTerm key;
  std::vector<ColumnPattern> patterns;
};
using ShapeFn = ScanShape (*)(const RandomTable&, Rng&);

template <typename T>
const T& Pick(const std::vector<T>& items, Rng& rng) {
  return items[rng.NextBounded(items.size())];
}

/// Runs `shape` over seeded tables, forward and reverse (VP shapes have
/// no reverse table), with default and 3-row row groups, at each thread
/// configuration, and returns the total output rows (so a test can assert
/// that its shape is not vacuous).
size_t RunShape(ShapeFn shape, const std::string& name,
                bool vertical = false) {
  ThreadConfigs threads;
  const std::vector<bool> orientations =
      vertical ? std::vector<bool>{false} : std::vector<bool>{false, true};
  size_t total_rows = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    for (bool reverse : orientations) {
      for (uint32_t row_group_rows : {0u, 3u}) {
        auto table = MakeRandomTable(seed, reverse, row_group_rows);
        if (table->list_predicates.empty() ||
            table->flat_predicates.empty()) {
          ADD_FAILURE() << "seed " << seed << " lacks a column kind";
          continue;
        }
        for (const auto& [exec, thread_name] : threads.all()) {
          Rng rng(seed * 1000 + (reverse ? 7 : 0) + row_group_rows);
          for (int n = 0; n < 25; ++n) {
            ScanShape scan = shape(*table, rng);
            const std::string context =
                name + " seed " + std::to_string(seed) +
                (reverse ? " reverse" : " forward") + " rg " +
                std::to_string(row_group_rows) + thread_name + " scan " +
                std::to_string(n);
            total_rows +=
                vertical
                    ? ExpectVpScanMatchesOracle(
                          table->vp, scan.patterns[0].predicate, scan.key,
                          scan.patterns[0].value, exec, context)
                    : ExpectScanMatchesOracle(
                          table->pt, table->graph.dictionary(), scan.key,
                          scan.patterns, exec, context);
            if (::testing::Test::HasFailure()) return total_rows;
          }
        }
      }
    }
  }
  return total_rows;
}

TEST(PtScanOracleTest, RandomMixedPatterns) {
  // 2-6 patterns over any column, each a variable from a small pool (the
  // key variable included) or a constant.
  ShapeFn shape = [](const RandomTable& t, Rng& rng) {
    ScanShape scan;
    scan.key = PatternTerm::Var("k");
    const size_t n = 2 + rng.NextBounded(5);
    for (size_t i = 0; i < n; ++i) {
      TermId predicate = rng.NextBounded(2) == 0
                             ? Pick(t.list_predicates, rng)
                             : Pick(t.flat_predicates, rng);
      static const char* const kNames[] = {"a", "b", "c", "k"};
      PatternTerm value =
          rng.NextBounded(4) == 0
              ? PatternTerm::Const(Pick(t.values, rng))
              : PatternTerm::Var(kNames[rng.NextBounded(4)]);
      scan.patterns.push_back({predicate, value});
    }
    return scan;
  };
  EXPECT_GT(RunShape(shape, "mixed"), 0u);
}

TEST(PtScanOracleTest, ConstantsOnListColumns) {
  ShapeFn shape = [](const RandomTable& t, Rng& rng) {
    ScanShape scan;
    scan.key = PatternTerm::Var("k");
    scan.patterns.push_back({Pick(t.list_predicates, rng),
                             PatternTerm::Var("a")});
    scan.patterns.push_back({Pick(t.list_predicates, rng),
                             PatternTerm::Const(Pick(t.values, rng))});
    scan.patterns.push_back({Pick(t.flat_predicates, rng),
                             PatternTerm::Var("b")});
    return scan;
  };
  EXPECT_GT(RunShape(shape, "list constants"), 0u);
}

TEST(PtScanOracleTest, RepeatedVariableListList) {
  ShapeFn shape = [](const RandomTable& t, Rng& rng) {
    ScanShape scan;
    scan.key = PatternTerm::Var("k");
    scan.patterns.push_back({Pick(t.list_predicates, rng),
                             PatternTerm::Var("a")});
    scan.patterns.push_back({Pick(t.list_predicates, rng),
                             PatternTerm::Var("b")});
    scan.patterns.push_back({Pick(t.list_predicates, rng),
                             PatternTerm::Var("a")});
    return scan;
  };
  EXPECT_GT(RunShape(shape, "list x list"), 0u);
}

TEST(PtScanOracleTest, RepeatedVariableListFlat) {
  ShapeFn shape = [](const RandomTable& t, Rng& rng) {
    ScanShape scan;
    scan.key = PatternTerm::Var("k");
    ColumnPattern list{Pick(t.list_predicates, rng), PatternTerm::Var("a")};
    ColumnPattern flat{Pick(t.flat_predicates, rng), PatternTerm::Var("a")};
    // Both binding orders: list first (flat checks a position) and flat
    // first (the list cell checks a by-row value).
    if (rng.NextBounded(2) == 0) std::swap(list, flat);
    scan.patterns = {list, {Pick(t.list_predicates, rng),
                            PatternTerm::Var("b")}, flat};
    return scan;
  };
  EXPECT_GT(RunShape(shape, "list x flat"), 0u);
}

TEST(PtScanOracleTest, KeyVariableRepeatedOnList) {
  // `?s p ?s`, alone and after an expansion.
  ShapeFn shape = [](const RandomTable& t, Rng& rng) {
    ScanShape scan;
    scan.key = PatternTerm::Var("k");
    if (rng.NextBounded(2) == 0) {
      scan.patterns.push_back({Pick(t.list_predicates, rng),
                               PatternTerm::Var("a")});
    }
    scan.patterns.push_back({Pick(t.list_predicates, rng),
                             PatternTerm::Var("k")});
    return scan;
  };
  EXPECT_GT(RunShape(shape, "key x list"), 0u);
}

TEST(PtScanOracleTest, SamePredicateTwice) {
  ShapeFn shape = [](const RandomTable& t, Rng& rng) {
    ScanShape scan;
    scan.key = PatternTerm::Var("k");
    TermId predicate = rng.NextBounded(3) == 0 ? Pick(t.flat_predicates, rng)
                                               : Pick(t.list_predicates, rng);
    static const char* const kSecond[] = {"a", "b"};
    scan.patterns.push_back({predicate, PatternTerm::Var("a")});
    scan.patterns.push_back(
        {predicate, rng.NextBounded(4) == 0
                        ? PatternTerm::Const(Pick(t.values, rng))
                        : PatternTerm::Var(kSecond[rng.NextBounded(2)])});
    return scan;
  };
  EXPECT_GT(RunShape(shape, "same predicate"), 0u);
}

TEST(PtScanOracleTest, ConstantKey) {
  // Keys present in the table, values that are no key (bloom and row
  // filter), and the impossible constant.
  ShapeFn shape = [](const RandomTable& t, Rng& rng) {
    ScanShape scan;
    scan.key = rng.NextBounded(8) == 0
                   ? PatternTerm::Const(rdf::kNullTermId)
                   : PatternTerm::Const(Pick(t.values, rng));
    scan.patterns.push_back({Pick(t.list_predicates, rng),
                             PatternTerm::Var("a")});
    scan.patterns.push_back({Pick(t.list_predicates, rng),
                             PatternTerm::Var("b")});
    scan.patterns.push_back({Pick(t.flat_predicates, rng),
                             PatternTerm::Var("a")});
    return scan;
  };
  RunShape(shape, "constant key");
  ShapeFn present = [](const RandomTable& t, Rng& rng) {
    ScanShape scan;
    scan.key = PatternTerm::Const(t.graph.dictionary().Lookup("<s0>"));
    scan.patterns.push_back({Pick(t.list_predicates, rng),
                             PatternTerm::Var("a")});
    scan.patterns.push_back({Pick(t.list_predicates, rng),
                             PatternTerm::Var("b")});
    return scan;
  };
  EXPECT_GT(RunShape(present, "present constant key"), 0u);
}

/// Any predicate of the random graph, list or flat in the PT.
TermId AnyPredicate(const RandomTable& t, Rng& rng) {
  return rng.NextBounded(2) == 0 ? Pick(t.list_predicates, rng)
                                 : Pick(t.flat_predicates, rng);
}

TEST(VpScanOracleTest, Open) {
  ShapeFn shape = [](const RandomTable& t, Rng& rng) {
    return ScanShape{PatternTerm::Var("s"),
                     {{AnyPredicate(t, rng), PatternTerm::Var("o")}}};
  };
  EXPECT_GT(RunShape(shape, "vp open", /*vertical=*/true), 0u);
}

TEST(VpScanOracleTest, ConstantSubject) {
  // Subjects present in the table and values that are no subject (the
  // bloom filter and the row filter both see them).
  ShapeFn shape = [](const RandomTable& t, Rng& rng) {
    return ScanShape{PatternTerm::Const(Pick(t.values, rng)),
                     {{AnyPredicate(t, rng), PatternTerm::Var("o")}}};
  };
  EXPECT_GT(RunShape(shape, "vp constant subject", true), 0u);
}

TEST(VpScanOracleTest, ConstantObject) {
  ShapeFn shape = [](const RandomTable& t, Rng& rng) {
    return ScanShape{PatternTerm::Var("s"),
                     {{AnyPredicate(t, rng),
                       PatternTerm::Const(Pick(t.values, rng))}}};
  };
  EXPECT_GT(RunShape(shape, "vp constant object", true), 0u);
}

TEST(VpScanOracleTest, SameVariable) {
  // `?x p ?x`: one output column, rows with s == o.
  ShapeFn shape = [](const RandomTable& t, Rng& rng) {
    return ScanShape{PatternTerm::Var("x"),
                     {{AnyPredicate(t, rng), PatternTerm::Var("x")}}};
  };
  EXPECT_GT(RunShape(shape, "vp same variable", true), 0u);
}

TEST(VpScanOracleTest, UnknownPredicate) {
  // Value ids are never predicates of the random graph.
  ShapeFn shape = [](const RandomTable& t, Rng& rng) {
    return ScanShape{PatternTerm::Var("s"),
                     {{Pick(t.values, rng), PatternTerm::Var("o")}}};
  };
  EXPECT_EQ(RunShape(shape, "vp unknown predicate", true), 0u);
}

TEST(VpScanOracleTest, ImpossibleConstant) {
  // A constant outside the dictionary, in either position.
  ShapeFn shape = [](const RandomTable& t, Rng& rng) {
    const PatternTerm impossible = PatternTerm::Const(rdf::kNullTermId);
    ScanShape scan{PatternTerm::Var("s"),
                   {{AnyPredicate(t, rng), PatternTerm::Var("o")}}};
    (rng.NextBounded(2) == 0 ? scan.key : scan.patterns[0].value) =
        impossible;
    return scan;
  };
  EXPECT_EQ(RunShape(shape, "vp impossible constant", true), 0u);
}

TEST(PtScanOracleTest, EveryWatDivPtScan) {
  watdiv::WatDivConfig config;
  config.target_triples = 20000;
  config.seed = 11;
  watdiv::WatDivDataset dataset = watdiv::Generate(config);
  dataset.graph.SortAndDedupe();
  auto graph =
      std::make_shared<const rdf::EncodedGraph>(std::move(dataset.graph));
  watdiv::WatDivDataset sizing_only;  // Queries depend only on IRIs.
  const std::vector<watdiv::WatDivQuery> queries =
      watdiv::BasicQuerySet(sizing_only);
  ASSERT_EQ(queries.size(), 20u);
  // Mixed VP+PT at default and split row groups, then reverse-PT only:
  // the translator hands the reverse table only patterns no forward PT
  // group took, so without the forward table it sees every same-object
  // group.
  struct Config {
    bool forward;
    uint32_t row_group_rows;
  };
  ThreadConfigs threads;
  size_t forward_scans = 0;
  size_t reverse_scans = 0;
  size_t vp_scans = 0;
  size_t rows = 0;
  for (Config config : {Config{true, 0}, Config{true, 256},
                        Config{false, 256}}) {
    ProstDb::Options options;
    options.use_property_table = config.forward;
    options.use_reverse_property_table = true;
    options.storage.row_group_rows = config.row_group_rows;
    auto db = ProstDb::LoadFromSharedGraph(graph, options);
    ASSERT_TRUE(db.ok()) << db.status();
    for (const watdiv::WatDivQuery& wq : queries) {
      auto parsed = sparql::ParseQuery(wq.sparql);
      ASSERT_TRUE(parsed.ok()) << wq.id << ": " << parsed.status();
      auto tree = (*db)->Plan(*parsed);
      ASSERT_TRUE(tree.ok()) << wq.id << ": " << tree.status();
      for (const JoinTreeNode& node : tree->nodes) {
        for (const auto& [exec, thread_name] : threads.all()) {
          const std::string context =
              wq.id + " " + node.Label() + " rg " +
              std::to_string(config.row_group_rows) + thread_name;
          if (node.kind == NodeKind::kVerticalPartitioning) {
            const NodePattern& p = node.patterns[0];
            rows += ExpectVpScanMatchesOracle((*db)->vp_store(), p.predicate,
                                              p.subject, p.object, exec,
                                              context);
            ++vp_scans;
            continue;
          }
          const bool reverse = node.kind == NodeKind::kReversePropertyTable;
          std::vector<ColumnPattern> patterns;
          for (const NodePattern& p : node.patterns) {
            patterns.push_back({p.predicate, reverse ? p.subject : p.object});
          }
          const PatternTerm& key =
              reverse ? node.patterns[0].object : node.patterns[0].subject;
          const PropertyTable* pt = reverse
                                        ? (*db)->reverse_property_table()
                                        : (*db)->property_table();
          ASSERT_NE(pt, nullptr);
          rows += ExpectScanMatchesOracle(*pt, (*db)->dictionary(), key,
                                          patterns, exec, context);
          ++(reverse ? reverse_scans : forward_scans);
        }
      }
    }
  }
  EXPECT_GT(forward_scans, 20u);
  EXPECT_GT(reverse_scans, 0u);
  EXPECT_GT(vp_scans, 20u);
  EXPECT_GT(rows, 0u);
}

}  // namespace
}  // namespace prost::core
