// Unit tests for the flat open-addressing join hash table and the batch
// kernels behind the vectorized operators: collision chains, growth
// across capacity boundaries, duplicate-key run ordering, empty-table
// probes, and a randomized differential against a
// std::unordered_multimap oracle.

#include "engine/hash_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "engine/kernels.h"
#include "engine/relation.h"

namespace prost::engine {
namespace {

std::vector<uint32_t> RowsOf(FlatHashTable::Range range) {
  return std::vector<uint32_t>(range.begin, range.end);
}

TEST(FlatHashTableTest, EmptyTableProbeFindsNothing) {
  FlatHashTable table;
  EXPECT_TRUE(table.Lookup(0).empty());
  EXPECT_TRUE(table.Lookup(42).empty());
  table.Build(nullptr, 0);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_TRUE(table.Lookup(0).empty());
  EXPECT_TRUE(table.Lookup(~0ull).empty());
}

TEST(FlatHashTableTest, SingleKeyAndMisses) {
  std::vector<uint64_t> hashes = {7};
  FlatHashTable table;
  table.Build(hashes.data(), hashes.size());
  EXPECT_EQ(RowsOf(table.Lookup(7)), (std::vector<uint32_t>{0}));
  EXPECT_TRUE(table.Lookup(8).empty());
  EXPECT_TRUE(table.Lookup(0).empty());
}

TEST(FlatHashTableTest, DuplicateKeysPreserveAscendingRowOrder) {
  // Rows 0..9 alternate between two hashes; each run must list its rows
  // in ascending order — the join determinism contract.
  std::vector<uint64_t> hashes;
  for (uint64_t r = 0; r < 10; ++r) hashes.push_back(100 + r % 2);
  FlatHashTable table;
  table.Build(hashes.data(), hashes.size());
  EXPECT_EQ(RowsOf(table.Lookup(100)),
            (std::vector<uint32_t>{0, 2, 4, 6, 8}));
  EXPECT_EQ(RowsOf(table.Lookup(101)),
            (std::vector<uint32_t>{1, 3, 5, 7, 9}));
}

TEST(FlatHashTableTest, CollidingHashesProbeThroughChains) {
  // Hashes that all land in the same slot modulo any power-of-two
  // capacity (identical low bits) force maximal linear-probe chains.
  constexpr uint64_t kStride = 1ull << 40;
  std::vector<uint64_t> hashes;
  for (uint64_t i = 0; i < 64; ++i) hashes.push_back(5 + i * kStride);
  FlatHashTable table;
  table.Build(hashes.data(), hashes.size());
  for (uint64_t i = 0; i < 64; ++i) {
    EXPECT_EQ(RowsOf(table.Lookup(5 + i * kStride)),
              (std::vector<uint32_t>{static_cast<uint32_t>(i)}))
        << "colliding key " << i;
  }
  EXPECT_TRUE(table.Lookup(5 + 64 * kStride).empty());
  EXPECT_TRUE(table.Lookup(6).empty());
}

TEST(FlatHashTableTest, GrowthAcrossCapacityBoundaries) {
  // Build at every size crossing several power-of-two capacity steps;
  // capacity must stay a power of two with load <= 1/2, and every key
  // must remain findable.
  Rng rng(17);
  for (size_t n : {1u, 7u, 8u, 9u, 15u, 16u, 17u, 100u, 1000u, 5000u}) {
    std::vector<uint64_t> hashes;
    hashes.reserve(n);
    for (size_t r = 0; r < n; ++r) hashes.push_back(rng.Next());
    FlatHashTable table;
    table.Build(hashes.data(), hashes.size());
    EXPECT_EQ(table.size(), n);
    ASSERT_GE(table.capacity(), 2 * n) << "load factor above 1/2 at " << n;
    EXPECT_EQ(table.capacity() & (table.capacity() - 1), 0u)
        << "capacity not a power of two at " << n;
    for (size_t r = 0; r < n; ++r) {
      FlatHashTable::Range range = table.Lookup(hashes[r]);
      EXPECT_TRUE(std::find(range.begin, range.end,
                            static_cast<uint32_t>(r)) != range.end)
          << "row " << r << " missing at size " << n;
    }
  }
}

TEST(FlatHashTableTest, RebuildReusesTheTable) {
  std::vector<uint64_t> first = {1, 2, 3};
  FlatHashTable table;
  table.Build(first.data(), first.size());
  EXPECT_FALSE(table.Lookup(2).empty());

  // Rebuild with different (larger) contents: no stale entries.
  std::vector<uint64_t> second;
  for (uint64_t r = 0; r < 100; ++r) second.push_back(1000 + r);
  table.Build(second.data(), second.size());
  EXPECT_EQ(table.size(), 100u);
  EXPECT_TRUE(table.Lookup(1).empty());
  EXPECT_EQ(RowsOf(table.Lookup(1042)), (std::vector<uint32_t>{42}));
}

TEST(FlatHashTableTest, BuildFromRowsKeepsCallerOrder) {
  // A subset of rows, ascending (as the partitioned join build passes
  // them): runs carry exactly those rows in that order.
  std::vector<uint64_t> row_hashes = {9, 7, 9, 7, 9, 7};
  std::vector<uint32_t> rows = {1, 3, 5};  // The hash-7 partition.
  FlatHashTable table;
  table.BuildFromRows(rows.data(), rows.size(), row_hashes.data());
  EXPECT_EQ(RowsOf(table.Lookup(7)), (std::vector<uint32_t>{1, 3, 5}));
  EXPECT_TRUE(table.Lookup(9).empty());  // Other partition's key.
}

TEST(FlatHashTableTest, RandomizedDifferentialVsUnorderedMultimap) {
  Rng rng(4099);
  for (int round = 0; round < 20; ++round) {
    // Small key spaces force heavy duplication; large ones force misses.
    const size_t n = 1 + rng.NextBounded(3000);
    const uint64_t key_space = 1 + rng.NextBounded(2 * n);
    std::vector<uint64_t> hashes;
    hashes.reserve(n);
    std::unordered_multimap<uint64_t, uint32_t> oracle;
    for (size_t r = 0; r < n; ++r) {
      // Low-entropy hashes (not mixed) also exercise clustered probing.
      uint64_t h = rng.NextBounded(key_space);
      hashes.push_back(h);
      oracle.emplace(h, static_cast<uint32_t>(r));
    }
    FlatHashTable table;
    table.Build(hashes.data(), hashes.size());
    ASSERT_EQ(table.size(), n);
    for (uint64_t h = 0; h < key_space + 10; ++h) {
      auto [begin, end] = oracle.equal_range(h);
      std::vector<uint32_t> expected;
      for (auto it = begin; it != end; ++it) expected.push_back(it->second);
      std::sort(expected.begin(), expected.end());  // Ours is ascending.
      EXPECT_EQ(RowsOf(table.Lookup(h)), expected)
          << "round " << round << " hash " << h;
    }
  }
}

// ---------------------------------------------------------------------
// Batch kernels.

TEST(KernelsTest, HashColumnsMatchesPerRowFold) {
  // The batch hash must equal the per-row HashCombine fold over the key
  // columns in order (build and probe sides must agree bit-for-bit).
  RelationChunk chunk;
  chunk.columns = {{10, 20, 30, 40}, {5, 6, 7, 8}, {1, 1, 2, 2}};
  std::vector<int> keys = {2, 0};
  std::vector<uint64_t> batch;
  kernels::HashColumns(chunk, keys, 1, 4, batch);
  ASSERT_EQ(batch.size(), 3u);
  for (size_t r = 1; r < 4; ++r) {
    uint64_t expected = kernels::kKeyHashSeed;
    for (int c : keys) {
      expected =
          HashCombine(expected, chunk.columns[static_cast<size_t>(c)][r]);
    }
    EXPECT_EQ(batch[r - 1], expected) << "row " << r;
  }
}

TEST(KernelsTest, FilterRefineGatherComposition) {
  columnar::IdVector a = {1, 2, 1, 1, 3, 1};
  columnar::IdVector b = {9, 9, 8, 9, 9, 9};
  std::vector<uint32_t> sel;
  kernels::Filter(a, 1, 0, a.size(), sel);
  EXPECT_EQ(sel, (std::vector<uint32_t>{0, 2, 3, 5}));
  kernels::Refine(b, 9, sel);
  EXPECT_EQ(sel, (std::vector<uint32_t>{0, 3, 5}));
  columnar::IdVector gathered;
  kernels::Gather(b, sel, gathered);
  EXPECT_EQ(gathered, (columnar::IdVector{9, 9, 9}));
  // Gather appends.
  kernels::Gather(a, sel, gathered);
  EXPECT_EQ(gathered, (columnar::IdVector{9, 9, 9, 1, 1, 1}));
}

TEST(KernelsTest, RowEqualityAndNullKernels) {
  columnar::IdVector a = {0, 4, 5, 0, 7};
  columnar::IdVector b = {0, 4, 6, 1, 7};
  std::vector<uint32_t> sel;
  kernels::FilterRowsEqual(a, b, 0, a.size(), sel);
  EXPECT_EQ(sel, (std::vector<uint32_t>{0, 1, 4}));
  kernels::RefineNotNull(a, sel);
  EXPECT_EQ(sel, (std::vector<uint32_t>{1, 4}));
  sel.clear();
  kernels::Iota(2, 5, sel);
  EXPECT_EQ(sel, (std::vector<uint32_t>{2, 3, 4}));
}

TEST(KernelsTest, KeyMatchesVerifyRunsStably) {
  RelationChunk build;
  build.columns = {{1, 2, 3, 1}, {10, 20, 30, 11}};
  RelationChunk probe;
  probe.columns = {{1, 3, 9}, {10, 31, 30}};
  // Every probe row hashed to the whole build side; verification decides.
  const std::vector<uint32_t> all = {0, 1, 2, 3};
  const FlatHashTable::Range run{all.data(), all.data() + all.size()};
  const std::vector<FlatHashTable::Range> runs = {run, run, run};
  const std::vector<uint32_t> rows = {0, 1, 2};
  std::vector<uint32_t> counts(runs.size(), 99);
  std::vector<uint32_t> out(runs.size() * all.size(), 99);

  // Multi-key: both columns must match. Only build row 0 is (1, 10);
  // probe (3, 31) matches build row 2 on one key only.
  std::vector<int> cols = {0, 1};
  EXPECT_EQ(kernels::CountKeyMatches(build, cols, probe, cols, rows.data(),
                                     runs.data(), runs.size(),
                                     counts.data()),
            1u);
  EXPECT_EQ(counts, (std::vector<uint32_t>{1, 0, 0}));
  EXPECT_EQ(kernels::SelectKeyMatches(build, cols, probe, cols, rows.data(),
                                      runs.data(), runs.size(), counts.data(),
                                      out.data()),
            1u);
  EXPECT_EQ(out[0], 0u);

  // Single-key fast path: duplicates kept in run order, probe-row-major.
  std::vector<int> one = {0};
  EXPECT_EQ(kernels::SelectKeyMatches(build, one, probe, one, rows.data(),
                                      runs.data(), runs.size(), counts.data(),
                                      out.data()),
            3u);
  EXPECT_EQ(counts, (std::vector<uint32_t>{2, 1, 0}));
  EXPECT_EQ(std::vector<uint32_t>(out.begin(), out.begin() + 3),
            (std::vector<uint32_t>{0, 3, 2}));
  // Probe rows need not be contiguous: rows 2 (key 9) and 1 (key 3).
  const std::vector<uint32_t> skipping = {2, 1};
  EXPECT_EQ(kernels::CountKeyMatches(build, one, probe, one, skipping.data(),
                                     runs.data(), 2, counts.data()),
            1u);
  EXPECT_EQ(std::vector<uint32_t>(counts.begin(), counts.begin() + 2),
            (std::vector<uint32_t>{0, 1}));
}

TEST(KernelsTest, GatherAndRepeatWriteInPlace) {
  const columnar::IdVector src = {5, 6, 7, 8};
  const std::vector<uint32_t> sel = {3, 0, 0, 2};
  columnar::IdVector dst(6, 0);
  kernels::Gather(src, sel.data(), sel.size(), dst.data() + 1);
  EXPECT_EQ(dst, (columnar::IdVector{0, 8, 5, 5, 7, 0}));

  // Rows 1, 2 and 3 repeated 2, 0 and 3 times.
  const std::vector<uint32_t> rows = {1, 2, 3};
  const std::vector<uint32_t> counts = {2, 0, 3};
  columnar::IdVector repeated(5, 0);
  kernels::Repeat(src, rows.data(), counts.data(), rows.size(),
                  repeated.data());
  EXPECT_EQ(repeated, (columnar::IdVector{6, 6, 8, 8, 8}));
}

columnar::IdListColumn ListOf(
    const std::vector<columnar::IdVector>& cells) {
  columnar::IdListColumn lists;
  for (const columnar::IdVector& cell : cells) lists.AppendRow(cell);
  return lists;
}

TEST(KernelsTest, ListRefinesHandleEmptyCellsAndDrain) {
  columnar::IdListColumn lists = ListOf({{1, 2}, {}, {3}, {2, 4, 2}, {}});
  std::vector<uint32_t> sel;
  kernels::Iota(0, lists.num_rows(), sel);
  kernels::RefineListNotEmpty(lists, sel);
  EXPECT_EQ(sel, (std::vector<uint32_t>{0, 2, 3}));
  // Membership, not position: 2 sits first in row 0, twice in row 3.
  kernels::RefineListContains(lists, 2, sel);
  EXPECT_EQ(sel, (std::vector<uint32_t>{0, 3}));
  // An empty cell contains nothing, even a value absent everywhere.
  std::vector<uint32_t> empty_rows = {1, 4};
  kernels::RefineListContains(lists, 2, empty_rows);
  EXPECT_TRUE(empty_rows.empty());
  // A selection drains to nothing and stays usable.
  kernels::RefineListContains(lists, 9, sel);
  EXPECT_TRUE(sel.empty());
  kernels::RefineListNotEmpty(lists, sel);
  EXPECT_TRUE(sel.empty());
}

TEST(KernelsTest, FilterListContainsTestsEachEntry) {
  columnar::IdListColumn lists = ListOf({{1, 2}, {}, {3, 5}});
  // Entries may repeat rows; each carries its own probe value.
  std::vector<uint32_t> rows = {0, 0, 1, 2, 2};
  columnar::IdVector values = {2, 3, 1, 5, 3};
  std::vector<uint32_t> keep = {7};  // Appends after existing entries.
  kernels::FilterListContains(lists, rows, values, keep);
  EXPECT_EQ(keep, (std::vector<uint32_t>{7, 0, 3, 4}));
  keep.clear();
  kernels::FilterListContains(lists, {}, {}, keep);
  EXPECT_TRUE(keep.empty());
}

TEST(KernelsTest, ListExpandRepeatsInOrder) {
  columnar::IdListColumn lists = ListOf({{10, 11}, {}, {12}, {13, 14, 15}});
  // Entries out of row order and repeated: the output follows the
  // entries, each cell's positions nested inside its entry.
  std::vector<uint32_t> rows = {3, 1, 0, 3};
  std::vector<uint32_t> repeat;
  std::vector<uint32_t> positions;
  kernels::ListExpand(lists, rows, repeat, positions);
  EXPECT_EQ(repeat, (std::vector<uint32_t>{0, 0, 0, 2, 2, 3, 3, 3}));
  EXPECT_EQ(positions, (std::vector<uint32_t>{3, 4, 5, 0, 1, 3, 4, 5}));
  columnar::IdVector values;
  kernels::Gather(lists.values, positions, values);
  EXPECT_EQ(values, (columnar::IdVector{13, 14, 15, 10, 11, 13, 14, 15}));
  // Gathering a per-entry vector through `repeat` lines it up.
  std::vector<uint32_t> repeated_rows;
  kernels::Gather(rows, repeat, repeated_rows);
  EXPECT_EQ(repeated_rows, (std::vector<uint32_t>{3, 3, 3, 0, 0, 3, 3, 3}));
  // Only empty cells (or no entries) expand to nothing.
  repeat.clear();
  positions.clear();
  kernels::ListExpand(lists, {1, 1}, repeat, positions);
  kernels::ListExpand(lists, {}, repeat, positions);
  EXPECT_TRUE(repeat.empty());
  EXPECT_TRUE(positions.empty());
}

}  // namespace
}  // namespace prost::engine
