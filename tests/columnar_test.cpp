// Unit and property tests for the columnar substrate: encodings, stored
// tables, the lexical (Parquet-like) format, and horizontal partitioning.

#include <gtest/gtest.h>

#include "columnar/bloom.h"
#include "columnar/buffer_pool.h"
#include "columnar/encoding.h"
#include "columnar/lexical_format.h"
#include "columnar/paged_table.h"
#include "columnar/partition.h"
#include "columnar/table.h"
#include "columnar/types.h"
#include "common/hash.h"
#include "common/io.h"
#include "common/rng.h"

namespace prost::columnar {
namespace {

// --------------------------------------------------------------- Schema

TEST(SchemaTest, FieldIndexAndDuplicates) {
  Schema schema;
  ASSERT_TRUE(schema.AddField({"s", ColumnKind::kId}).ok());
  ASSERT_TRUE(schema.AddField({"o", ColumnKind::kIdList}).ok());
  EXPECT_EQ(schema.FieldIndex("s"), 0);
  EXPECT_EQ(schema.FieldIndex("o"), 1);
  EXPECT_EQ(schema.FieldIndex("missing"), -1);
  EXPECT_EQ(schema.AddField({"s", ColumnKind::kId}).code(),
            StatusCode::kAlreadyExists);
}

// -------------------------------------------------------------- Columns

TEST(ColumnTest, ListColumnAppendAndRowSize) {
  IdListColumn lists;
  lists.AppendRow({1, 2, 3});
  lists.AppendRow({});
  lists.AppendRow({9});
  EXPECT_EQ(lists.num_rows(), 3u);
  EXPECT_EQ(lists.RowSize(0), 3u);
  EXPECT_EQ(lists.RowSize(1), 0u);
  EXPECT_EQ(lists.RowSize(2), 1u);
  EXPECT_EQ(lists.values, (IdVector{1, 2, 3, 9}));
}

TEST(ColumnTest, StatsFlat) {
  ColumnStats stats = ComputeStats(IdVector{5, 0, 3, 9, 0});
  EXPECT_EQ(stats.min_id, 3u);
  EXPECT_EQ(stats.max_id, 9u);
  EXPECT_EQ(stats.null_count, 2u);
  EXPECT_EQ(stats.value_count, 3u);
}

TEST(ColumnTest, StatsList) {
  IdListColumn lists;
  lists.AppendRow({4, 7});
  lists.AppendRow({});
  lists.AppendRow({2});
  ColumnStats stats = ComputeStats(lists);
  EXPECT_EQ(stats.min_id, 2u);
  EXPECT_EQ(stats.max_id, 7u);
  EXPECT_EQ(stats.null_count, 1u);
  EXPECT_EQ(stats.value_count, 3u);
}

TEST(ColumnTest, StatsEmpty) {
  ColumnStats stats = ComputeStats(IdVector{});
  EXPECT_EQ(stats.value_count, 0u);
  EXPECT_EQ(stats.null_count, 0u);
}

// ------------------------------------------------------------ Encodings

struct EncodingCase {
  const char* name;
  IdVector ids;
};

IdVector RandomIds(size_t n, uint64_t cap, uint64_t seed) {
  Rng rng(seed);
  IdVector ids(n);
  for (auto& id : ids) id = rng.NextBounded(cap);
  return ids;
}

std::vector<EncodingCase> EncodingCases() {
  std::vector<EncodingCase> cases;
  cases.push_back({"empty", {}});
  cases.push_back({"single", {42}});
  cases.push_back({"constant", IdVector(1000, 7)});
  cases.push_back({"all_nulls", IdVector(1000, 0)});
  IdVector sorted(1000);
  for (size_t i = 0; i < sorted.size(); ++i) sorted[i] = i * 3 + 1;
  cases.push_back({"sorted", sorted});
  IdVector descending(500);
  for (size_t i = 0; i < descending.size(); ++i) {
    descending[i] = 100000 - i * 7;
  }
  cases.push_back({"descending", descending});
  cases.push_back({"random_small", RandomIds(2000, 100, 1)});
  cases.push_back({"random_large", RandomIds(2000, ~0ull, 2)});
  IdVector runs;
  for (int r = 0; r < 50; ++r) {
    runs.insert(runs.end(), 37, static_cast<TermId>(r * r));
  }
  cases.push_back({"runs", runs});
  return cases;
}

class EncodingRoundTripTest
    : public ::testing::TestWithParam<std::tuple<int, Encoding>> {};

TEST_P(EncodingRoundTripTest, ExplicitEncodingRoundTrips) {
  const auto& [case_index, encoding] = GetParam();
  const EncodingCase c = EncodingCases()[static_cast<size_t>(case_index)];
  ByteWriter writer;
  EncodeIdsWith(c.ids, encoding, writer);
  // The size estimator must agree with the actual encoder.
  EXPECT_EQ(writer.size(), EncodedSize(c.ids, encoding)) << c.name;
  ByteWriter tagged;
  tagged.PutU8(static_cast<uint8_t>(encoding));
  tagged.PutRaw(writer.buffer().data(), writer.size());
  ByteReader reader(tagged.buffer());
  IdVector decoded;
  ASSERT_TRUE(DecodeIds(reader, c.ids.size(), &decoded).ok()) << c.name;
  EXPECT_EQ(decoded, c.ids) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EncodingRoundTripTest,
    ::testing::Combine(::testing::Range(0, 9),
                       ::testing::Values(Encoding::kPlainVarint,
                                         Encoding::kRle,
                                         Encoding::kDeltaVarint,
                                         Encoding::kBitPacked)));

TEST(EncodingTest, BitPackedDenseSmallDomainWins) {
  // Values in [0, 7]: 3 bits each; varint costs a full byte.
  IdVector ids(4096);
  Rng rng(21);
  for (auto& id : ids) id = rng.NextBounded(8);
  uint64_t packed = EncodedSize(ids, Encoding::kBitPacked);
  uint64_t plain = EncodedSize(ids, Encoding::kPlainVarint);
  EXPECT_LT(packed, plain / 2);
  ByteWriter writer;
  // Adaptive must pick bit-packing for this shape (RLE runs are short,
  // deltas are random).
  EXPECT_EQ(EncodeIdsAdaptive(ids, writer), Encoding::kBitPacked);
  ByteReader reader(writer.buffer());
  IdVector decoded;
  ASSERT_TRUE(DecodeIds(reader, ids.size(), &decoded).ok());
  EXPECT_EQ(decoded, ids);
}

TEST(EncodingTest, BitPackedFullWidthValues) {
  IdVector ids = {~0ull, 0, 1ull << 63, 0x123456789abcdef0ull};
  ByteWriter writer;
  EncodeIdsWith(ids, Encoding::kBitPacked, writer);
  EXPECT_EQ(writer.size(), EncodedSize(ids, Encoding::kBitPacked));
  ByteWriter tagged;
  tagged.PutU8(static_cast<uint8_t>(Encoding::kBitPacked));
  tagged.PutRaw(writer.buffer().data(), writer.size());
  ByteReader reader(tagged.buffer());
  IdVector decoded;
  ASSERT_TRUE(DecodeIds(reader, ids.size(), &decoded).ok());
  EXPECT_EQ(decoded, ids);
}

TEST(EncodingTest, DeltaFullWidthValuesRoundTrip) {
  // Regression: consecutive ids straddling 2^63 (virtual integer ids set
  // the top bit) used to signed-overflow in the delta codec on both the
  // encode and decode side. Deltas wrap modulo 2^64 and must round-trip.
  IdVector ids = {12657228522535264308ull,  // the original UBSan repro pair
                  4353188321398943952ull,
                  ~0ull,
                  0,
                  1ull << 63,
                  (1ull << 63) + 5,
                  1};
  ByteWriter writer;
  EncodeIdsWith(ids, Encoding::kDeltaVarint, writer);
  EXPECT_EQ(writer.size(), EncodedSize(ids, Encoding::kDeltaVarint));
  ByteWriter tagged;
  tagged.PutU8(static_cast<uint8_t>(Encoding::kDeltaVarint));
  tagged.PutRaw(writer.buffer().data(), writer.size());
  ByteReader reader(tagged.buffer());
  IdVector decoded;
  ASSERT_TRUE(DecodeIds(reader, ids.size(), &decoded).ok());
  EXPECT_EQ(decoded, ids);
}

TEST(EncodingTest, BitPackedTruncationIsCorruption) {
  IdVector ids(100, 5);
  ByteWriter writer;
  writer.PutU8(static_cast<uint8_t>(Encoding::kBitPacked));
  EncodeIdsWith(ids, Encoding::kBitPacked, writer);
  std::string_view truncated(writer.buffer().data(), writer.size() / 2);
  ByteReader reader(truncated);
  IdVector out;
  EXPECT_EQ(DecodeIds(reader, ids.size(), &out).code(),
            StatusCode::kCorruption);
}

TEST(EncodingTest, AdaptivePicksSmallest) {
  // Constant data must pick RLE; sorted data must pick delta.
  ByteWriter constant_writer;
  EXPECT_EQ(EncodeIdsAdaptive(IdVector(1000, 99), constant_writer),
            Encoding::kRle);
  IdVector sorted(1000);
  for (size_t i = 0; i < sorted.size(); ++i) sorted[i] = 1000000 + i * 1000;
  ByteWriter sorted_writer;
  EXPECT_EQ(EncodeIdsAdaptive(sorted, sorted_writer),
            Encoding::kDeltaVarint);
}

TEST(EncodingTest, AdaptiveRoundTripsRandom) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    IdVector ids = RandomIds(777, 1 << (seed + 2), seed);
    ByteWriter writer;
    EncodeIdsAdaptive(ids, writer);
    ByteReader reader(writer.buffer());
    IdVector decoded;
    ASSERT_TRUE(DecodeIds(reader, ids.size(), &decoded).ok());
    EXPECT_EQ(decoded, ids);
  }
}

TEST(EncodingTest, DecodeRejectsBadTag) {
  std::string bytes = "\x09";
  ByteReader reader(bytes);
  IdVector out;
  EXPECT_EQ(DecodeIds(reader, 0, &out).code(), StatusCode::kCorruption);
}

TEST(EncodingTest, DecodeRleRejectsOverrun) {
  ByteWriter writer;
  writer.PutU8(static_cast<uint8_t>(Encoding::kRle));
  writer.PutVarint(5);   // value
  writer.PutVarint(10);  // run longer than requested count
  ByteReader reader(writer.buffer());
  IdVector out;
  EXPECT_EQ(DecodeIds(reader, 3, &out).code(), StatusCode::kCorruption);
}

TEST(EncodingTest, ListColumnRoundTrip) {
  IdListColumn lists;
  lists.AppendRow({1, 2, 3});
  lists.AppendRow({});
  lists.AppendRow({7});
  lists.AppendRow({});
  lists.AppendRow({5, 5, 5, 5});
  ByteWriter writer;
  EncodeIdList(lists, writer);
  ByteReader reader(writer.buffer());
  IdListColumn decoded;
  ASSERT_TRUE(DecodeIdList(reader, lists.num_rows(), &decoded).ok());
  EXPECT_EQ(decoded, lists);
}

TEST(EncodingTest, NullHeavyColumnCompressesHard) {
  // The §3.1 claim: RLE collapses the Property Table's NULLs.
  IdVector sparse(100000, kNullTermId);
  sparse[777] = 3;
  sparse[50000] = 9;
  uint64_t rle = EncodedSize(sparse, Encoding::kRle);
  uint64_t plain = EncodedSize(sparse, Encoding::kPlainVarint);
  EXPECT_LT(rle * 1000, plain);
}

// ----------------------------------------------------------- StoredTable

StoredTable MakeTable() {
  Schema schema;
  EXPECT_TRUE(schema.AddField({"s", ColumnKind::kId}).ok());
  EXPECT_TRUE(schema.AddField({"vals", ColumnKind::kIdList}).ok());
  IdVector subjects{1, 2, 3, 4};
  IdListColumn lists;
  lists.AppendRow({10, 11});
  lists.AppendRow({});
  lists.AppendRow({12});
  lists.AppendRow({13, 14, 15});
  std::vector<Column> columns;
  columns.emplace_back(std::move(subjects));
  columns.emplace_back(std::move(lists));
  return StoredTable(std::move(schema), std::move(columns));
}

TEST(StoredTableTest, ValidateCatchesShapeErrors) {
  StoredTable good = MakeTable();
  EXPECT_TRUE(good.Validate().ok());

  Schema schema;
  ASSERT_TRUE(schema.AddField({"a", ColumnKind::kId}).ok());
  ASSERT_TRUE(schema.AddField({"b", ColumnKind::kId}).ok());
  std::vector<Column> ragged;
  ragged.emplace_back(IdVector{1, 2});
  ragged.emplace_back(IdVector{1});
  EXPECT_FALSE(StoredTable(schema, std::move(ragged)).Validate().ok());

  std::vector<Column> wrong_kind;
  wrong_kind.emplace_back(IdVector{1});
  wrong_kind.emplace_back(IdListColumn{});
  // One row vs zero rows AND kind mismatch; either way it must fail.
  EXPECT_FALSE(StoredTable(schema, std::move(wrong_kind)).Validate().ok());
}

TEST(StoredTableTest, ColumnByName) {
  StoredTable table = MakeTable();
  ASSERT_TRUE(table.ColumnByName("s").ok());
  EXPECT_FALSE(table.ColumnByName("missing").ok());
}

// -------------------------------------------------------- Lexical format

TEST(LexicalFormatTest, RoundTripSameDictionary) {
  rdf::Dictionary dict;
  TermId a = dict.Intern("<http://a>");
  TermId b = dict.Intern("<http://b>");
  TermId lit = dict.Intern("\"value\"");

  Schema schema;
  ASSERT_TRUE(schema.AddField({"s", ColumnKind::kId}).ok());
  ASSERT_TRUE(schema.AddField({"o", ColumnKind::kIdList}).ok());
  IdVector subjects{a, b, a};
  IdListColumn lists;
  lists.AppendRow({lit});
  lists.AppendRow({});
  lists.AppendRow({a, b});
  std::vector<Column> columns;
  columns.emplace_back(std::move(subjects));
  columns.emplace_back(std::move(lists));
  StoredTable table(schema, std::move(columns));

  std::string bytes;
  ASSERT_TRUE(SerializeLexicalTable(table, dict, &bytes).ok());
  auto restored = DeserializeLexicalTable(bytes, &dict);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->column(0), table.column(0));
  EXPECT_EQ(restored->column(1), table.column(1));
}

TEST(LexicalFormatTest, RoundTripFreshDictionaryRemapsIds) {
  rdf::Dictionary dict;
  // Intern decoys first so ids differ from a fresh dictionary's.
  dict.Intern("<decoy1>");
  dict.Intern("<decoy2>");
  TermId a = dict.Intern("<http://a>");
  TermId lit = dict.Intern("\"v\"");

  Schema schema;
  ASSERT_TRUE(schema.AddField({"s", ColumnKind::kId}).ok());
  ASSERT_TRUE(schema.AddField({"o", ColumnKind::kId}).ok());
  std::vector<Column> columns;
  columns.emplace_back(IdVector{a, a});
  columns.emplace_back(IdVector{lit, kNullTermId});
  StoredTable table(schema, std::move(columns));

  std::string bytes;
  ASSERT_TRUE(SerializeLexicalTable(table, dict, &bytes).ok());
  rdf::Dictionary fresh;
  auto restored = DeserializeLexicalTable(bytes, &fresh);
  ASSERT_TRUE(restored.ok());
  // Ids are remapped, but decode to the same lexical content; NULL stays
  // NULL.
  EXPECT_EQ(fresh.LookupId(restored->column(0).ids()[0]).value(),
            "<http://a>");
  EXPECT_EQ(fresh.LookupId(restored->column(1).ids()[0]).value(), "\"v\"");
  EXPECT_EQ(restored->column(1).ids()[1], kNullTermId);
}

TEST(LexicalFormatTest, FileRoundTripWithCompression) {
  rdf::Dictionary dict;
  Schema schema;
  ASSERT_TRUE(schema.AddField({"s", ColumnKind::kId}).ok());
  IdVector subjects;
  for (int i = 0; i < 500; ++i) {
    subjects.push_back(dict.Intern("<http://entity/" +
                                   std::to_string(i % 50) + ">"));
  }
  std::vector<Column> columns;
  columns.emplace_back(std::move(subjects));
  StoredTable table(schema, std::move(columns));

  std::string path = ::testing::TempDir() + "/prost_lexical_test.tbl";
  ASSERT_TRUE(WriteLexicalTableFile(table, dict, path).ok());
  rdf::Dictionary fresh;
  auto restored = ReadLexicalTableFile(path, &fresh);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->num_rows(), 500u);
  EXPECT_EQ(fresh.size(), 50u);
  (void)RemoveAllRecursively(path);
}

TEST(LexicalFormatTest, ChecksumDetectsCorruption) {
  rdf::Dictionary dict;
  Schema schema;
  ASSERT_TRUE(schema.AddField({"s", ColumnKind::kId}).ok());
  std::vector<Column> columns;
  columns.emplace_back(IdVector{dict.Intern("<a>")});
  StoredTable table(schema, std::move(columns));
  std::string bytes;
  ASSERT_TRUE(SerializeLexicalTable(table, dict, &bytes).ok());
  bytes[6] ^= 0x01;
  rdf::Dictionary fresh;
  EXPECT_EQ(DeserializeLexicalTable(bytes, &fresh).status().code(),
            StatusCode::kCorruption);
}

TEST(LexicalFormatTest, SizeEstimateCountsDistinctLexicals) {
  rdf::Dictionary dict;
  TermId a = dict.Intern("<http://a-very-long-iri/aaaaaaaa>");
  std::vector<uint32_t> lengths = dict.TermLengths();
  // 1000 repetitions of one value: lexical bytes charged once.
  Column column(IdVector(1000, a));
  uint64_t estimate = LexicalColumnSizeEstimate(column, lengths);
  EXPECT_LT(estimate, 100u);
}

// ------------------------------------------------- Hostile persisted input
//
// Readers of persisted bytes answer Corruption; they never abort or write
// out of bounds. Every input below ends in a valid checksum, so only the
// structural checks stand between it and the decoders.

/// Appends the trailing HashBytes checksum both file formats end with.
std::string WithChecksum(ByteWriter& writer) {
  uint64_t checksum = HashBytes(writer.buffer());
  writer.PutU64(checksum);
  return writer.TakeBuffer();
}

/// A lexical table of one id column "s" whose header claims `rows` rows,
/// followed by `column` (local dictionary plus index stream) verbatim.
std::string LexicalBytes(uint64_t rows, const std::string& column) {
  ByteWriter writer;
  writer.PutU32(0x5052534c);  // "PRSL"
  writer.PutVarint(1);
  writer.PutString("s");
  writer.PutU8(static_cast<uint8_t>(ColumnKind::kId));
  writer.PutVarint(rows);
  writer.PutRaw(column.data(), column.size());
  return WithChecksum(writer);
}

/// A paged table of one id column and one row group of `group_rows`
/// rows whose chunk sits at `offset` (2 bytes long) in a 2-byte payload
/// holding one plain-varint value.
std::string PagedBytes(uint64_t group_rows, uint64_t offset) {
  ByteWriter writer;
  writer.PutU32(0x50525350);  // "PRSP"
  writer.PutU8(1);
  writer.PutVarint(1);
  writer.PutString("s");
  writer.PutU8(static_cast<uint8_t>(ColumnKind::kId));
  writer.PutVarint(group_rows);  // Table rows.
  writer.PutVarint(1);           // Row groups.
  writer.PutVarint(0);           // row_begin.
  writer.PutVarint(group_rows);
  for (uint64_t stat : {1, 1, 0, 1}) writer.PutVarint(stat);
  writer.PutVarint(offset);
  writer.PutVarint(2);
  BloomFilter::Build({1}).Serialize(writer);
  writer.PutString(
      std::string{static_cast<char>(Encoding::kPlainVarint), '\x01'});
  return WithChecksum(writer);
}

TEST(HostileInputTest, ValueCountBeyondEncodedBytesIsCorruption) {
  // An empty local dictionary, then an index stream with one value byte
  // under a header claiming 2^40 or 2^62 rows: sizing the output from
  // that claim before reading would throw bad_alloc or length_error.
  {
    rdf::Dictionary dict;  // The same bytes at one row: a NULL cell.
    std::string column{'\x00', static_cast<char>(Encoding::kPlainVarint),
                       '\x00'};
    ASSERT_TRUE(DeserializeLexicalTable(LexicalBytes(1, column), &dict).ok());
  }
  for (uint64_t rows : {uint64_t{1} << 40, uint64_t{1} << 62}) {
    for (Encoding encoding : {Encoding::kPlainVarint, Encoding::kRle,
                              Encoding::kDeltaVarint}) {
      std::string column{'\x00', static_cast<char>(encoding), '\x01'};
      rdf::Dictionary dict;
      EXPECT_EQ(DeserializeLexicalTable(LexicalBytes(rows, column), &dict)
                    .status()
                    .code(),
                StatusCode::kCorruption)
          << EncodingToString(encoding) << " at " << rows << " rows";
    }
    // Bit-packed at width 1: eight values per byte, not 2^40.
    std::string column{'\x00', static_cast<char>(Encoding::kBitPacked),
                       '\x01', '\x01'};
    rdf::Dictionary dict;
    EXPECT_EQ(DeserializeLexicalTable(LexicalBytes(rows, column), &dict)
                  .status()
                  .code(),
              StatusCode::kCorruption)
        << "bit_packed at " << rows << " rows";
  }
}

TEST(HostileInputTest, LocalDictionarySizeBeyondBytesIsCorruption) {
  // dict_size = 2^64 - 1 would wrap `dict_size + 1` to an empty lookup
  // vector that the entry loop then writes past.
  ByteWriter column;
  column.PutVarint(~uint64_t{0});
  column.PutString("<a>");
  column.PutU8(static_cast<uint8_t>(Encoding::kPlainVarint));
  column.PutVarint(1);
  rdf::Dictionary dict;
  EXPECT_EQ(
      DeserializeLexicalTable(LexicalBytes(1, column.buffer()), &dict)
          .status()
          .code(),
      StatusCode::kCorruption);
}

TEST(HostileInputTest, ChunkOffsetThatWrapsIsCorruption) {
  // offset + bytes wraps to 1, inside the 2-byte payload.
  ASSERT_TRUE(PagedTable::Deserialize(PagedBytes(1, 0)).ok());
  EXPECT_EQ(PagedTable::Deserialize(PagedBytes(1, ~uint64_t{0})).status()
                .code(),
            StatusCode::kCorruption);
}

TEST(HostileInputTest, RowGroupAboveUint32IsCorruption) {
  // 2^32 + 1 rows would count in full toward the header total while the
  // group itself keeps only the truncated 1.
  EXPECT_EQ(PagedTable::Deserialize(PagedBytes((uint64_t{1} << 32) + 1, 0))
                .status()
                .code(),
            StatusCode::kCorruption);
}

// ------------------------------------------------------------ Partition

TEST(PartitionTest, HashAssignmentIsDeterministicAndComplete) {
  IdVector keys = RandomIds(5000, 1 << 20, 12);
  auto assignment = AssignPartitionsByHash(keys, 9);
  auto assignment2 = AssignPartitionsByHash(keys, 9);
  EXPECT_EQ(assignment, assignment2);
  std::vector<int> counts(9, 0);
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_LT(assignment[i], 9u);
    ++counts[assignment[i]];
    // Equal keys always land together.
    EXPECT_EQ(assignment[i],
              static_cast<uint32_t>(Mix64(keys[i]) % 9));
  }
  for (int c : counts) EXPECT_GT(c, 300);  // Roughly balanced.
}

TEST(PartitionTest, RoundRobin) {
  auto assignment = AssignPartitionsRoundRobin(10, 3);
  EXPECT_EQ(assignment,
            (std::vector<uint32_t>{0, 1, 2, 0, 1, 2, 0, 1, 2, 0}));
}

TEST(PartitionTest, SplitPreservesRowsAndLists) {
  Schema schema;
  ASSERT_TRUE(schema.AddField({"k", ColumnKind::kId}).ok());
  ASSERT_TRUE(schema.AddField({"l", ColumnKind::kIdList}).ok());
  IdVector keys{10, 20, 30, 40, 50};
  IdListColumn lists;
  lists.AppendRow({1});
  lists.AppendRow({2, 3});
  lists.AppendRow({});
  lists.AppendRow({4, 5, 6});
  lists.AppendRow({7});
  std::vector<Column> columns;
  columns.emplace_back(IdVector(keys));
  columns.emplace_back(std::move(lists));
  StoredTable table(schema, std::move(columns));

  auto partitions = HashPartitionTable(table, 0, 3);
  ASSERT_TRUE(partitions.ok()) << partitions.status();
  size_t total_rows = 0, total_values = 0;
  for (const StoredTable& part : *partitions) {
    ASSERT_TRUE(part.Validate().ok());
    total_rows += part.num_rows();
    total_values += part.column(1).lists().values.size();
    // Placement invariant: every row's key hashes to this partition.
  }
  EXPECT_EQ(total_rows, 5u);
  EXPECT_EQ(total_values, 7u);
}

TEST(PartitionTest, SplitRejectsBadInput) {
  Schema schema;
  ASSERT_TRUE(schema.AddField({"k", ColumnKind::kId}).ok());
  std::vector<Column> columns;
  columns.emplace_back(IdVector{1, 2});
  StoredTable table(schema, std::move(columns));
  EXPECT_FALSE(SplitByAssignment(table, {0}, 2).ok());     // Size mismatch.
  EXPECT_FALSE(SplitByAssignment(table, {0, 5}, 2).ok());  // Out of range.
  EXPECT_FALSE(SplitByAssignment(table, {0, 1}, 0).ok());  // Zero parts.
  EXPECT_FALSE(HashPartitionTable(table, 3, 2).ok());      // Bad column.
}


// ---------------------------------------------------------------- Bloom

TEST(BloomTest, NoFalseNegatives) {
  Rng rng(7);
  IdVector keys(5000);
  for (auto& id : keys) id = rng.Next();
  BloomFilter bloom = BloomFilter::Build(keys);
  for (TermId id : keys) EXPECT_TRUE(bloom.MayContain(id));
}

TEST(BloomTest, FalsePositiveRateWithinBound) {
  Rng rng(11);
  IdVector keys(10000);
  for (auto& id : keys) id = rng.NextInRange(1, 1u << 30);
  BloomFilter bloom = BloomFilter::Build(keys);
  // At 10 bits/key with k = 7 the theoretical FPR is ~0.8%; allow 2%.
  size_t false_positives = 0;
  const size_t probes = 20000;
  for (size_t i = 0; i < probes; ++i) {
    TermId absent = (uint64_t{1} << 40) + i;  // Disjoint from the keys.
    if (bloom.MayContain(absent)) ++false_positives;
  }
  EXPECT_LT(static_cast<double>(false_positives) / probes, 0.02);
}

TEST(BloomTest, EmptyAndDefaultSemantics) {
  // Built over nothing: rejects everything (a provably empty partition).
  BloomFilter empty_built = BloomFilter::Build({});
  EXPECT_FALSE(empty_built.MayContain(42));
  // Default-constructed (no filter): must claim everything may match.
  BloomFilter none;
  EXPECT_TRUE(none.empty());
  EXPECT_TRUE(none.MayContain(42));
}

TEST(BloomTest, SkipsNullKeysAndRoundTrips) {
  BloomFilter bloom = BloomFilter::Build({5, rdf::kNullTermId, 9});
  EXPECT_TRUE(bloom.MayContain(5));
  EXPECT_TRUE(bloom.MayContain(9));
  ByteWriter writer;
  bloom.Serialize(writer);
  EXPECT_EQ(writer.size(), bloom.SerializedBytes());
  std::string buffer = std::move(writer).TakeBuffer();
  ByteReader reader{std::string_view(buffer)};
  Result<BloomFilter> reopened = BloomFilter::Deserialize(reader);
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE(*reopened == bloom);
}

// ----------------------------------------------------------- PagedTable

bool SameTable(const StoredTable& a, const StoredTable& b) {
  if (!(a.schema() == b.schema()) || a.num_columns() != b.num_columns()) {
    return false;
  }
  for (size_t c = 0; c < a.num_columns(); ++c) {
    if (!(a.column(c) == b.column(c))) return false;
  }
  return true;
}

Schema TwoColumnSchema() {
  Schema schema;
  (void)schema.AddField({"s", ColumnKind::kId});
  (void)schema.AddField({"o", ColumnKind::kIdList});
  return schema;
}

StoredTable MakeMixedTable(size_t rows, uint64_t seed) {
  Rng rng(seed);
  IdVector subjects(rows);
  IdListColumn lists;
  for (size_t r = 0; r < rows; ++r) {
    subjects[r] = 10 + r;  // Sorted, like a real VP subject column.
    IdVector cell;
    size_t n = rng.NextBounded(4);  // Empty cells included.
    for (size_t i = 0; i < n; ++i) cell.push_back(rng.NextInRange(1, 1000));
    lists.AppendRow(cell);
  }
  std::vector<Column> columns;
  columns.emplace_back(std::move(subjects));
  columns.emplace_back(std::move(lists));
  return StoredTable(TwoColumnSchema(), std::move(columns));
}

TEST(PagedTableTest, RoundTripsThroughStored) {
  StoredTable table = MakeMixedTable(1000, 3);
  PagedTable paged = PagedTable::FromStored(table, 64);
  EXPECT_EQ(paged.num_rows(), table.num_rows());
  EXPECT_EQ(paged.num_groups(), (1000 + 63) / 64);
  Result<StoredTable> back = paged.ToStored();
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(SameTable(*back, table));
}

TEST(PagedTableTest, ZoneMapsMatchPerGroupStats) {
  StoredTable table = MakeMixedTable(300, 5);
  const uint32_t group_rows = 50;
  PagedTable paged = PagedTable::FromStored(table, group_rows);
  for (size_t g = 0; g < paged.num_groups(); ++g) {
    size_t begin = g * group_rows;
    size_t end = std::min<size_t>(begin + group_rows, table.num_rows());
    // Recompute the subject zone directly from the rows.
    const IdVector& subjects = table.column(0).ids();
    TermId lo = ~TermId{0}, hi = 0;
    for (size_t r = begin; r < end; ++r) {
      lo = std::min(lo, subjects[r]);
      hi = std::max(hi, subjects[r]);
    }
    EXPECT_EQ(paged.stats(g, 0).min_id, lo);
    EXPECT_EQ(paged.stats(g, 0).max_id, hi);
    // List column: stats flatten the cells (values between offsets).
    const IdListColumn& lists = table.column(1).lists();
    uint64_t values = lists.offsets[end] - lists.offsets[begin];
    EXPECT_EQ(paged.stats(g, 1).value_count, values);
  }
}

TEST(PagedTableTest, SerializationPreservesStatsAndBloom) {
  StoredTable table = MakeMixedTable(500, 9);
  PagedTable paged = PagedTable::FromStored(table, 100);
  std::string buffer;
  paged.Serialize(&buffer);
  Result<PagedTable> reopened = PagedTable::Deserialize(buffer);
  ASSERT_TRUE(reopened.ok());
  ASSERT_EQ(reopened->num_groups(), paged.num_groups());
  for (size_t g = 0; g < paged.num_groups(); ++g) {
    for (size_t c = 0; c < 2; ++c) {
      // ColumnStats round-trip, per row group per column.
      EXPECT_EQ(reopened->stats(g, c).min_id, paged.stats(g, c).min_id);
      EXPECT_EQ(reopened->stats(g, c).max_id, paged.stats(g, c).max_id);
      EXPECT_EQ(reopened->stats(g, c).null_count,
                paged.stats(g, c).null_count);
      EXPECT_EQ(reopened->stats(g, c).value_count,
                paged.stats(g, c).value_count);
    }
  }
  EXPECT_TRUE(reopened->key_bloom() == paged.key_bloom());
  Result<StoredTable> back = reopened->ToStored();
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(SameTable(*back, table));
}

TEST(PagedTableTest, DeserializeRejectsCorruption) {
  StoredTable table = MakeMixedTable(200, 13);
  PagedTable paged = PagedTable::FromStored(table, 64);
  std::string buffer;
  paged.Serialize(&buffer);
  std::string flipped = buffer;
  flipped[flipped.size() / 2] ^= 0x40;
  EXPECT_FALSE(PagedTable::Deserialize(flipped).ok());
  EXPECT_FALSE(PagedTable::Deserialize(std::string_view(buffer)
                                           .substr(0, buffer.size() - 3))
                   .ok());
}

// ----------------------------------------------------------- BufferPool

TEST(BufferPoolTest, PinDecodesAndCachesChunks) {
  StoredTable table = MakeMixedTable(256, 17);
  PagedTable paged = PagedTable::FromStored(table, 64);
  BufferPool pool(1 << 20);
  {
    Result<PinnedPage> page = pool.Pin(paged, 0, 0);
    ASSERT_TRUE(page.ok());
    EXPECT_EQ(page->column().ids().size(), 64u);
    EXPECT_EQ(page->column().ids()[0], table.column(0).ids()[0]);
  }
  // Second pin of the same chunk hits the cache (no new miss).
  BufferPool::Stats before = pool.GetStats();
  EXPECT_EQ(before.resident_pages, 1u);
  EXPECT_EQ(before.pinned_pages, 0u);
  Result<PinnedPage> again = pool.Pin(paged, 0, 0);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(pool.GetStats().pinned_pages, 1u);
  EXPECT_EQ(pool.GetStats().resident_pages, 1u);
}

TEST(BufferPoolTest, EvictsLruUnderBudget) {
  StoredTable table = MakeMixedTable(512, 19);
  PagedTable paged = PagedTable::FromStored(table, 64);
  // Budget of ~one decoded id chunk: every new pin evicts the previous.
  BufferPool pool(64 * sizeof(TermId) + 8);
  for (uint32_t g = 0; g < paged.num_groups(); ++g) {
    Result<PinnedPage> page = pool.Pin(paged, g, 0);
    ASSERT_TRUE(page.ok());
  }
  BufferPool::Stats stats = pool.GetStats();
  EXPECT_LE(stats.resident_bytes, pool.budget_bytes());
  EXPECT_LE(stats.resident_pages, 1u);
}

TEST(BufferPoolTest, BudgetIsSoftWhilePinned) {
  StoredTable table = MakeMixedTable(256, 23);
  PagedTable paged = PagedTable::FromStored(table, 64);
  BufferPool pool(1);  // Below any single chunk.
  std::vector<PinnedPage> held;
  for (uint32_t g = 0; g < paged.num_groups(); ++g) {
    Result<PinnedPage> page = pool.Pin(paged, g, 0);
    ASSERT_TRUE(page.ok());
    held.push_back(std::move(*page));
    EXPECT_EQ(held.back().column().ids().size(),
              paged.group(g).num_rows);
  }
  // All pinned: nothing evictable, resident beyond budget by design.
  EXPECT_GT(pool.GetStats().resident_bytes, pool.budget_bytes());
  held.clear();
  // Last unpin shrinks back under budget.
  EXPECT_LE(pool.GetStats().resident_bytes, pool.budget_bytes());
}

}  // namespace
}  // namespace prost::columnar
