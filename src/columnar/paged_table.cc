#include "columnar/paged_table.h"

#include <algorithm>
#include <utility>

#include "columnar/encoding.h"
#include "common/hash.h"
#include "common/io.h"
#include "common/str_util.h"

namespace prost::columnar {
namespace {

constexpr uint32_t kPagedMagic = 0x50525350;  // "PRSP"
constexpr uint8_t kPagedVersion = 1;

void WriteColumnStats(const ColumnStats& stats, ByteWriter& writer) {
  writer.PutVarint(stats.min_id);
  writer.PutVarint(stats.max_id);
  writer.PutVarint(stats.null_count);
  writer.PutVarint(stats.value_count);
}

Status ReadColumnStats(ByteReader& reader, ColumnStats* stats) {
  PROST_RETURN_IF_ERROR(reader.GetVarint(&stats->min_id));
  PROST_RETURN_IF_ERROR(reader.GetVarint(&stats->max_id));
  PROST_RETURN_IF_ERROR(reader.GetVarint(&stats->null_count));
  PROST_RETURN_IF_ERROR(reader.GetVarint(&stats->value_count));
  return Status::OK();
}

/// Whether `chunk` lies inside a payload of `payload_bytes`, without the
/// offset + bytes sum that untrusted metadata could wrap.
bool ChunkInPayload(const ChunkMeta& chunk, uint64_t payload_bytes) {
  return chunk.offset <= payload_bytes &&
         chunk.bytes <= payload_bytes - chunk.offset;
}

/// Slices rows [begin, end) of `column` into a standalone Column; list
/// columns get rebased (group-local) offsets.
Column SliceColumn(const Column& column, size_t begin, size_t end) {
  if (column.kind() == ColumnKind::kId) {
    return Column(IdVector(column.ids().begin() + begin,
                           column.ids().begin() + end));
  }
  const IdListColumn& lists = column.lists();
  IdListColumn slice;
  slice.offsets.assign(1, 0);
  uint32_t base = lists.offsets[begin];
  for (size_t row = begin; row < end; ++row) {
    slice.offsets.push_back(lists.offsets[row + 1] - base);
  }
  slice.values.assign(lists.values.begin() + base,
                      lists.values.begin() + lists.offsets[end]);
  return Column(std::move(slice));
}

ColumnStats StatsOf(const Column& column) {
  return column.kind() == ColumnKind::kId ? ComputeStats(column.ids())
                                          : ComputeStats(column.lists());
}

void EncodeColumn(const Column& column, ByteWriter& writer) {
  if (column.kind() == ColumnKind::kId) {
    EncodeIdsAdaptive(column.ids(), writer);
  } else {
    EncodeIdList(column.lists(), writer);
  }
}

}  // namespace

PagedTable PagedTable::FromStored(const StoredTable& table,
                                  uint32_t row_group_rows) {
  PagedTable paged;
  paged.schema_ = table.schema();
  paged.num_rows_ = table.num_rows();
  size_t group_rows =
      row_group_rows == 0 ? kRowGroupSize : size_t{row_group_rows};
  size_t rows = table.num_rows();
  ByteWriter payload;
  for (size_t begin = 0; begin < rows; begin += group_rows) {
    size_t end = std::min(rows, begin + group_rows);
    RowGroupMeta group;
    group.row_begin = begin;
    group.num_rows = static_cast<uint32_t>(end - begin);
    for (size_t c = 0; c < table.num_columns(); ++c) {
      Column slice = SliceColumn(table.column(c), begin, end);
      ChunkMeta chunk;
      chunk.stats = StatsOf(slice);
      chunk.offset = payload.size();
      EncodeColumn(slice, payload);
      chunk.bytes = payload.size() - chunk.offset;
      group.chunks.push_back(chunk);
    }
    paged.groups_.push_back(std::move(group));
  }
  paged.payload_ = std::move(payload.TakeBuffer());
  if (table.num_columns() > 0) {
    const Column& key = table.column(0);
    paged.key_bloom_ = BloomFilter::Build(
        key.kind() == ColumnKind::kId ? key.ids() : key.lists().values);
  }
  return paged;
}

uint64_t PagedTable::ColumnPayloadBytes(size_t c) const {
  uint64_t total = 0;
  for (const RowGroupMeta& group : groups_) total += group.chunks[c].bytes;
  return total;
}

Result<Column> PagedTable::DecodeChunk(size_t g, size_t c) const {
  if (g >= groups_.size() || c >= schema_.num_fields()) {
    return Status::Internal(StrFormat("chunk (%zu, %zu) out of range", g, c));
  }
  const RowGroupMeta& group = groups_[g];
  const ChunkMeta& chunk = group.chunks[c];
  if (!ChunkInPayload(chunk, payload_.size())) {
    return Status::Corruption("chunk extends past payload");
  }
  ByteReader reader(
      std::string_view(payload_).substr(chunk.offset, chunk.bytes));
  // Decodes in place into the returned column: moving a freshly built
  // Column into the Result draws GCC 12 -Wmaybe-uninitialized false
  // positives from std::variant's move constructor.
  Result<Column> column = schema_.field(c).kind == ColumnKind::kId
                              ? Column(IdVector{})
                              : Column(IdListColumn{});
  PROST_RETURN_IF_ERROR(
      column->kind() == ColumnKind::kId
          ? DecodeIds(reader, group.num_rows, &column->mutable_ids())
          : DecodeIdList(reader, group.num_rows, &column->mutable_lists()));
  return column;
}

Result<StoredTable> PagedTable::ToStored() const {
  std::vector<Column> columns;
  columns.reserve(schema_.num_fields());
  for (const Field& field : schema_.fields()) {
    columns.emplace_back(field.kind == ColumnKind::kId
                             ? Column(IdVector{})
                             : Column(IdListColumn{}));
  }
  for (size_t g = 0; g < groups_.size(); ++g) {
    for (size_t c = 0; c < schema_.num_fields(); ++c) {
      Result<Column> chunk = DecodeChunk(g, c);
      PROST_RETURN_IF_ERROR(chunk.status());
      if (chunk->kind() == ColumnKind::kId) {
        IdVector& target = columns[c].mutable_ids();
        target.insert(target.end(), chunk->ids().begin(), chunk->ids().end());
      } else {
        const IdListColumn& src = chunk->lists();
        IdListColumn& target = columns[c].mutable_lists();
        uint32_t base = static_cast<uint32_t>(target.values.size());
        for (size_t row = 0; row < src.num_rows(); ++row) {
          target.offsets.push_back(base + src.offsets[row + 1]);
        }
        target.values.insert(target.values.end(), src.values.begin(),
                             src.values.end());
      }
    }
  }
  StoredTable table(schema_, std::move(columns));
  PROST_RETURN_IF_ERROR(table.Validate());
  if (table.num_rows() != num_rows_) {
    return Status::Corruption("paged table row count disagrees with groups");
  }
  return table;
}

void PagedTable::Serialize(std::string* out) const {
  ByteWriter writer;
  writer.PutU32(kPagedMagic);
  writer.PutU8(kPagedVersion);
  writer.PutVarint(schema_.num_fields());
  for (const Field& field : schema_.fields()) {
    writer.PutString(field.name);
    writer.PutU8(static_cast<uint8_t>(field.kind));
  }
  writer.PutVarint(num_rows_);
  writer.PutVarint(groups_.size());
  for (const RowGroupMeta& group : groups_) {
    writer.PutVarint(group.row_begin);
    writer.PutVarint(group.num_rows);
    for (const ChunkMeta& chunk : group.chunks) {
      WriteColumnStats(chunk.stats, writer);
      writer.PutVarint(chunk.offset);
      writer.PutVarint(chunk.bytes);
    }
  }
  key_bloom_.Serialize(writer);
  writer.PutString(payload_);
  uint64_t checksum = HashBytes(writer.buffer());
  writer.PutU64(checksum);
  *out = std::move(writer.TakeBuffer());
}

Result<PagedTable> PagedTable::Deserialize(std::string_view data) {
  if (data.size() < 8) return Status::Corruption("paged table too small");
  std::string_view body = data.substr(0, data.size() - 8);
  ByteReader checksum_reader(data.substr(data.size() - 8));
  uint64_t stored_checksum;
  PROST_RETURN_IF_ERROR(checksum_reader.GetU64(&stored_checksum));
  if (HashBytes(body) != stored_checksum) {
    return Status::Corruption("paged table checksum mismatch");
  }

  ByteReader reader(body);
  uint32_t magic;
  PROST_RETURN_IF_ERROR(reader.GetU32(&magic));
  if (magic != kPagedMagic) return Status::Corruption("bad paged magic");
  uint8_t version;
  PROST_RETURN_IF_ERROR(reader.GetU8(&version));
  if (version != kPagedVersion) {
    return Status::Corruption("unsupported paged format version");
  }
  PagedTable paged;
  uint64_t num_fields;
  PROST_RETURN_IF_ERROR(reader.GetVarint(&num_fields));
  for (uint64_t i = 0; i < num_fields; ++i) {
    std::string name;
    uint8_t kind;
    PROST_RETURN_IF_ERROR(reader.GetString(&name));
    PROST_RETURN_IF_ERROR(reader.GetU8(&kind));
    if (kind > static_cast<uint8_t>(ColumnKind::kIdList)) {
      return Status::Corruption("bad column kind in paged schema");
    }
    PROST_RETURN_IF_ERROR(paged.schema_.AddField(
        Field{std::move(name), static_cast<ColumnKind>(kind)}));
  }
  PROST_RETURN_IF_ERROR(reader.GetVarint(&paged.num_rows_));
  uint64_t num_groups;
  PROST_RETURN_IF_ERROR(reader.GetVarint(&num_groups));
  uint64_t rows_seen = 0;
  for (uint64_t g = 0; g < num_groups; ++g) {
    RowGroupMeta group;
    PROST_RETURN_IF_ERROR(reader.GetVarint(&group.row_begin));
    uint64_t group_rows;
    PROST_RETURN_IF_ERROR(reader.GetVarint(&group_rows));
    if (group_rows > UINT32_MAX) {
      return Status::Corruption("paged row group too large");
    }
    group.num_rows = static_cast<uint32_t>(group_rows);
    rows_seen += group_rows;
    for (uint64_t c = 0; c < num_fields; ++c) {
      ChunkMeta chunk;
      PROST_RETURN_IF_ERROR(ReadColumnStats(reader, &chunk.stats));
      PROST_RETURN_IF_ERROR(reader.GetVarint(&chunk.offset));
      PROST_RETURN_IF_ERROR(reader.GetVarint(&chunk.bytes));
      group.chunks.push_back(chunk);
    }
    paged.groups_.push_back(std::move(group));
  }
  if (rows_seen != paged.num_rows_) {
    return Status::Corruption("paged group row counts disagree with header");
  }
  Result<BloomFilter> bloom = BloomFilter::Deserialize(reader);
  PROST_RETURN_IF_ERROR(bloom.status());
  paged.key_bloom_ = std::move(bloom).value();
  PROST_RETURN_IF_ERROR(reader.GetString(&paged.payload_));
  for (const RowGroupMeta& group : paged.groups_) {
    for (const ChunkMeta& chunk : group.chunks) {
      if (!ChunkInPayload(chunk, paged.payload_.size())) {
        return Status::Corruption("paged chunk extends past payload");
      }
    }
  }
  return paged;
}

}  // namespace prost::columnar
