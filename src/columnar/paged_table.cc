#include "columnar/paged_table.h"

#include <algorithm>
#include <utility>

#include "columnar/encoding.h"
#include "common/io.h"
#include "common/str_util.h"

namespace prost::columnar {
namespace {

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

}  // namespace prost::columnar
