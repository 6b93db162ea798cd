#ifndef PROST_COLUMNAR_PAGED_TABLE_H_
#define PROST_COLUMNAR_PAGED_TABLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "columnar/bloom.h"
#include "columnar/column.h"
#include "columnar/table.h"
#include "columnar/types.h"
#include "common/status.h"

namespace prost::columnar {

/// Default rows per row group. Column chunks are encoded (and carry
/// zone-map statistics) per row group, like Parquet pages.
inline constexpr size_t kRowGroupSize = 65536;

/// One column chunk of one row group: zone-map statistics plus the
/// location of its encoded bytes inside the table payload. The stats are
/// what scan pruning consults *before* any decode happens.
struct ChunkMeta {
  ColumnStats stats;
  uint64_t offset = 0;  // Into PagedTable payload.
  uint64_t bytes = 0;   // Encoded chunk size.
};

/// One row group: a horizontal slice of the table, decoded column by
/// column on demand through the buffer pool.
struct RowGroupMeta {
  uint64_t row_begin = 0;
  uint32_t num_rows = 0;
  std::vector<ChunkMeta> chunks;  // One per schema field.
};

/// A columnar table held in *encoded* form: schema + per-row-group chunk
/// metadata (zone maps) + one contiguous encoded payload + a bloom filter
/// over the key column (field 0). This is the one form in which the VP
/// tables and Property Tables hold their data: a scan decodes only the
/// chunks its pruning could not rule out, through BufferPool pins, and
/// row groups enumerate in row order.
class PagedTable {
 public:
  PagedTable() = default;

  /// Repacks a decoded table into row groups of `row_group_rows` rows,
  /// computing per-chunk zone maps and the key-column bloom filter.
  /// Rounds `row_group_rows` == 0 up to kRowGroupSize.
  static PagedTable FromStored(const StoredTable& table,
                               uint32_t row_group_rows = 0);

  const Schema& schema() const { return schema_; }
  uint64_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return schema_.num_fields(); }
  size_t num_groups() const { return groups_.size(); }
  const RowGroupMeta& group(size_t g) const { return groups_[g]; }
  const ColumnStats& stats(size_t g, size_t c) const {
    return groups_[g].chunks[c].stats;
  }
  const BloomFilter& key_bloom() const { return key_bloom_; }

  /// Encoded payload bytes (what a full decode would read).
  uint64_t payload_bytes() const { return payload_.size(); }
  /// Encoded bytes of one column across all groups (cost apportioning).
  uint64_t ColumnPayloadBytes(size_t c) const;

  /// Decodes one column chunk of one row group. List-column chunks come
  /// back with group-local offsets (offsets[0] == 0). Normally reached
  /// through BufferPool::Pin, which caches the result.
  Result<Column> DecodeChunk(size_t g, size_t c) const;

  /// Fully decodes back into a StoredTable (persistence writes the
  /// decoded form in the lexical format).
  Result<StoredTable> ToStored() const;

  /// Own serialized form: encoded chunks plus a chunk directory and the
  /// bloom filter, so zone maps round-trip without a decode.
  void Serialize(std::string* out) const;
  static Result<PagedTable> Deserialize(std::string_view data);

 private:
  Schema schema_;
  uint64_t num_rows_ = 0;
  std::vector<RowGroupMeta> groups_;
  BloomFilter key_bloom_;
  std::string payload_;  // Concatenated encoded chunks.
};

}  // namespace prost::columnar

#endif  // PROST_COLUMNAR_PAGED_TABLE_H_
