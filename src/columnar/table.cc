#include "columnar/table.h"

#include <algorithm>

#include "columnar/encoding.h"
#include "common/str_util.h"

namespace prost::columnar {

StoredTable::StoredTable(Schema schema, std::vector<Column> columns)
    : schema_(std::move(schema)), columns_(std::move(columns)) {}

Result<const Column*> StoredTable::ColumnByName(const std::string& name) const {
  int index = schema_.FieldIndex(name);
  if (index < 0) return Status::NotFound("no column named " + name);
  return &columns_[static_cast<size_t>(index)];
}

Status StoredTable::Validate() const {
  if (columns_.size() != schema_.num_fields()) {
    return Status::Internal("column count does not match schema");
  }
  size_t rows = num_rows();
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].num_rows() != rows) {
      return Status::Internal(StrFormat(
          "column %zu has %zu rows, expected %zu", i,
          columns_[i].num_rows(), rows));
    }
    if (columns_[i].kind() != schema_.field(i).kind) {
      return Status::Internal(StrFormat(
          "column %zu kind mismatch with schema field '%s'", i,
          schema_.field(i).name.c_str()));
    }
  }
  return Status::OK();
}

namespace {

/// Serialized-size estimate of one column under the best adaptive
/// encoding.
uint64_t ColumnSerializedSizeEstimate(const Column& column) {
  if (column.kind() == ColumnKind::kId) {
    uint64_t best = EncodedSize(column.ids(), Encoding::kPlainVarint);
    best = std::min(best, EncodedSize(column.ids(), Encoding::kRle));
    best = std::min(best, EncodedSize(column.ids(), Encoding::kDeltaVarint));
    return best + 1;
  }
  const IdListColumn& lists = column.lists();
  IdVector lengths;
  lengths.reserve(lists.num_rows());
  for (size_t row = 0; row < lists.num_rows(); ++row) {
    lengths.push_back(lists.RowSize(row));
  }
  uint64_t lengths_best =
      std::min({EncodedSize(lengths, Encoding::kPlainVarint),
                EncodedSize(lengths, Encoding::kRle),
                EncodedSize(lengths, Encoding::kDeltaVarint)});
  uint64_t values_best =
      std::min({EncodedSize(lists.values, Encoding::kPlainVarint),
                EncodedSize(lists.values, Encoding::kRle),
                EncodedSize(lists.values, Encoding::kDeltaVarint)});
  return lengths_best + values_best + 12;
}

}  // namespace

uint64_t LexicalColumnSizeEstimate(
    const Column& column, const std::vector<uint32_t>& term_lengths) {
  // Dictionary ids are dense below term_lengths.size(), so "seen in this
  // column" is a per-id stamp. The marks persist across calls (a load
  // estimates thousands of columns over one dictionary); bumping the
  // epoch clears them all at once.
  thread_local std::vector<uint32_t> marks;
  thread_local uint32_t epoch = 0;
  if (marks.size() < term_lengths.size()) marks.resize(term_lengths.size());
  if (++epoch == 0) {
    std::fill(marks.begin(), marks.end(), 0);
    epoch = 1;
  }
  uint64_t size = ColumnSerializedSizeEstimate(column);  // Index stream.
  const IdVector& values =
      column.kind() == ColumnKind::kId ? column.ids() : column.lists().values;
  for (TermId id : values) {
    if (id == kNullTermId || id >= term_lengths.size()) continue;
    if (marks[id] != epoch) {
      marks[id] = epoch;
      size += term_lengths[id] + 2;  // Local dictionary entry.
    }
  }
  return size;
}

}  // namespace prost::columnar
