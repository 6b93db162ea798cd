#include "columnar/lexical_format.h"

#include <algorithm>
#include <unordered_map>

#include "columnar/encoding.h"
#include "common/compression.h"
#include "common/hash.h"
#include "common/io.h"

namespace prost::columnar {
namespace {

constexpr uint32_t kLexicalMagic = 0x5052534c;  // "PRSL"

/// Maps the global ids in `values` to dense local indices (0 reserved for
/// NULL) and writes the local dictionary.
void WriteLocalDictAndIndices(const IdVector& values,
                              const rdf::Dictionary& dictionary,
                              ByteWriter& writer) {
  std::unordered_map<TermId, uint64_t> local;
  std::vector<TermId> order;  // local index - 1 -> global id
  IdVector indices;
  indices.reserve(values.size());
  for (TermId id : values) {
    if (id == kNullTermId) {
      indices.push_back(0);
      continue;
    }
    auto [it, inserted] = local.emplace(id, local.size() + 1);
    if (inserted) order.push_back(id);
    indices.push_back(it->second);
  }
  writer.PutVarint(order.size());
  for (TermId id : order) {
    // Ids in a StoredTable always resolve; a miss is a programming error
    // surfaced as an empty lexical (caught by round-trip tests).
    Result<std::string_view> lexical = dictionary.LookupId(id);
    writer.PutString(lexical.ok() ? lexical.value() : std::string_view());
  }
  EncodeIdsAdaptive(indices, writer);
}

Status ReadLocalDictAndIndices(ByteReader& reader, size_t count,
                               rdf::Dictionary* dictionary, IdVector* out) {
  uint64_t dict_size;
  PROST_RETURN_IF_ERROR(reader.GetVarint(&dict_size));
  // Every entry takes at least its length byte.
  if (dict_size > reader.remaining()) {
    return Status::Corruption("local dictionary size exceeds encoded bytes");
  }
  std::vector<TermId> local_to_global(dict_size + 1, kNullTermId);
  std::string lexical;
  for (uint64_t i = 1; i <= dict_size; ++i) {
    PROST_RETURN_IF_ERROR(reader.GetString(&lexical));
    local_to_global[i] = dictionary->Intern(lexical);
  }
  IdVector indices;
  PROST_RETURN_IF_ERROR(DecodeIds(reader, count, &indices));
  out->resize(indices.size());
  for (size_t i = 0; i < indices.size(); ++i) {
    if (indices[i] > dict_size) {
      return Status::Corruption("local dictionary index out of range");
    }
    (*out)[i] = local_to_global[indices[i]];
  }
  return Status::OK();
}

}  // namespace

Status SerializeLexicalTable(const StoredTable& table,
                             const rdf::Dictionary& dictionary,
                             std::string* out) {
  PROST_RETURN_IF_ERROR(table.Validate());
  ByteWriter writer;
  writer.PutU32(kLexicalMagic);
  writer.PutVarint(table.schema().num_fields());
  for (const Field& field : table.schema().fields()) {
    writer.PutString(field.name);
    writer.PutU8(static_cast<uint8_t>(field.kind));
  }
  writer.PutVarint(table.num_rows());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const Column& column = table.column(c);
    if (column.kind() == ColumnKind::kId) {
      WriteLocalDictAndIndices(column.ids(), dictionary, writer);
    } else {
      const IdListColumn& lists = column.lists();
      IdVector lengths;
      lengths.reserve(lists.num_rows());
      for (size_t row = 0; row < lists.num_rows(); ++row) {
        lengths.push_back(lists.RowSize(row));
      }
      EncodeIdsAdaptive(lengths, writer);
      writer.PutVarint(lists.values.size());
      WriteLocalDictAndIndices(lists.values, dictionary, writer);
    }
  }
  uint64_t checksum = HashBytes(writer.buffer());
  writer.PutU64(checksum);
  *out = std::move(writer.TakeBuffer());
  return Status::OK();
}

Result<StoredTable> DeserializeLexicalTable(std::string_view data,
                                            rdf::Dictionary* dictionary) {
  if (data.size() < 8) return Status::Corruption("lexical table too small");
  std::string_view body = data.substr(0, data.size() - 8);
  ByteReader checksum_reader(data.substr(data.size() - 8));
  uint64_t stored_checksum;
  PROST_RETURN_IF_ERROR(checksum_reader.GetU64(&stored_checksum));
  if (HashBytes(body) != stored_checksum) {
    return Status::Corruption("lexical table checksum mismatch");
  }
  ByteReader reader(body);
  uint32_t magic;
  PROST_RETURN_IF_ERROR(reader.GetU32(&magic));
  if (magic != kLexicalMagic) {
    return Status::Corruption("bad lexical table magic");
  }
  uint64_t num_fields;
  PROST_RETURN_IF_ERROR(reader.GetVarint(&num_fields));
  Schema schema;
  for (uint64_t i = 0; i < num_fields; ++i) {
    std::string name;
    uint8_t kind;
    PROST_RETURN_IF_ERROR(reader.GetString(&name));
    PROST_RETURN_IF_ERROR(reader.GetU8(&kind));
    if (kind > static_cast<uint8_t>(ColumnKind::kIdList)) {
      return Status::Corruption("bad column kind");
    }
    PROST_RETURN_IF_ERROR(
        schema.AddField(Field{std::move(name), static_cast<ColumnKind>(kind)}));
  }
  uint64_t rows;
  PROST_RETURN_IF_ERROR(reader.GetVarint(&rows));
  std::vector<Column> columns;
  for (uint64_t c = 0; c < num_fields; ++c) {
    if (schema.field(c).kind == ColumnKind::kId) {
      IdVector values;
      PROST_RETURN_IF_ERROR(
          ReadLocalDictAndIndices(reader, rows, dictionary, &values));
      columns.emplace_back(std::move(values));
    } else {
      IdVector lengths;
      PROST_RETURN_IF_ERROR(DecodeIds(reader, rows, &lengths));
      uint64_t value_count;
      PROST_RETURN_IF_ERROR(reader.GetVarint(&value_count));
      IdListColumn lists;
      PROST_RETURN_IF_ERROR(ReadLocalDictAndIndices(
          reader, value_count, dictionary, &lists.values));
      lists.offsets.assign(1, 0);
      uint64_t total = 0;
      for (uint64_t length : lengths) {
        total += length;
        lists.offsets.push_back(static_cast<uint32_t>(total));
      }
      if (total != value_count) {
        return Status::Corruption("list column length/value mismatch");
      }
      columns.emplace_back(std::move(lists));
    }
  }
  StoredTable table(std::move(schema), std::move(columns));
  PROST_RETURN_IF_ERROR(table.Validate());
  return table;
}

Status WriteLexicalTableFile(const StoredTable& table,
                             const rdf::Dictionary& dictionary,
                             const std::string& path) {
  std::string bytes;
  PROST_RETURN_IF_ERROR(SerializeLexicalTable(table, dictionary, &bytes));
  // Parquet pages are codec-compressed; deflate stands in for snappy.
  PROST_ASSIGN_OR_RETURN(std::string compressed, DeflateCompress(bytes));
  return WriteStringToFile(path, compressed);
}

Result<StoredTable> ReadLexicalTableFile(const std::string& path,
                                         rdf::Dictionary* dictionary) {
  std::string compressed;
  PROST_RETURN_IF_ERROR(ReadFileToString(path, &compressed));
  PROST_ASSIGN_OR_RETURN(std::string bytes, DeflateDecompress(compressed));
  return DeserializeLexicalTable(bytes, dictionary);
}

}  // namespace prost::columnar
