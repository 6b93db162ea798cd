#include "columnar/encoding.h"

#include <algorithm>

namespace prost::columnar {
namespace {

uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

int64_t UnZigZag(uint64_t v) {
  return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

size_t VarintSize(uint64_t v) {
  size_t size = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++size;
  }
  return size;
}

int BitWidthFor(const IdVector& ids) {
  TermId max_value = 0;
  for (TermId id : ids) max_value = std::max(max_value, id);
  int width = 0;
  while (max_value != 0) {
    ++width;
    max_value >>= 1;
  }
  return width;  // 0 means every value is zero.
}

void EncodeBitPacked(const IdVector& ids, ByteWriter& writer) {
  int width = BitWidthFor(ids);
  writer.PutU8(static_cast<uint8_t>(width));
  if (width == 0) return;  // All zeros; the count is carried externally.
  uint8_t buffer = 0;
  int bits_in_buffer = 0;
  for (TermId id : ids) {
    int produced = 0;
    while (produced < width) {
      int take = std::min(8 - bits_in_buffer, width - produced);
      uint64_t mask = take == 64 ? ~0ull : ((1ull << take) - 1);
      buffer |= static_cast<uint8_t>(((id >> produced) & mask)
                                     << bits_in_buffer);
      bits_in_buffer += take;
      produced += take;
      if (bits_in_buffer == 8) {
        writer.PutU8(buffer);
        buffer = 0;
        bits_in_buffer = 0;
      }
    }
  }
  if (bits_in_buffer > 0) writer.PutU8(buffer);
}

/// Corruption unless `count` values of at least one byte each fit in what
/// is left of `reader` — checked before sizing any output from `count`.
Status CheckCountFits(const ByteReader& reader, size_t count) {
  if (count > reader.remaining()) {
    return Status::Corruption("value count exceeds encoded bytes");
  }
  return Status::OK();
}

Status DecodeBitPacked(ByteReader& reader, size_t count, IdVector* out) {
  uint8_t width;
  PROST_RETURN_IF_ERROR(reader.GetU8(&width));
  if (width > 64) return Status::Corruption("bad bit-pack width");
  // Width 0 (all zeros) carries no bytes per value; otherwise the packed
  // bits must be present.
  if (width > 0 && count > reader.remaining() * 8 / width) {
    return Status::Corruption("value count exceeds encoded bytes");
  }
  out->assign(count, 0);
  if (width == 0) return Status::OK();
  uint8_t buffer = 0;
  int bits_in_buffer = 0;
  for (size_t i = 0; i < count; ++i) {
    uint64_t value = 0;
    int consumed = 0;
    while (consumed < width) {
      if (bits_in_buffer == 0) {
        PROST_RETURN_IF_ERROR(reader.GetU8(&buffer));
        bits_in_buffer = 8;
      }
      int take = std::min(bits_in_buffer, width - consumed);
      uint64_t mask = (1ull << take) - 1;
      value |= (static_cast<uint64_t>(buffer) & mask) << consumed;
      buffer = static_cast<uint8_t>(buffer >> take);
      bits_in_buffer -= take;
      consumed += take;
    }
    (*out)[i] = value;
  }
  return Status::OK();
}

void EncodePlain(const IdVector& ids, ByteWriter& writer) {
  for (TermId id : ids) writer.PutVarint(id);
}

void EncodeRle(const IdVector& ids, ByteWriter& writer) {
  size_t i = 0;
  while (i < ids.size()) {
    size_t run = 1;
    while (i + run < ids.size() && ids[i + run] == ids[i]) ++run;
    writer.PutVarint(ids[i]);
    writer.PutVarint(run);
    i += run;
  }
}

void EncodeDelta(const IdVector& ids, ByteWriter& writer) {
  TermId previous = 0;
  for (TermId id : ids) {
    // Deltas wrap modulo 2^64: ids may span the whole TermId space
    // (virtual integer ids set the top bit), so the signed difference can
    // overflow. The unsigned difference reinterpreted as signed zig-zags
    // to the same varint and round-trips exactly.
    writer.PutVarint(ZigZag(static_cast<int64_t>(id - previous)));
    previous = id;
  }
}

Status DecodePlain(ByteReader& reader, size_t count, IdVector* out) {
  PROST_RETURN_IF_ERROR(CheckCountFits(reader, count));
  out->resize(count);
  for (size_t i = 0; i < count; ++i) {
    PROST_RETURN_IF_ERROR(reader.GetVarint(&(*out)[i]));
  }
  return Status::OK();
}

Status DecodeRle(ByteReader& reader, size_t count, IdVector* out) {
  // No up-front reserve: one run may legitimately describe many rows, so
  // `count` says nothing about the bytes present.
  out->clear();
  while (out->size() < count) {
    uint64_t value, run;
    PROST_RETURN_IF_ERROR(reader.GetVarint(&value));
    PROST_RETURN_IF_ERROR(reader.GetVarint(&run));
    if (run == 0 || run > count - out->size()) {
      return Status::Corruption("bad RLE run length");
    }
    out->insert(out->end(), run, value);
  }
  return Status::OK();
}

Status DecodeDelta(ByteReader& reader, size_t count, IdVector* out) {
  PROST_RETURN_IF_ERROR(CheckCountFits(reader, count));
  out->resize(count);
  // Accumulate in unsigned space: the encoder's deltas wrap modulo 2^64,
  // and a signed accumulator would overflow on ids above 2^63.
  TermId previous = 0;
  for (size_t i = 0; i < count; ++i) {
    uint64_t zz;
    PROST_RETURN_IF_ERROR(reader.GetVarint(&zz));
    previous += static_cast<uint64_t>(UnZigZag(zz));
    (*out)[i] = previous;
  }
  return Status::OK();
}

}  // namespace

const char* EncodingToString(Encoding encoding) {
  switch (encoding) {
    case Encoding::kPlainVarint:
      return "plain_varint";
    case Encoding::kRle:
      return "rle";
    case Encoding::kDeltaVarint:
      return "delta_varint";
    case Encoding::kBitPacked:
      return "bit_packed";
  }
  return "?";
}

void EncodeIdsWith(const IdVector& ids, Encoding encoding,
                   ByteWriter& writer) {
  switch (encoding) {
    case Encoding::kPlainVarint:
      EncodePlain(ids, writer);
      return;
    case Encoding::kRle:
      EncodeRle(ids, writer);
      return;
    case Encoding::kDeltaVarint:
      EncodeDelta(ids, writer);
      return;
    case Encoding::kBitPacked:
      EncodeBitPacked(ids, writer);
      return;
  }
}

uint64_t EncodedSize(const IdVector& ids, Encoding encoding) {
  uint64_t size = 0;
  switch (encoding) {
    case Encoding::kPlainVarint:
      for (TermId id : ids) size += VarintSize(id);
      return size;
    case Encoding::kRle: {
      size_t i = 0;
      while (i < ids.size()) {
        size_t run = 1;
        while (i + run < ids.size() && ids[i + run] == ids[i]) ++run;
        size += VarintSize(ids[i]) + VarintSize(run);
        i += run;
      }
      return size;
    }
    case Encoding::kDeltaVarint: {
      TermId previous = 0;
      for (TermId id : ids) {
        // Wrapping difference, matching EncodeDelta.
        size += VarintSize(ZigZag(static_cast<int64_t>(id - previous)));
        previous = id;
      }
      return size;
    }
    case Encoding::kBitPacked: {
      int width = BitWidthFor(ids);
      return 1 + (ids.size() * static_cast<uint64_t>(width) + 7) / 8;
    }
  }
  return size;
}

Encoding EncodeIdsAdaptive(const IdVector& ids, ByteWriter& writer) {
  Encoding best = Encoding::kPlainVarint;
  uint64_t best_size = EncodedSize(ids, Encoding::kPlainVarint);
  for (Encoding candidate : {Encoding::kRle, Encoding::kDeltaVarint,
                             Encoding::kBitPacked}) {
    uint64_t size = EncodedSize(ids, candidate);
    if (size < best_size) {
      best = candidate;
      best_size = size;
    }
  }
  writer.PutU8(static_cast<uint8_t>(best));
  EncodeIdsWith(ids, best, writer);
  return best;
}

Status DecodeIds(ByteReader& reader, size_t count, IdVector* out) {
  uint8_t tag;
  PROST_RETURN_IF_ERROR(reader.GetU8(&tag));
  switch (static_cast<Encoding>(tag)) {
    case Encoding::kPlainVarint:
      return DecodePlain(reader, count, out);
    case Encoding::kRle:
      return DecodeRle(reader, count, out);
    case Encoding::kDeltaVarint:
      return DecodeDelta(reader, count, out);
    case Encoding::kBitPacked:
      return DecodeBitPacked(reader, count, out);
  }
  return Status::Corruption("unknown encoding tag");
}

void EncodeIdList(const IdListColumn& lists, ByteWriter& writer) {
  // Row lengths (offset deltas) compress well with RLE when most rows are
  // single-valued or NULL.
  IdVector lengths;
  lengths.reserve(lists.num_rows());
  for (size_t row = 0; row < lists.num_rows(); ++row) {
    lengths.push_back(lists.RowSize(row));
  }
  EncodeIdsAdaptive(lengths, writer);
  writer.PutVarint(lists.values.size());
  EncodeIdsAdaptive(lists.values, writer);
}

Status DecodeIdList(ByteReader& reader, size_t num_rows, IdListColumn* out) {
  IdVector lengths;
  PROST_RETURN_IF_ERROR(DecodeIds(reader, num_rows, &lengths));
  uint64_t value_count;
  PROST_RETURN_IF_ERROR(reader.GetVarint(&value_count));
  out->offsets.assign(1, 0);
  out->offsets.reserve(num_rows + 1);
  uint64_t total = 0;
  for (uint64_t length : lengths) {
    total += length;
    out->offsets.push_back(static_cast<uint32_t>(total));
  }
  if (total != value_count) {
    return Status::Corruption("list column length/value mismatch");
  }
  return DecodeIds(reader, value_count, &out->values);
}

}  // namespace prost::columnar
