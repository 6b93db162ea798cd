#include "engine/hash_table.h"

#include <algorithm>
#include <bit>

namespace prost::engine {

void FlatHashTable::Reset(size_t n) {
  // Load factor <= 1/2 keeps linear-probe chains short; the minimum
  // capacity keeps tiny builds out of degenerate 1-2 slot tables.
  size_t capacity = std::bit_ceil(std::max<size_t>(16, n * 2));
  slots_.assign(capacity, Slot{});
  fill_.resize(capacity);
  payload_.resize(n);
  mask_ = capacity - 1;
}

void FlatHashTable::CountOne(uint64_t hash) {
  size_t i = hash & mask_;
  while (slots_[i].count != 0 && slots_[i].hash != hash) {
    i = (i + 1) & mask_;
  }
  slots_[i].hash = hash;
  ++slots_[i].count;
}

void FlatHashTable::AssignOffsets() {
  uint32_t offset = 0;
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].count == 0) continue;
    slots_[i].offset = offset;
    offset += slots_[i].count;
    fill_[i] = 0;
  }
}

void FlatHashTable::Build(const uint64_t* hashes, size_t n) {
  Reset(n);
  for (size_t r = 0; r < n; ++r) CountOne(hashes[r]);
  AssignOffsets();
  for (size_t r = 0; r < n; ++r) {
    FillOne(hashes[r], static_cast<uint32_t>(r));
  }
}

void FlatHashTable::BuildFromRows(const uint32_t* rows, size_t n,
                                  const uint64_t* row_hashes) {
  Reset(n);
  for (size_t i = 0; i < n; ++i) CountOne(row_hashes[rows[i]]);
  AssignOffsets();
  for (size_t i = 0; i < n; ++i) FillOne(row_hashes[rows[i]], rows[i]);
}

}  // namespace prost::engine
