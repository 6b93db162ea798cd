#ifndef PROST_ENGINE_HASH_TABLE_H_
#define PROST_ENGINE_HASH_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace prost::engine {

/// Flat open-addressing hash table mapping 64-bit key hashes to runs of
/// build-row ids, the join build index behind HashJoin.
///
/// Layout: linear probing over a power-of-two slot array (16-byte slots:
/// hash, payload offset, run length), with every run stored contiguously
/// in one shared payload array. A lookup is one probe walk plus a
/// pointer-pair return — no per-key node allocations, no bucket lists,
/// and probing touches at most a few cache lines.
///
/// Determinism contract (the same one BuildChunkIndex carried): within a
/// run, row ids appear in the order they were inserted, and every caller
/// inserts in ascending row order — so a probe emits matches ascending by
/// build row regardless of thread count.
///
/// Build is two passes over the input (count runs, then fill), sized
/// upfront to a load factor of at most 1/2, so there is no incremental
/// rehashing on the hot path. The table is reusable: rebuilding reuses
/// the slot, payload, and cursor allocations from the previous build.
class FlatHashTable {
 public:
  /// A run of row ids for one hash: [begin, end), insertion (ascending
  /// row) order. Empty when the hash is absent.
  struct Range {
    const uint32_t* begin = nullptr;
    const uint32_t* end = nullptr;

    bool empty() const { return begin == end; }
    size_t size() const { return static_cast<size_t>(end - begin); }
  };

  /// Builds over rows 0..n-1, where hashes[r] is row r's key hash.
  /// Replaces any previous contents.
  void Build(const uint64_t* hashes, size_t n);

  /// Builds over an explicit row subset. `rows` lists the row ids to
  /// insert, in the order their runs should carry them (callers pass
  /// ascending row ids); `row_hashes` is indexed by row id. Replaces any
  /// previous contents.
  void BuildFromRows(const uint32_t* rows, size_t n,
                     const uint64_t* row_hashes);

  /// The run of row ids whose key hash equals `hash` (empty if none).
  /// Pointers remain valid until the next build.
  Range Lookup(uint64_t hash) const {
    if (slots_.empty()) return Range{};
    size_t i = hash & mask_;
    while (slots_[i].count != 0) {
      if (slots_[i].hash == hash) {
        const uint32_t* begin = payload_.data() + slots_[i].offset;
        return Range{begin, begin + slots_[i].count};
      }
      i = (i + 1) & mask_;
    }
    return Range{};
  }

  /// Total inserted rows.
  size_t size() const { return payload_.size(); }

  /// Slot-array capacity (power of two; 0 before the first build).
  size_t capacity() const { return slots_.size(); }

 private:
  struct Slot {
    uint64_t hash = 0;
    uint32_t offset = 0;
    uint32_t count = 0;  // 0 == empty slot.
  };

  /// Sizes the slot array for `n` rows and zeroes it.
  void Reset(size_t n);

  /// Pass 1: route `hash` to its slot, counting one more row for it.
  void CountOne(uint64_t hash);

  /// Turns per-slot counts into payload offsets (slot order) and zeroes
  /// the fill cursors of occupied slots.
  void AssignOffsets();

  /// Pass 2: append `row` to the (already counted) run for `hash`.
  void FillOne(uint64_t hash, uint32_t row) {
    size_t i = hash & mask_;
    while (slots_[i].count == 0 || slots_[i].hash != hash) {
      i = (i + 1) & mask_;
    }
    payload_[slots_[i].offset + fill_[i]++] = row;
  }

  std::vector<Slot> slots_;
  std::vector<uint32_t> payload_;  // Row ids, one contiguous run per hash.
  std::vector<uint32_t> fill_;     // Per-slot fill cursor (pass 2 only).
  uint64_t mask_ = 0;
};

}  // namespace prost::engine

#endif  // PROST_ENGINE_HASH_TABLE_H_
