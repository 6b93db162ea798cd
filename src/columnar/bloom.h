#ifndef PROST_COLUMNAR_BLOOM_H_
#define PROST_COLUMNAR_BLOOM_H_

#include <cstdint>
#include <vector>

#include "columnar/column.h"

namespace prost::columnar {

/// Blocked-probe bloom filter over term ids, built per partition on the
/// key column so constant-key VP lookups and semi-join probes can skip a
/// partition without decoding any of it (the WiredTiger src/bloom shape:
/// k probes by double hashing into one flat bit array).
///
/// A default-constructed filter is "absent": MayContain() returns true
/// for every id, so code paths that never built a filter stay correct.
/// A filter Build()-ed over an empty key set rejects every id.
class BloomFilter {
 public:
  /// ~1% false positives at the default 10 bits per key with 7 probes.
  static constexpr uint32_t kDefaultBitsPerKey = 10;

  BloomFilter() = default;

  /// Builds over `keys` (kNullTermId entries are skipped — NULL never
  /// equals a lookup constant).
  static BloomFilter Build(const IdVector& keys,
                           uint32_t bits_per_key = kDefaultBitsPerKey);

  /// False means `id` is definitely not in the key set; true means it
  /// might be (or no filter was built).
  bool MayContain(TermId id) const;

  bool empty() const { return bits_.empty(); }
  uint64_t num_bits() const { return uint64_t{64} * bits_.size(); }
 private:
  uint32_t num_hashes_ = 0;
  std::vector<uint64_t> bits_;
};

}  // namespace prost::columnar

#endif  // PROST_COLUMNAR_BLOOM_H_
