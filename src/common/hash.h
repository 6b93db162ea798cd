#ifndef PROST_COMMON_HASH_H_
#define PROST_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace prost {

/// 64-bit avalanche mix (the MurmurHash3 finalizer). Good distribution for
/// hash-partitioning dictionary-encoded term ids across workers.
inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// The worker a row keyed by `key` lives on: the subject-hash placement
/// of §3.1. The VP and PT stores load by it and RepartitionByColumn
/// shuffles by it; A3's partitioning reuse is correct only while they
/// agree, so every one of them calls this.
inline uint32_t PartitionOf(uint64_t key, uint32_t num_workers) {
  return static_cast<uint32_t>(Mix64(key) % num_workers);
}

/// 64-bit FNV-1a over a byte string. Used for dictionary buckets and for
/// content checksums in the columnar file format.
uint64_t HashBytes(std::string_view bytes);

/// Combines two 64-bit hashes (boost::hash_combine style, widened).
inline uint64_t HashCombine(uint64_t a, uint64_t b) {
  return a ^ (Mix64(b) + 0x9e3779b97f4a7c15ULL + (a << 12) + (a >> 4));
}

}  // namespace prost

#endif  // PROST_COMMON_HASH_H_
